"""The event-trace digest's bytes are frozen.

Every committed digest (perf baseline, checkpoint verify, serve
selftest, the benchmark's expected event-trace digests) hashes the
record ``EventTraceDigest.update`` packs per event.  A faster ``update``
must pack exactly the same bytes, so this test feeds a fixed, hand-built
event sequence and compares against a recorded hex.  The sequence mixes
bound methods, a plain function, a non-ASCII qualname and a
``functools.partial`` (which has no ``__qualname__`` and so is labelled
by its ``repr``), and it is long enough to fold more than one block.
"""

import functools

from repro.analysis.replay import _DIGEST_BLOCK_EVENTS, EventTraceDigest
from repro.sim.engine import Event

#: hexdigest of :func:`_events` under the original ``update``.
GOLDEN_HEX = "31fd709426178bda917d7063c299a9b49261104eac481e038f00ff71f02665b7"
GOLDEN_EVENTS = 5000


class _Port:
    def hop(self):
        pass

    def deliver(self):
        pass


def _inject():
    pass


def _débit():
    pass


def _events():
    port = _Port()
    callbacks = (
        port.hop, port.deliver, _inject, port.hop, _débit,
        functools.partial(max, 1),
    )
    for seq in range(GOLDEN_EVENTS):
        fn = callbacks[(seq * 7) % len(callbacks)]
        time = 1e-6 + seq * 3.3e-9
        yield Event([time, seq % 3 - 1, seq, fn, (), False])


def _digest(events) -> EventTraceDigest:
    digest = EventTraceDigest()
    for event in events:
        digest.update(event)
    return digest


def test_digest_bytes_match_the_recorded_hex():
    assert GOLDEN_EVENTS > _DIGEST_BLOCK_EVENTS  # the chain fold is covered
    digest = _digest(_events())
    assert digest.events == GOLDEN_EVENTS
    assert digest.hexdigest() == GOLDEN_HEX


class _LoudRepr:
    """A callable with a ``__qualname__`` whose ``repr`` must not run."""

    def __init__(self, qualname):
        self.__qualname__ = qualname

    def __call__(self):
        pass

    def __repr__(self):
        raise AssertionError("repr() of a callable that has a __qualname__")


def test_qualname_callables_are_never_repred():
    loud = _digest([Event([0.5, 0, 7, _LoudRepr("_Port.hop"), (), False])])
    plain = _digest([Event([0.5, 0, 7, _Port().hop, (), False])])
    assert loud.hexdigest() == plain.hexdigest()
