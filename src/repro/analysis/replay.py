"""Seeded-replay determinism harness.

The predictive claim of the paper is only measurable if a scenario replayed
with the same seed is *bit-identical*: every figure averages repeated
bursts across seeds, and PR-DRB's solution reuse compares congestion
signatures across repetitions.  This module runs a small mesh PR-DRB
scenario N times with the same root seed and diffs two digests per run:

* the **event-trace digest** — a SHA-256 over every executed event's
  ``(time, priority, sequence, callback)`` tuple, captured through
  :attr:`Simulator.event_hook`.  Any divergence in scheduling order or
  timing shows up here first.
* the **metrics digest** — a SHA-256 over the recorder's per-packet
  latencies, windowed series, fabric counters and policy statistics (the
  quantities the evaluation chapter actually plots).

Used three ways: as a CLI (``python -m repro.analysis replay``), as a
tier-1 regression test (``tests/test_determinism_replay.py``), and as a
library (:func:`check_determinism`) for gating future refactors.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

from repro.checkpoint.state import Snapshottable

__all__ = [
    "RunDigest",
    "ReplayReport",
    "EventTraceDigest",
    "digest_metrics",
    "run_scenario",
    "check_determinism",
    "main",
]


@dataclass(frozen=True)
class RunDigest:
    """Fingerprint of one complete simulation run."""

    seed: int
    policy: str
    events: str
    metrics: str
    events_executed: int
    packets_delivered: int

    @classmethod
    def from_context(cls, context) -> "RunDigest":
        """Digest a :class:`repro.scenario.Context` whose run completed."""
        return cls(
            seed=context.spec.seed,
            policy=context.spec.policy,
            events=context.trace.hexdigest(),
            metrics=digest_metrics(context.fabric, context.recorder, context.policy),
            events_executed=context.sim.events_executed,
            packets_delivered=context.fabric.data_packets_delivered,
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "policy": self.policy,
            "events": self.events,
            "metrics": self.metrics,
            "events_executed": self.events_executed,
            "packets_delivered": self.packets_delivered,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one scenario ``runs`` times with one seed."""

    runs: tuple[RunDigest, ...]

    @property
    def deterministic(self) -> bool:
        first = self.runs[0]
        return all(
            r.events == first.events and r.metrics == first.metrics
            for r in self.runs[1:]
        )

    def to_dict(self) -> dict:
        return {
            "deterministic": self.deterministic,
            "runs": [r.to_dict() for r in self.runs],
        }


#: events per chain fold; boundaries depend only on the event *count*,
#: so an interrupted-and-resumed run folds at the same points as an
#: uninterrupted one and the digests stay bit-identical.
_DIGEST_BLOCK_EVENTS = 4096

#: one event record's fixed part: ``(time, priority, sequence)``.
_pack_record = struct.Struct("<dii").pack


class EventTraceDigest(Snapshottable):
    """Block-chained SHA-256 over the executed event sequence.

    Event records accumulate in a byte buffer; every
    :data:`_DIGEST_BLOCK_EVENTS` events the buffer is folded into a
    running 32-byte chain value (``chain = sha256(chain + block)``).  The
    final digest is ``sha256(chain + tail)``.  Unlike a streaming
    ``hashlib`` object, the ``(chain, buffer, events)`` triple is plain
    picklable state, so a checkpoint can carry the digest mid-run and a
    restored process continues it exactly (docs/checkpoint.md).
    """

    _snapshot_fields_: ClassVar[tuple[str, ...]] = ("events", "_chain", "_buffer")

    def __init__(self) -> None:
        self.events = 0
        self._chain = b""
        self._buffer = bytearray()

    def install(self, sim) -> "EventTraceDigest":
        sim.add_observer(self.update)
        return self

    def update(self, event) -> None:
        # Per-event hot path: the event is read by index rather than
        # through its property accessors, and ``repr`` (the label of a
        # callable without a qualname, e.g. a ``functools.partial``) is
        # evaluated only when needed.  The packed bytes are frozen by
        # tests/test_digest_golden.py.
        self.events += 1
        fn = event[3]
        try:
            label = fn.__qualname__
        except AttributeError:
            label = repr(fn)
        buffer = self._buffer
        buffer += _pack_record(event[0], event[1], event[2])
        buffer += label.encode()
        if self.events % _DIGEST_BLOCK_EVENTS == 0:
            self._chain = hashlib.sha256(self._chain + buffer).digest()
            del buffer[:]

    def hexdigest(self) -> str:
        return hashlib.sha256(self._chain + bytes(self._buffer)).hexdigest()


def digest_metrics(fabric, recorder, policy) -> str:
    """Canonical SHA-256 over everything the evaluation would plot.

    Floats are hashed via their exact IEEE-754 bits (``struct.pack``):
    determinism here means *bit*-stability, not approximate equality.
    """
    sha = hashlib.sha256()

    def add_floats(values) -> None:
        for v in values:
            sha.update(struct.pack("<d", float(v)))

    def add_text(text: str) -> None:
        sha.update(text.encode("utf-8"))

    add_text(
        f"injected={fabric.data_packets_injected};"
        f"delivered={fabric.data_packets_delivered};"
        f"bytes={fabric.data_bytes_delivered};"
        f"acks={fabric.acks_delivered};"
        f"packs={fabric.predictive_acks_delivered};"
        f"dropped={fabric.packets_dropped};"
    )
    add_floats(recorder.latencies)
    times, values = recorder.latency_series.finalize()
    add_floats(times)
    add_floats(values)
    add_floats([recorder.global_average_latency_s])
    # Policy statistics: a plain dict of counters/floats; sort for a
    # canonical order and hash floats exactly.
    stats = policy.stats()
    for key in sorted(stats):
        value = stats[key]
        add_text(f"{key}=")
        if isinstance(value, float):
            add_floats([value])
        else:
            add_text(repr(value))
    contention = fabric.contention_map()
    for router_id in sorted(contention):
        add_text(f"router{router_id}=")
        add_floats([contention[router_id]])
    return sha.hexdigest()


def run_scenario(
    seed: int = 0,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
    with_invariants: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
) -> RunDigest:
    """One complete small-mesh hot-spot run, fully seeded, digested.

    A ``mesh_side`` x ``mesh_side`` mesh carries three colliding flows plus
    uniform background noise through repeated bursts — small enough for a
    sub-second run, busy enough to exercise ACK notification, metapath
    expansion and (for ``pr-drb``) solution save/replay.

    ``tracer``/``metrics`` install :mod:`repro.obs` observation on the
    run.  Observation never perturbs behavior, so the returned digests
    are identical with or without it — ``repro.obs selftest`` checks
    exactly that through this entry point.
    """
    from repro.scenario import build, task_scenario

    params = {"seed": seed, "policy": policy, "mesh_side": mesh_side, "repetitions": repetitions}
    context = build(
        task_scenario("replay", params),
        with_invariants=with_invariants,
        tracer=tracer,
        metrics=metrics,
        metrics_cadence_s=metrics_cadence_s,
    )
    context.run()
    return RunDigest.from_context(context)


def check_determinism(
    seed: int = 0,
    runs: int = 2,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
) -> ReplayReport:
    """Replay the scenario ``runs`` times with one seed; diff the digests."""
    if runs < 2:
        raise ValueError("need at least 2 runs to compare")
    digests = tuple(
        run_scenario(
            seed=seed, policy=policy, mesh_side=mesh_side, repetitions=repetitions
        )
        for _ in range(runs)
    )
    return ReplayReport(runs=digests)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.analysis replay [--seed N] [--runs K]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis replay",
        description="Seeded-replay determinism harness: run a small mesh "
        "PR-DRB scenario repeatedly and diff event/metric digests.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--policy", default="pr-drb")
    parser.add_argument("--mesh-side", type=int, default=4)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compare digests")

    report = check_determinism(
        seed=args.seed, runs=args.runs, policy=args.policy, mesh_side=args.mesh_side
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for i, run in enumerate(report.runs):
            print(
                f"run {i}: events={run.events[:16]}… metrics={run.metrics[:16]}… "
                f"({run.events_executed} events, {run.packets_delivered} delivered)"
            )
        verdict = "DETERMINISTIC" if report.deterministic else "NON-DETERMINISTIC"
        print(f"{verdict}: seed={args.seed} policy={args.policy} runs={args.runs}")
    return 0 if report.deterministic else 1
