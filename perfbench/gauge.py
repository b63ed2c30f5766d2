"""A host-speed gauge: a fixed computation timed next to the operations.

The shared VMs this benchmark runs on change speed by up to 2x within a
minute: the same simulation takes 1.1 s in one stretch and 2.0 s in the
next, in CPU time as well as wall time, and the VM exposes no hardware
counters to count work instead.  A run's median op time then measures
the host's mood more than the program.  So the benchmark times a fixed
pure-Python computation, written here and never changed with the
program, next to its operations, and reports each operation's time as a
multiple of the gauge's time at that moment: the ``ref`` unit.  A change
to the program moves that ratio in full; a slow stretch of the host
moves both terms and mostly cancels.

The computation is shaped like the simulator's hot path, so that host
slowdowns hit both alike: a discrete-event loop over a binary heap,
thousands of small node objects, a packet object allocated per event
and old ones freed, short per-node queues and a tuple-keyed statistics
dict.  It builds its state afresh on every sample, allocation included.
Of the loops tried on a 2-core VM, this one tracked the simulator best
(``README.md`` gives the numbers).
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from statistics import median

#: events in one sample; one ``ref`` is the time of one sample, about
#: 0.1 s on a 2-core Xeon VM at 2.0 GHz.
REF_EVENTS = 20_000
NODES = 4096
PENDING = 8192


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: list = []
        self.busy = 0.0


class _Packet:
    __slots__ = ("src", "dst", "size", "hops")

    def __init__(self, src: int, dst: int, size: int) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.hops = 0


def reference(events: int = REF_EVENTS) -> int:
    """The fixed computation; returns a checksum of its outcome."""
    rng = random.Random(99)
    nodes = [_Node(i) for i in range(NODES)]
    heap = [
        (rng.random(), i, rng.randrange(NODES), _Packet(i % NODES, i * 7 % NODES, 1024))
        for i in range(PENDING)
    ]
    heapq.heapify(heap)
    stats: dict[tuple[int, int], int] = {}
    seq, total = PENDING, 0
    for _ in range(events):
        t, _, k, packet = heapq.heappop(heap)
        node = nodes[k]
        packet.hops += 1
        node.queue.append(packet)
        if len(node.queue) > 6:
            total += node.queue.pop(0).hops
        key = (packet.src, packet.dst)
        stats[key] = stats.get(key, 0) + packet.size
        node.busy = max(node.busy, t) + 1e-3
        seq += 1
        nxt = (k * 31 + seq) % NODES
        if packet.hops >= 8:
            packet = _Packet(k, nxt, 512 + seq % 512)
        heapq.heappush(heap, (node.busy + rng.random(), seq, nxt, packet))
    return total + len(stats)


class Gauge:
    """Times :func:`reference`; keeps every sample, in seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        # The loop makes no cycles, so it needs no collector; with the
        # collector on, its allocations would set off collections of the
        # program's heap, and the gauge would time those too.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def bracket(self, index: int) -> float:
        """Mean of sample ``index`` and the one after it."""
        return (self.samples[index] + self.samples[index + 1]) / 2

    def around(self, index: int, width: int) -> float:
        """Median of the samples within ``width`` of sample ``index``."""
        return median(self.samples[max(0, index - width):index + width + 1])

    def median_ms(self) -> float:
        return 1e3 * median(self.samples) if self.samples else 0.0
