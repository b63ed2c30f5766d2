"""The two direct-simulation workloads: ``hotspot-mesh8`` and ``app-pop64``.

One *operation* is one scenario built from the seed and simulated to
drain.  Operations are kept short (five hot-spot bursts, one POP
time-step) so that a run holds tens of them, and each is timed in
``ref`` against the gauge run before and after it (see ``gauge.py``).
Every operation is checked: all injected data packets delivered,
every MPI rank finished, and the executed event count and metrics digest
equal to the values recorded in ``expected.json`` (or, for a seed with
no recorded values, equal across the operations of the run).  Digests
are computed after the timed window closes.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from perfbench.gauge import Gauge
from perfbench.ledger import SIM_SPANS, Ledger, Tally

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: builds per operation; setup_s is the median over all of them.
SETUP_BUILDS = 3
#: hot-spot bursts per operation, and POP time-steps per operation.
HOTSPOT_BURSTS = 5
POP_STEPS = 1


@dataclass
class Built:
    """A scenario whose clock has not started yet."""

    sim: object
    fabric: object
    policy: object
    recorder: object
    runtime: object = None
    trace_digest: object = None
    #: benchmark-side build timings, seconds.
    timings: dict = field(default_factory=dict)

    def run(self) -> None:
        if self.runtime is not None:
            self.runtime.run(timeout_s=10.0)
        else:
            self.sim.run()


def build_hotspot(seed: int, tiny: bool = False, trace_digest: bool = False) -> Built:
    """§4.5 hot-spot on an 8x8 mesh under pr-drb, seeded noise."""
    from repro.experiments.config import (
        HOTSPOT_FLOWS, HOTSPOT_IDLE_MBPS, HOTSPOT_NOISE_MBPS, HOTSPOT_RATE_MBPS,
    )
    from repro.metrics.recorder import StatsRecorder
    from repro.network.config import NetworkConfig
    from repro.network.fabric import Fabric
    from repro.routing import make_policy
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.topology.mesh import Mesh2D
    from repro.traffic.bursty import BurstSchedule
    from repro.traffic.generators import HotSpotFlow, HotSpotWorkload

    clock = time.perf_counter
    t0 = clock()
    streams = RandomStreams(seed)
    sim = Simulator()
    digest = _install_digest(sim) if trace_digest else None
    recorder = StatsRecorder(window_s=2.5e-5)
    policy = make_policy("pr-drb")
    t1 = clock()
    topology = Mesh2D(8)
    t2 = clock()
    fabric = Fabric(topology, NetworkConfig(), policy, sim, recorder=recorder)
    t3 = clock()
    schedule = BurstSchedule(on_s=3e-4, off_s=3e-4, repetitions=3 if tiny else HOTSPOT_BURSTS)
    HotSpotWorkload(
        fabric,
        [HotSpotFlow(src, dst) for src, dst in HOTSPOT_FLOWS],
        rate_bps=HOTSPOT_RATE_MBPS * 1e6,
        schedule=schedule,
        stop_s=schedule.end_time(),
        noise_hosts=range(topology.num_hosts),
        noise_rate_bps=HOTSPOT_NOISE_MBPS * 1e6,
        rng=streams.stream("noise"),
        idle_rate_bps=HOTSPOT_IDLE_MBPS * 1e6,
    ).start()
    t4 = clock()
    return Built(
        sim, fabric, policy, recorder, trace_digest=digest,
        timings={"setup": t4 - t0, "topology": t2 - t1, "fabric": t3 - t2},
    )


def build_app(seed: int, tiny: bool = False, trace_digest: bool = False) -> Built:
    """POP trace (64 ranks) replayed on a 4-ary 3-tree under pr-drb."""
    from repro.apps.pop import pop_trace
    from repro.metrics.recorder import StatsRecorder
    from repro.mpi.runtime import TraceRuntime
    from repro.network.config import NetworkConfig
    from repro.network.fabric import Fabric
    from repro.routing import make_policy
    from repro.sim.engine import Simulator
    from repro.topology.fattree import KaryNTree

    clock = time.perf_counter
    t0 = clock()
    sim = Simulator()
    digest = _install_digest(sim) if trace_digest else None
    recorder = StatsRecorder(window_s=1e-4)
    policy = make_policy("pr-drb")
    t1 = clock()
    topology = KaryNTree(4, 3)
    t2 = clock()
    fabric = Fabric(
        topology, NetworkConfig(), policy, sim, recorder=recorder,
        notification="router",
    )
    t3 = clock()
    if tiny:
        trace = pop_trace(num_ranks=16, steps=1, seed=seed)
    else:
        trace = pop_trace(num_ranks=64, steps=POP_STEPS, seed=seed)
    t4 = clock()
    runtime = TraceRuntime(fabric, trace)
    t5 = clock()
    return Built(
        sim, fabric, policy, recorder, runtime=runtime, trace_digest=digest,
        timings={
            "setup": t5 - t0, "topology": t2 - t1, "fabric": t3 - t2,
            "trace": t4 - t3,
        },
    )


SCENARIOS: dict[str, Callable[..., Built]] = {
    "hotspot-mesh8": build_hotspot,
    "app-pop64": build_app,
}


def _install_digest(sim):
    from repro.analysis.replay import EventTraceDigest

    return EventTraceDigest().install(sim)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def outcome(built: Built) -> dict:
    """What an operation produced, digested (outside the timed window)."""
    from repro.analysis.replay import digest_metrics

    fabric = built.fabric
    result = {
        "events": built.sim.events_executed,
        "metrics": digest_metrics(fabric, built.recorder, built.policy),
        "injected": fabric.data_packets_injected,
        "delivered": fabric.data_packets_delivered,
    }
    if built.runtime is not None:
        result["ranks"] = built.runtime.trace.num_ranks
        result["finished_ranks"] = built.runtime.finished_ranks
    if built.trace_digest is not None:
        result["trace"] = built.trace_digest.hexdigest()
    return result


def problems(got: dict, expected: Optional[dict]) -> list[str]:
    """Why an operation's outcome is wrong (empty when it is right)."""
    found = []
    if got["delivered"] != got["injected"]:
        found.append(f"delivered {got['delivered']} of {got['injected']} packets")
    if got.get("finished_ranks", 0) != got.get("ranks", 0):
        found.append(f"{got['finished_ranks']} of {got['ranks']} ranks finished")
    if expected is not None:
        for key in ("events", "metrics", "trace"):
            if key in expected and key in got and got[key] != expected[key]:
                found.append(f"{key} {got[key]} != expected {expected[key]}")
    return found


def load_expected(workload: str, seed: int, tiny: bool) -> Optional[dict]:
    try:
        table = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    except OSError:
        return None
    return table.get(f"{workload}{'/tiny' if tiny else ''}", {}).get(str(seed))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
class Checker:
    """Counts operations and failed checks; never drops a failure."""

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, got: dict) -> bool:
        self.attempted += 1
        if self.expected is None:
            # Unrecorded seed: the first operation becomes the reference.
            self.expected = {k: got[k] for k in ("events", "metrics")}
        found = problems(got, self.expected)
        if found:
            self.failed += 1
            self.messages.extend(found)
        return not found


def _op(build, seed: int, tiny: bool, trace_digest: bool = False,
        gauge: Optional[Gauge] = None):
    """Build SETUP_BUILDS times, run the last build; returns timings.

    The heap is collected before the clock starts, so each run begins
    from the same garbage-free state, and ``gauge`` (when given) takes
    its sample for the operation right before it.
    """
    setups = []
    for _ in range(SETUP_BUILDS):
        built = build(seed, tiny=tiny, trace_digest=trace_digest)
        setups.append(built.timings["setup"])
    gc.collect()
    if gauge is not None:
        gauge.sample()
    start = time.perf_counter()
    built.run()
    return built, time.perf_counter() - start, setups


def measure(workload: str, seed: int, seconds: float, tiny: bool,
            expected: Optional[dict]) -> dict:
    """Untraced run: operations back to back for ``seconds``.

    The gauge is sampled before every operation and once after the
    last, so each operation's time is divided by the mean of the two
    samples that bracket it.
    """
    build = SCENARIOS[workload]
    checker = Checker(expected)
    gauge = Gauge()
    latencies, setups, events, refs = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        built, elapsed, op_setups = _op(build, seed, tiny, gauge=gauge)
        before = len(gauge.samples) - 1
        got = outcome(built)
        del built
        if checker.check(got):
            latencies.append(elapsed)
            setups.extend(op_setups)
            events.append(got["events"])
            refs.append(before)
        if tiny or time.perf_counter() >= deadline:
            break
    gauge.sample()
    if not latencies:
        # Every operation failed its check: the run reports failure, and
        # zeros keep the result line valid JSON.
        return {"checker": checker, "absolute": {}, "metrics": dict.fromkeys(
            ("setup_s", "latency_p50_ref", "work_per_ref"), 0.0)}
    ratios = [elapsed / gauge.bracket(i) for elapsed, i in zip(latencies, refs)]
    return {
        "checker": checker,
        "absolute": {
            "operations": len(latencies),
            "latency_p50_ms": 1e3 * median(latencies),
            "work_per_s": sum(events) / sum(latencies),
            "gauge_ref_ms": gauge.median_ms(),
        },
        "metrics": {
            "setup_s": median(setups),
            "latency_p50_ref": median(ratios),
            "work_per_ref": sum(events) / sum(ratios),
        },
    }


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool,
                   expected: Optional[dict]) -> dict:
    """Traced run: alternate plain and traced operations for ``seconds``.

    The first operation carries only the event-trace digest and is the
    reference the traced operations must match; the plain operations
    give the base for ``harness.trace_overhead``.
    """
    build = SCENARIOS[workload]
    checker = Checker(expected)
    reference, _, _ = _op(build, seed, tiny, trace_digest=True)
    ref = outcome(reference)
    checker.check(ref)
    if checker.expected is not None and "trace" not in checker.expected:
        checker.expected = dict(checker.expected, trace=ref["trace"])

    tally, plain, traced, builds, messages = Tally(), [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        built, elapsed, _ = _op(build, seed, tiny)
        if checker.check(outcome(built)):
            plain.append(elapsed)
        ledger = Ledger()
        ledger.install(SIM_SPANS)
        try:
            built = build(seed, tiny=tiny, trace_digest=True)
            setup_spans = ledger.reset()
            start = time.perf_counter()
            built.run()
            elapsed = time.perf_counter() - start
        finally:
            ledger.uninstall()
        if checker.check(outcome(built)):
            traced.append(elapsed)
            builds.append(dict(built.timings, lower=setup_spans.get("mpi.lower", 0.0)))
            messages.append(_messages(built))
            tally.add(ledger.totals())
        if tiny or time.perf_counter() >= deadline:
            break
    return {
        "checker": checker,
        "tally": tally,
        "plain": plain,
        "traced": traced,
        "builds": builds,
        "messages": messages,
    }


def _messages(built: Built) -> int:
    return built.runtime.messages_sent if built.runtime is not None else 0
