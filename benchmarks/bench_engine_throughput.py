"""Simulator-core microbenchmarks (not a paper artifact).

Measures the discrete-event engine's raw event rate and a packet's
end-to-end cost through the fabric, so regressions in the substrate are
visible independently of the Chapter-4 experiments.

``bench_hotspot_events_per_s`` runs the pinned congested hot-spot
workload from :mod:`repro.perf` and asserts its digest gate.  Host speed
is measured by the ``perfbench/`` benchmark (``BENCHMARK.json``).
"""

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.routing.deterministic import DeterministicPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D


def bench_event_engine_rate(benchmark):
    """Schedule/execute chains of empty events."""

    def run():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(1e-9, chain, n - 1)

        sim.schedule(0.0, chain, 20000)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 20001


def bench_fabric_packet_throughput(benchmark):
    """Push a packet batch across an 8x8 mesh under deterministic routing."""

    def run():
        sim = Simulator()
        fabric = Fabric(Mesh2D(8), NetworkConfig(), DeterministicPolicy(), sim)
        for i in range(500):
            fabric.send(i % 64, (i * 17 + 5) % 64, 1024)
        sim.run()
        return fabric.data_packets_delivered

    delivered = benchmark(run)
    assert delivered > 450  # loopback sends excluded


def bench_hotspot_events_per_s(benchmark):
    """Pinned hot-spot workload (see repro.perf): one deterministic-policy
    pass, asserting the digest gate holds for that policy."""
    from repro.perf import load_baseline, check_digests, run_pinned_workload

    executed = benchmark.pedantic(
        run_pinned_workload, args=("deterministic", 60_000),
        rounds=1, iterations=1,
    )
    assert executed == 60_000
    results = check_digests(["deterministic"], load_baseline())
    assert results["deterministic"]["ok"], "digest drift: see repro.perf"
