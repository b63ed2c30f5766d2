"""Pinned shardable scenarios and the per-shard leg of their build.

The serial oracle leg of every scenario here is plain
:func:`repro.scenario.build`; :func:`build_shard` constructs the same
spec with the shard-aware engine and fabric, through the same
:func:`~repro.scenario.scenario_policy` and
:func:`~repro.scenario.scenario_workload`, which is what makes the
serial digest the oracle for the sharded run (docs/sharding.md).

Two scenario fields are set for sharding, and apply to **both** legs so
the comparison stays apples to apples:

* ``routing_rng="flow"``: each flow draws from its own
  ``named_generator`` stream, so the draw *order* across flows stops
  mattering — on a shard, only a subset of flows exists, and a shared
  stream would interleave differently;
* ``noise_rng="host"``: background noise uses per-host generators
  (:class:`~repro.traffic.generators.ShardHotSpotWorkload`), so each
  host's destination sequence is independent of every other host's
  injection schedule, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig
from repro.parallel.tasks import make_topology
from repro.scenario import Scenario, scenario_policy, scenario_workload
from repro.sim.rng import RandomStreams
from repro.shard.engine import ShardSimulator
from repro.shard.fabric import ShardFabric, min_lookahead_s
from repro.topology.partition import PartitionPlan
from repro.traffic.bursty import BurstSchedule
from repro.traffic.generators import HotSpotFlow

__all__ = [
    "SCENARIOS",
    "ShardContext",
    "VerifyRecorder",
    "build_shard",
]


class VerifyRecorder(StatsRecorder):
    """Stats recorder that reports deliveries to the pop log.

    The offline merge rebuilds the run's metrics by replaying delivery
    annotations in merged calendar order into a fresh
    :class:`StatsRecorder`; ``(dst, latency, now)`` is everything
    ``on_data_delivered`` reads.
    """

    _snapshot_exclude_: ClassVar[tuple[str, ...]] = ("sim",)

    def __init__(self, sim: Optional[ShardSimulator] = None, window_s: float = 50e-6) -> None:
        super().__init__(window_s=window_s)
        self.sim = sim

    def on_data_delivered(self, packet, latency_s: float, now: float) -> None:
        super().on_data_delivered(packet, latency_s, now)
        if self.sim is not None:
            self.sim.annotate(("deliv", packet.dst, latency_s, now))


@dataclass
class ShardContext:
    """One shard's leg: setup replayed, only owned roots enqueued."""

    spec: Scenario
    shard_id: int
    until: float
    lookahead_s: float
    setup_ops: int
    sim: ShardSimulator
    recorder: StatsRecorder
    policy_obj: object
    fabric: ShardFabric
    workload: object

    def checkpoint_roots(self) -> dict:
        """The object-graph roots a per-shard checkpoint must carry."""
        return {
            "sim": self.sim,
            "recorder": self.recorder,
            "policy_obj": self.policy_obj,
            "fabric": self.fabric,
            "workload": self.workload,
        }


def _setup_owner(topology, plan: PartitionPlan):
    """Map a root injection op to its owning shard.

    Root operations are ``_inject_flow(HotSpotFlow)`` and
    ``_inject_noise(host, interval)``; both are owned by the shard of the
    *source* host — every downstream event either stays there or crosses
    through the handoff seam.
    """
    shard_of_router = plan.shard_of_router

    def owner(fn, args) -> int:
        head = args[0]
        host = head.src if isinstance(head, HotSpotFlow) else int(head)
        return shard_of_router[topology.host_router(host)]

    return owner


def build_shard(
    spec: Scenario,
    shard_id: int,
    plan: PartitionPlan,
    verify: bool = False,
) -> ShardContext:
    """Construct (but do not run) one shard's leg of the scenario.

    Mirrors :func:`repro.scenario.build` step for step; the only
    differences are the shard-aware engine/fabric classes and the
    setup-mode bracket around workload start.
    """
    streams = RandomStreams(spec.seed)
    sim = ShardSimulator(shard_id, verify=verify)
    # No EventTraceDigest here: shard events carry Rank objects in the
    # sequence slot; the merge recomputes the digest with serial seqs.
    recorder = (
        VerifyRecorder(sim, window_s=spec.window_s)
        if verify
        else StatsRecorder(window_s=spec.window_s)
    )
    policy_obj = scenario_policy(spec, streams)
    topology = make_topology(spec.topology)
    fabric = ShardFabric(
        topology,
        NetworkConfig(**(spec.config or {})),
        policy_obj,
        sim,
        plan,
        recorder=recorder,
        notification=spec.notification,
        verify=verify,
    )
    fabric.assert_shardable()
    workload = scenario_workload(spec, fabric, streams)
    sim.begin_setup(_setup_owner(topology, plan))
    workload.start()
    setup_ops = sim.end_setup()
    return ShardContext(
        spec=spec,
        shard_id=shard_id,
        until=spec.until(),
        lookahead_s=min_lookahead_s(fabric.config),
        setup_ops=setup_ops,
        sim=sim,
        recorder=recorder,
        policy_obj=policy_obj,
        fabric=fabric,
        workload=workload,
    )


def _shardable(topology: str, repetitions: int) -> Scenario:
    return Scenario(
        topology,
        routing_rng="flow",
        noise_rng="host",
        schedule=BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=repetitions),
    )


#: the pinned scenario registry (docs/sharding.md): ``verify`` gates on
#: mesh8, ``bench`` measures mesh16 + the dragonfly group pairs, and
#: mesh32 is the big-fabric checkpoint/resume workload.
SCENARIOS: dict[str, Scenario] = {
    "mesh8": _shardable("mesh:8", 3),
    "mesh16": _shardable("mesh:16", 2),
    "dragonfly": _shardable("dragonfly:4,2,2", 2),
    "mesh32": _shardable("mesh:32", 1),
}
