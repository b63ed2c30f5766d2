"""One scenario model: a frozen spec and the one builder every run uses.

The evaluation (§4.3) runs the *same* workload — same seeds, same
injection times — under each routing policy, so the scenario is the unit
every comparison rests on.  A :class:`Scenario` describes one completely
in plain values; it is frozen, and a checkpoint carries it with the
context it built.

:func:`build` turns a spec into a :class:`Context` — streams, simulator,
trace digest, recorder, policy, fabric, faults and workload, constructed
in one fixed order, which is what keeps event digests stable.  Observers
(tracer, metrics registry, invariants, the digest itself) are arguments
to :func:`build`, never spec fields: they do not change what executes.

The simulation task kinds of :mod:`repro.parallel` are presets over this
model: :func:`task_scenario` maps a kind's params to a spec,
:func:`build_task` builds it, :func:`finish` returns the kind's result
dict, and :func:`run_task` does all three.  Adding a workload means adding
its fields to :class:`Scenario` and a branch to :func:`scenario_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.network.config import NetworkConfig, ReliabilityConfig
from repro.traffic.bursty import BurstSchedule

__all__ = [
    "KINDS",
    "Context",
    "Faults",
    "Scenario",
    "build",
    "build_task",
    "finish",
    "run_task",
    "scenario_policy",
    "scenario_workload",
    "task_scenario",
]

#: the simulation task kinds (``selftest`` is the orchestrator's test
#: double and builds nothing).
KINDS = ("replay", "fault", "hotspot", "pattern")


@dataclass(frozen=True)
class Faults:
    """A fault schedule: link flaps on the hottest flow plus ACK loss.

    Scheduled flaps hit the first router hop of the first flow's minimal
    route in bursts 1 and 2 (docs/fault_model.md); ``stochastic`` swaps
    them for an MTBF/MTTR flap process.  The reliable transport is always
    installed when a fault schedule is present.
    """

    #: Bernoulli ACK/notification loss probability (0 disables).
    ack_loss: float = 0.1
    #: transient link-flap outage length, seconds (0 disables flaps).
    flap_duration_s: float = 2.0e-4
    #: offset of each flap into its burst, seconds.
    flap_offset_s: float = 2.0e-5
    #: use a stochastic MTBF/MTTR flap process instead of scheduled flaps.
    stochastic: bool = False
    mtbf_s: float = 3.0e-4
    mttr_s: float = 1.5e-4
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)


@dataclass(frozen=True)
class Scenario:
    """One fully seeded simulation, described by plain values.

    The defaults are the reference small-mesh hot-spot: three colliding
    flows plus uniform noise through three on/off bursts, router-based
    notification, 400 µs of drain.
    """

    #: topology spec string (:func:`repro.parallel.tasks.make_topology`).
    topology: str
    #: policy spec string, e.g. ``"pr-drb:max_paths=4"``.
    policy: str = "pr-drb"
    seed: int = 0
    #: where the policy's random draws come from: the seeded ``routing``
    #: stream, or the policy's own ``"default"`` generator.
    routing_rng: str = "stream"
    notification: str = "router"
    #: :class:`~repro.network.config.NetworkConfig` keyword overrides.
    config: Optional[dict] = None
    #: recorder window; None runs without a stats recorder.
    window_s: Optional[float] = 2.5e-5
    #: record per-router wait series (latency-map figures).
    track_routers: bool = False
    #: injection envelope; None injects nothing (the caller drives
    #: traffic, e.g. an MPI trace replay).
    schedule: Optional[BurstSchedule] = BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=3)
    #: injection stops here; None stops at the end of the last burst.
    stop_s: Optional[float] = None
    #: hot-spot aggressor ``(src, dst)`` pairs; None is the topology's
    #: canonical set (:func:`_flows`).
    flows: Optional[tuple[tuple[int, int], ...]] = None
    #: a traffic-pattern name selects the pattern workload instead of the
    #: hot-spot one.
    pattern: Optional[str] = None
    #: pattern source hosts; None is the largest power-of-two prefix.
    hosts: Optional[tuple[int, ...]] = None
    rate_bps: float = 1.2e9
    noise_rate_bps: float = 3e7
    idle_rate_bps: float = 2e8
    #: simulated time after :meth:`stop`; None runs until the calendar
    #: empties (or a ``max_events`` bound).
    drain_s: Optional[float] = 4e-4
    faults: Optional[Faults] = None

    def __post_init__(self) -> None:
        if self.routing_rng not in ("stream", "default"):
            raise ValueError(f"unknown routing_rng {self.routing_rng!r}")

    def stop(self) -> Optional[float]:
        """When injection stops (None without a workload)."""
        if self.stop_s is not None or self.schedule is None:
            return self.stop_s
        return self.schedule.end_time()

    def until(self) -> Optional[float]:
        """The run horizon: injection stop plus drain."""
        if self.drain_s is None:
            return None
        return self.stop() + self.drain_s


def _schedule(data: Optional[dict]) -> Optional[BurstSchedule]:
    if data is None:
        return None
    repetitions = data.get("repetitions")
    return BurstSchedule(
        on_s=float(data["on_s"]),
        off_s=float(data["off_s"]),
        start_s=float(data.get("start_s", 0.0)),
        repetitions=None if repetitions is None else int(repetitions),
    )


def _flows(spec: Scenario, topology) -> tuple[tuple[int, int], ...]:
    """The spec's aggressors, or the topology's canonical set.

    Mesh/torus: two source columns funnel into one destination column.
    Dragonfly: the group-pair permutation — every host of group 0 sends
    to its mirror in the next group, contending for the pair's global
    link.
    """
    if spec.flows is not None:
        return spec.flows
    n = topology.num_hosts
    if hasattr(topology, "group_of"):
        per_group = n // topology.num_groups
        return tuple((h, h + per_group) for h in range(per_group))
    side = int(getattr(topology, "width", 0) or round(n**0.5))
    return ((0, n - side + 1), (side, n - side + 1), (1, n - 1))


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
@dataclass
class Context:
    """A built scenario: workload armed, clock not yet run.

    Running is ``context.run()``; :mod:`repro.checkpoint` may stop it
    anywhere, pickle :meth:`checkpoint_roots` as one image (so shared
    identities survive), and a restored process finishes the run with the
    same digests.
    """

    spec: Scenario
    sim: object
    streams: object
    trace: object
    recorder: object
    policy: object
    fabric: object
    workload: object = None
    transport: object = None
    injector: object = None
    invariants: object = None
    #: the task kind whose result :func:`finish` produces.
    kind: Optional[str] = None

    @property
    def until(self) -> Optional[float]:
        return self.spec.until()

    def run(self, max_events: Optional[int] = None) -> int:
        """Run to the horizon; check the invariants if installed."""
        executed = self.sim.run(until=self.until, max_events=max_events)
        if self.invariants is not None:
            self.invariants.check()
        return executed

    def checkpoint_roots(self) -> dict:
        """What a checkpoint carries: the whole context, minus the debug
        invariants observer (a restored run is checked by its digests)."""
        return {"kind": self.kind, "context": replace(self, invariants=None)}


def scenario_policy(spec: Scenario, streams):
    """The spec's routing policy, seeded per ``spec.routing_rng``.

    Policies without a random component reject ``rng``; the attempt
    cascade falls back to fewer arguments, identically on every leg.
    """
    from repro.routing import make_policy

    if spec.routing_rng == "default":
        return make_policy(spec.policy)
    rng = streams.stream("routing")
    for kwargs in ({"rng": rng}, {}):
        try:
            return make_policy(spec.policy, **kwargs)
        except TypeError:
            continue
    raise ValueError(f"cannot construct policy {spec.policy!r}")


def scenario_workload(spec: Scenario, fabric, streams):
    """The spec's injection process, constructed but not started."""
    from repro.traffic import generators as gen

    if spec.schedule is None:
        return None
    topology = fabric.topology
    if spec.pattern is not None:
        from repro.traffic.patterns import make_pattern

        default = range(1 << (topology.num_hosts.bit_length() - 1))
        hosts = list(default if spec.hosts is None else spec.hosts)
        nodes = 1 << (len(hosts).bit_length() - 1)
        pattern = make_pattern(spec.pattern, nodes, rng=streams.stream("pattern"))
        return gen.SyntheticTrafficSource(
            fabric, pattern, hosts=hosts[:nodes], rate_bps=spec.rate_bps,
            schedule=spec.schedule, stop_s=spec.stop(), rng=streams.stream("traffic"),
            idle_rate_bps=spec.idle_rate_bps,
        )
    flows = [gen.HotSpotFlow(src, dst) for src, dst in _flows(spec, topology)]
    common = dict(
        rate_bps=spec.rate_bps, schedule=spec.schedule, stop_s=spec.stop(),
        noise_hosts=range(topology.num_hosts), noise_rate_bps=spec.noise_rate_bps,
        idle_rate_bps=spec.idle_rate_bps,
    )
    return gen.HotSpotWorkload(fabric, flows, rng=streams.stream("noise"), **common)


def build(
    spec: Scenario, *, digest: bool = True, tracer=None, metrics=None,
    metrics_cadence_s: Optional[float] = None, with_invariants: bool = False,
) -> Context:
    """Construct (but do not run) ``spec``.

    ``digest=False`` skips the event-trace observer for runs that never
    read it.
    """
    from repro.analysis.replay import EventTraceDigest
    from repro.metrics.recorder import StatsRecorder
    from repro.network.fabric import Fabric
    from repro.parallel.tasks import make_topology
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(spec.seed)
    sim = Simulator()
    trace = EventTraceDigest().install(sim) if digest else None
    recorder = None
    if spec.window_s is not None:
        recorder = StatsRecorder(window_s=spec.window_s, track_router_series=spec.track_routers)
    policy = scenario_policy(spec, streams)
    fabric = Fabric(
        make_topology(spec.topology), NetworkConfig(**(spec.config or {})), policy, sim,
        recorder=recorder, notification=spec.notification,
    )
    transport = injector = None
    if spec.faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import ReliableTransport

        transport = ReliableTransport(fabric, spec.faults.reliability)
        injector = FaultInjector(fabric, rng=streams.stream("faults"))
    if tracer is not None or metrics is not None:
        from repro.obs import instrument

        instrument(fabric, tracer, metrics, cadence_s=metrics_cadence_s)
    invariants = None
    if with_invariants:
        from repro.analysis.invariants import DebugInvariants

        invariants = DebugInvariants(fabric).install()
    if injector is not None:
        from repro.faults.campaign import fault_models

        hot = _flows(spec, fabric.topology)[0]
        injector.apply(*fault_models(spec.faults, fabric, hot, spec.schedule))
    workload = scenario_workload(spec, fabric, streams)
    if workload is not None:
        workload.start()
    return Context(
        spec, sim, streams, trace, recorder, policy, fabric,
        workload, transport, injector, invariants,
    )


# ----------------------------------------------------------------------
# Task-kind presets
# ----------------------------------------------------------------------
def task_scenario(kind: str, params: dict) -> Scenario:
    """The :class:`Scenario` a simulation task's params describe.

    The params vocabulary per kind is the external contract of
    :mod:`repro.parallel` and ``repro.serve`` (docs/parallel.md).
    """
    policy = str(params.get("policy", "pr-drb"))
    if kind == "replay":
        repetitions = int(params.get("repetitions", 3))
        bursts = BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=repetitions)
        mesh = f"mesh:{int(params.get('mesh_side', 4))}"
        return Scenario(mesh, policy, int(params.get("seed", 0)), schedule=bursts)
    if kind == "fault":
        from repro.faults.campaign import FaultCampaignSpec

        spec = params.get("spec") or {
            key: int(params[key]) for key in ("seed", "mesh_side", "repetitions") if key in params
        }
        return FaultCampaignSpec.from_dict(spec).scenario(policy)
    if kind not in ("hotspot", "pattern"):
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    # The experiment runners' cells: policy default RNG, rates in Mbps.
    common = dict(
        topology=str(params["topology"]),
        policy=str(params["policy"]),
        seed=int(params.get("seed", 0)),
        routing_rng="default",
        notification=str(params.get("notification", "destination")),
        config=params.get("config"),
        window_s=float(params.get("window_s", 50e-6)),
        track_routers=bool(params.get("track_routers", False)),
        rate_bps=float(params["rate_mbps"]) * 1e6,
        idle_rate_bps=float(params.get("idle_rate_mbps", 0.0)) * 1e6,
        drain_s=float(params.get("drain_s", 1e-3)),
    )
    if kind == "hotspot":
        return Scenario(
            schedule=_schedule(params["schedule"]),
            flows=tuple((int(s), int(d)) for s, d in params["flows"]),
            noise_rate_bps=float(params.get("noise_rate_mbps", 0.0)) * 1e6,
            **common,
        )
    duration_s = float(params.get("duration_s", 1e-3))
    schedule = _schedule(params.get("schedule")) or BurstSchedule(on_s=duration_s, off_s=0.0)
    hosts = params.get("hosts")
    return Scenario(
        schedule=schedule,
        stop_s=None if schedule.end_time() is not None else duration_s,
        pattern=str(params["pattern"]),
        hosts=None if hosts is None else tuple(int(h) for h in hosts),
        noise_rate_bps=0.0,
        **common,
    )


def build_task(kind: str, params: dict, **observers) -> Context:
    """Build a task kind's scenario; :func:`finish` reads its result."""
    context = build(task_scenario(kind, params), digest=kind in ("replay", "fault"), **observers)
    context.kind = kind
    return context


def finish(context: Context) -> dict:
    """The JSON result dict of a task context whose run has completed."""
    if context.kind == "replay":
        from repro.analysis.replay import RunDigest

        return RunDigest.from_context(context).to_dict()
    if context.kind == "fault":
        from repro.faults.campaign import FaultRunResult

        return FaultRunResult.from_context(context).to_dict()
    if context.kind in ("hotspot", "pattern"):
        from repro.experiments.runner import PolicyRun

        return PolicyRun.from_context(context, context.spec.stop()).to_dict()
    raise ValueError(f"context has no task kind to finish ({context.kind!r})")


def run_task(task, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    """One simulation :class:`~repro.parallel.tasks.SimTask`, start to end."""
    context = build_task(
        task.kind, task.params,
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
    )
    context.run()
    return finish(context)
