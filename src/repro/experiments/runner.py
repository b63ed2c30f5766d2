"""Policy-comparison runner (§4.3 evaluation method).

Runs the *same* workload (same seeds, same injection times) under each
routing policy and collects the quantities Chapter 4 plots: global average
latency (Eq. 4.2), windowed latency series, per-router contention latency,
latency-map surfaces, execution time for trace replays, and the predictive
policies' pattern statistics.  Multiple seeds are averaged as in §4.3.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.stats import ConfidenceInterval, confidence_interval
from repro.network.config import NetworkConfig
from repro.network.fabric import DESTINATION_BASED
from repro.mpi.runtime import TraceRuntime
from repro.scenario import Scenario, build, task_scenario
from repro.traffic.bursty import BurstSchedule


@dataclass
class PolicyRun:
    """Everything measured for one policy under one workload."""

    policy_name: str
    global_latency_s: float
    mean_latency_s: float
    p99_latency_s: float
    execution_time_s: float
    contention_map: dict[int, float]
    latency_series: tuple[np.ndarray, np.ndarray]
    router_series: dict[int, tuple[np.ndarray, np.ndarray]]
    policy_stats: dict
    accepted_ratio: float
    seeds: int = 1
    #: 95 % CI of the global latency over seeds (§4.3); zero-width for
    #: single-seed runs.
    global_latency_ci: Optional[ConfidenceInterval] = None

    @property
    def map_peak_s(self) -> float:
        return max(self.contention_map.values(), default=0.0)

    @property
    def map_mean_s(self) -> float:
        values = list(self.contention_map.values())
        return float(np.mean(values)) if values else 0.0

    def row(self) -> dict:
        return {
            "policy": self.policy_name,
            "global_latency_us": round(self.global_latency_s * 1e6, 3),
            "map_peak_us": round(self.map_peak_s * 1e6, 3),
            "exec_time_ms": round(self.execution_time_s * 1e3, 4),
            "accepted": round(self.accepted_ratio, 3),
        }

    @classmethod
    def from_context(cls, context, execution_time_s: float) -> "PolicyRun":
        """Measure a :class:`repro.scenario.Context` whose run completed."""
        recorder = context.recorder
        fabric = context.fabric
        return cls(
            policy_name=context.spec.policy,
            global_latency_s=recorder.global_average_latency_s,
            mean_latency_s=recorder.mean_latency_s,
            p99_latency_s=recorder.latency_percentile(99),
            execution_time_s=execution_time_s,
            contention_map=fabric.contention_map(),
            latency_series=recorder.latency_series.finalize(),
            router_series={
                rid: series.finalize() for rid, series in recorder.router_series.items()
            },
            policy_stats=fabric.policy.stats(),
            accepted_ratio=fabric.accepted_ratio(),
        )

    def to_dict(self) -> dict:
        """Lossless JSON form (Python floats round-trip bit-exactly).

        This is what lets :mod:`repro.parallel` ship a per-seed run back
        from a worker process, or answer it from the on-disk cache, with
        results bit-identical to an in-process serial run.
        """
        from repro.parallel.tasks import json_safe

        return {
            "policy_name": self.policy_name,
            "global_latency_s": self.global_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "execution_time_s": self.execution_time_s,
            "contention_map": {str(k): float(v) for k, v in self.contention_map.items()},
            "latency_series": [
                [float(x) for x in self.latency_series[0]],
                [float(x) for x in self.latency_series[1]],
            ],
            "router_series": {
                str(rid): [[float(x) for x in t], [float(x) for x in v]]
                for rid, (t, v) in self.router_series.items()
            },
            "policy_stats": json_safe(self.policy_stats),
            "accepted_ratio": self.accepted_ratio,
            "seeds": self.seeds,
            "global_latency_ci": (
                None if self.global_latency_ci is None
                else {
                    "mean": self.global_latency_ci.mean,
                    "half_width": self.global_latency_ci.half_width,
                    "samples": self.global_latency_ci.samples,
                }
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolicyRun":
        ci = data.get("global_latency_ci")
        return cls(
            policy_name=str(data["policy_name"]),
            global_latency_s=float(data["global_latency_s"]),
            mean_latency_s=float(data["mean_latency_s"]),
            p99_latency_s=float(data["p99_latency_s"]),
            execution_time_s=float(data["execution_time_s"]),
            contention_map={int(k): float(v) for k, v in data["contention_map"].items()},
            latency_series=(
                np.asarray(data["latency_series"][0], dtype=float),
                np.asarray(data["latency_series"][1], dtype=float),
            ),
            router_series={
                int(rid): (
                    np.asarray(series[0], dtype=float),
                    np.asarray(series[1], dtype=float),
                )
                for rid, series in data["router_series"].items()
            },
            policy_stats=dict(data["policy_stats"]),
            accepted_ratio=float(data["accepted_ratio"]),
            seeds=int(data.get("seeds", 1)),
            global_latency_ci=(
                None if ci is None
                else ConfidenceInterval(
                    mean=float(ci["mean"]),
                    half_width=float(ci["half_width"]),
                    samples=int(ci["samples"]),
                )
            ),
        )


def improvement(baseline: float, value: float) -> float:
    """Relative reduction of ``value`` vs ``baseline`` (0.2 = 20 % better)."""
    if baseline <= 0:
        return 0.0
    return (baseline - value) / baseline


def _average_runs(runs: list[PolicyRun]) -> PolicyRun:
    """Average per-seed runs (§4.3: repeated simulations, averaged)."""
    first = runs[0]
    if len(runs) == 1:
        return first
    maps: dict[int, list[float]] = {}
    for r in runs:
        for k, v in r.contention_map.items():
            maps.setdefault(k, []).append(v)
    ci = confidence_interval([r.global_latency_s for r in runs])
    return PolicyRun(
        policy_name=first.policy_name,
        global_latency_s=float(np.mean([r.global_latency_s for r in runs])),
        mean_latency_s=float(np.mean([r.mean_latency_s for r in runs])),
        p99_latency_s=float(np.mean([r.p99_latency_s for r in runs])),
        execution_time_s=float(np.mean([r.execution_time_s for r in runs])),
        contention_map={k: float(np.mean(v)) for k, v in maps.items()},
        latency_series=first.latency_series,
        router_series=first.router_series,
        policy_stats=first.policy_stats,
        accepted_ratio=float(np.mean([r.accepted_ratio for r in runs])),
        seeds=len(runs),
        global_latency_ci=ci,
    )


def _policy_sweep(
    kind: str, topology: str, policies: Sequence[str], seeds: Sequence[int],
    executor, tracer, metrics, metrics_cadence_s, config, **params,
) -> dict[str, PolicyRun]:
    """Run the policy x seed grid, one ``kind`` task cell per (policy, seed).

    A cell is the same :func:`repro.scenario.task_scenario` preset
    whether it runs here or on ``executor`` (a
    :class:`repro.parallel.SweepExecutor`), so per-cell results — and
    therefore the seed averages — are bit-identical either way.
    """
    if metrics is not None and executor is not None:
        raise ValueError(
            "metrics registries cannot cross the process boundary; "
            "drop executor= or attach metrics via the sweep's metrics_hook"
        )
    params["config"] = None if config is None else asdict(config)
    cells = [
        {**params, "topology": topology, "policy": name, "seed": seed}
        for name in policies
        for seed in seeds
    ]
    if executor is not None and len(cells) > 1:
        from repro.parallel.tasks import SimTask

        payloads = executor.run_strict(
            [SimTask(kind, cell, f"{kind}:{cell['policy']}/seed{cell['seed']}") for cell in cells]
        )
        runs = [PolicyRun.from_dict(payload) for payload in payloads]
    else:
        runs = []
        for cell in cells:
            context = build(
                task_scenario(kind, cell), digest=False,
                tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
            )
            context.run()
            runs.append(PolicyRun.from_context(context, context.spec.stop()))
    per_policy = len(seeds)
    return {
        name: _average_runs(runs[index * per_policy:(index + 1) * per_policy])
        for index, name in enumerate(policies)
    }


def run_pattern_workload(
    topology: str,
    policies: Sequence[str],
    pattern: str,
    rate_mbps: float,
    hosts: Optional[Sequence[int]] = None,
    schedule: Optional[BurstSchedule] = None,
    duration_s: float = 1e-3,
    drain_s: float = 1e-3,
    seeds: Sequence[int] = (0,),
    config: Optional[NetworkConfig] = None,
    notification: str = DESTINATION_BASED,
    window_s: float = 50e-6,
    track_routers: bool = False,
    idle_rate_mbps: float = 0.0,
    executor=None,
    tracer=None,
    metrics=None,
    metrics_cadence_s=None,
) -> dict[str, PolicyRun]:
    """Permutation-traffic comparison (§4.6.3, Table 4.3 runs).

    ``policies`` are policy spec strings (``"pr-drb:max_paths=4"``).
    ``executor`` (a :class:`repro.parallel.SweepExecutor`) fans the
    policy x seed grid out to worker processes; results are bit-identical
    to the serial loop.  ``topology`` is a spec string like
    ``"fattree:4,3"`` (:func:`repro.parallel.tasks.make_topology`).

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) is wired
    into every serial cell via :func:`repro.obs.instrument`; with
    ``metrics_cadence_s`` it also snapshots on that sim-time cadence.
    Registries hold live callables, so they are serial-only: combining
    ``metrics`` with ``executor`` raises.
    """
    return _policy_sweep(
        "pattern", topology, policies, seeds,
        executor, tracer, metrics, metrics_cadence_s, config,
        pattern=pattern, rate_mbps=rate_mbps,
        hosts=None if hosts is None else [int(h) for h in hosts],
        schedule=None if schedule is None else asdict(schedule),
        duration_s=duration_s, drain_s=drain_s, notification=notification,
        window_s=window_s, track_routers=track_routers, idle_rate_mbps=idle_rate_mbps,
    )


def run_hotspot_workload(
    topology: str,
    policies: Sequence[str],
    flows: Sequence[tuple[int, int]],
    rate_mbps: float,
    schedule: BurstSchedule,
    noise_rate_mbps: float = 0.0,
    idle_rate_mbps: float = 0.0,
    drain_s: float = 1e-3,
    seeds: Sequence[int] = (0,),
    config: Optional[NetworkConfig] = None,
    notification: str = DESTINATION_BASED,
    window_s: float = 50e-6,
    track_routers: bool = False,
    executor=None,
    tracer=None,
    metrics=None,
    metrics_cadence_s=None,
) -> dict[str, PolicyRun]:
    """Hot-spot specific-pattern comparison (§4.5, §4.6.2).

    ``policies``, ``executor`` and ``metrics`` / ``metrics_cadence_s``
    behave as in :func:`run_pattern_workload`.
    """
    if schedule.end_time() is None:
        raise ValueError("hot-spot schedule must be bounded (set repetitions)")
    return _policy_sweep(
        "hotspot", topology, policies, seeds,
        executor, tracer, metrics, metrics_cadence_s, config,
        flows=[[int(s), int(d)] for s, d in flows], rate_mbps=rate_mbps,
        schedule=asdict(schedule), noise_rate_mbps=noise_rate_mbps,
        idle_rate_mbps=idle_rate_mbps, drain_s=drain_s, notification=notification,
        window_s=window_s, track_routers=track_routers,
    )


def run_app_workload(
    topology: str,
    policies: Sequence[str],
    trace_factory: Callable[..., "object"],
    trace_kwargs: Optional[dict] = None,
    seeds: Sequence[int] = (0,),
    config: Optional[NetworkConfig] = None,
    notification: str = DESTINATION_BASED,
    window_s: float = 100e-6,
    track_routers: bool = False,
    timeout_s: float = 30.0,
) -> dict[str, PolicyRun]:
    """Application-trace comparison (§4.8): latency + execution time."""
    results: dict[str, PolicyRun] = {}
    trace_kwargs = dict(trace_kwargs or {})
    for name in policies:
        runs = []
        for seed in seeds:
            spec = Scenario(
                topology, name, seed, routing_rng="default", notification=notification,
                config=None if config is None else asdict(config), window_s=window_s,
                track_routers=track_routers, schedule=None, drain_s=None,
            )
            context = build(spec, digest=False)
            kwargs = dict(trace_kwargs)
            if "seed" in inspect.signature(trace_factory).parameters:
                kwargs.setdefault("seed", seed)
            trace = trace_factory(**kwargs)
            runtime = TraceRuntime(context.fabric, trace)
            exec_time = runtime.run(timeout_s=timeout_s)
            runs.append(PolicyRun.from_context(context, exec_time))
        results[name] = _average_runs(runs)
    return results
