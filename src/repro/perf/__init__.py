"""Replay digest gate (``python -m repro.perf``).

The hot-path optimizations in :mod:`repro.sim.engine`,
:mod:`repro.network` and :mod:`repro.core` are only admissible if they
change *nothing* observable: the rule (docs/performance.md) is **no
optimization without a digest match**.  This harness enforces it: replay
the seeded :func:`repro.analysis.replay` scenario for every routing
policy and compare the event-trace and metrics digests against the
committed ``baseline.json``.  Any drift is a hard failure (exit code 1):
the "optimization" changed simulation behavior and must be fixed or the
baseline consciously re-recorded with ``--update-baseline``.

Host speed is not measured here; the ``perfbench/`` benchmark
(``BENCHMARK.json``) does that, A/B against the parent commit on one box.
The pinned hot-spot workloads below are shared with
``scripts/profile_sim.py``, ``python -m repro.obs`` and the tests.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.scenario import Scenario, build
from repro.traffic.bursty import BurstSchedule

__all__ = [
    "DEFAULT_POLICIES",
    "BASELINE_PATH",
    "PINNED_DRAGONFLY",
    "PINNED_MESH8",
    "load_baseline",
    "check_digests",
    "run_pinned_workload",
    "run_pinned_dragonfly_workload",
    "main",
]

#: Policies covered by the gate, in report order.
DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")

#: Committed baseline: the replay scenario and its per-policy digests.
BASELINE_PATH = Path(__file__).with_name("baseline.json")


def load_baseline(path: Optional[Path] = None) -> dict:
    """Load the committed (or an explicit) baseline JSON."""
    with open(path or BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Digest gate
# ----------------------------------------------------------------------
def check_digests(
    policies: Sequence[str], baseline: dict
) -> dict[str, dict]:
    """Replay the baseline scenario per policy; compare both digests.

    Returns ``{policy: {"ok": bool, "got": {...}, "expected": {...}}}``.
    A policy missing from the baseline is reported with ``ok=False`` so a
    newly added policy forces a conscious baseline update.
    """
    from repro.analysis.replay import run_scenario

    scenario = baseline["scenario"]
    results: dict[str, dict] = {}
    for policy in policies:
        run = run_scenario(
            seed=scenario["seed"],
            policy=policy,
            mesh_side=scenario["mesh_side"],
            repetitions=scenario["repetitions"],
        )
        got = {
            "events": run.events,
            "metrics": run.metrics,
            "events_executed": run.events_executed,
            "packets_delivered": run.packets_delivered,
        }
        expected = baseline["digests"].get(policy)
        ok = expected is not None and all(
            got[k] == expected[k] for k in got
        )
        results[policy] = {"ok": ok, "got": got, "expected": expected}
    return results


# ----------------------------------------------------------------------
# Pinned hot-spot workloads (shared with scripts/profile_sim.py)
# ----------------------------------------------------------------------
#: An 8x8 mesh with four colliding hot-spot flows under a repeated on/off
#: burst schedule — the congested steady state whose profile drove the
#: engine/network optimizations (docs/performance.md).
PINNED_MESH8 = Scenario(
    "mesh:8", routing_rng="default", notification="destination", window_s=None,
    schedule=BurstSchedule(on_s=3e-4, off_s=3e-4, repetitions=50),
    flows=((0, 37), (8, 45), (16, 53), (24, 61)),
    rate_bps=1.3e9, noise_rate_bps=0.0, idle_rate_bps=250e6, drain_s=None,
)

#: The adversarial dragonfly permutation behind the notified-routing
#: tests (``tests/test_routing_notified.py``): every host of group 0
#: sends to its mirror in group 1 on ``dragonfly:4,2,2``, so all eight
#: flows contend for the pair's single global link, plus uniform noise.
#: Any drift is a determinism bug, not a tunable.
PINNED_DRAGONFLY = Scenario(
    "dragonfly:4,2,2", window_s=None,
    schedule=BurstSchedule(on_s=3e-4, off_s=1e-4, repetitions=3),
    rate_bps=1.3e9, noise_rate_bps=30e6, idle_rate_bps=0.0, drain_s=8e-4,
)


def run_pinned_workload(
    policy: str, max_events: int, tracer=None, metrics=None,
    metrics_cadence_s: Optional[float] = None,
) -> int:
    """Run :data:`PINNED_MESH8` under ``policy``; return events executed.

    ``tracer``/``metrics`` (a :class:`repro.obs.tracer.Tracer` and
    :class:`repro.obs.metrics.MetricsRegistry`) instrument the run; both
    observe only, so the executed event stream is identical either way.
    """
    context = build(
        replace(PINNED_MESH8, policy=policy), digest=False,
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
    )
    context.run(max_events=max_events)
    return context.sim.events_executed


def run_pinned_dragonfly_workload(
    policy: str, max_events: Optional[int] = None, seed: int = 0,
) -> dict:
    """Run the pinned dragonfly group-pair hot-spot; return run counters."""
    context = build(replace(PINNED_DRAGONFLY, policy=policy, seed=seed))
    context.run(max_events=max_events)
    fabric = context.fabric
    return {
        "events_executed": context.sim.events_executed,
        "packets_injected": fabric.data_packets_injected,
        "packets_delivered": fabric.data_packets_delivered,
        "digest": context.trace.hexdigest(),
        "policy_stats": context.policy.stats(),
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="replay digest gate",
    )
    parser.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy list (default: all four)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline JSON (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the policies' digests into the baseline file "
        "(a conscious act: review the behavior change first)",
    )
    args = parser.parse_args(argv)

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    baseline = load_baseline(args.baseline)
    results = check_digests(policies, baseline)
    for policy, result in results.items():
        print(f"[{'ok ' if result['ok'] else 'FAIL'}] {policy}")

    if args.update_baseline:
        target = args.baseline or BASELINE_PATH
        digests = {p: r["got"] for p, r in results.items()}
        target.write_text(
            json.dumps({"digests": digests, "scenario": baseline["scenario"]},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {target}")
        return 0

    if not all(result["ok"] for result in results.values()):
        print(
            "digest mismatch: simulation behavior drifted from the "
            "committed baseline (see docs/performance.md)",
            file=sys.stderr,
        )
        return 1
    return 0
