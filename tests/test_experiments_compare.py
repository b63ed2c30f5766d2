"""Tests for the significance-aware policy comparison."""

import numpy as np
import pytest

from repro.experiments.compare import best_policy, compare_policies
from repro.experiments.runner import PolicyRun
from repro.experiments.stats import ConfidenceInterval


def run_of(name, latency, ci=None):
    return PolicyRun(
        policy_name=name,
        global_latency_s=latency,
        mean_latency_s=latency,
        p99_latency_s=latency * 2,
        execution_time_s=latency,
        contention_map={},
        latency_series=(np.array([]), np.array([])),
        router_series={},
        policy_stats={},
        accepted_ratio=1.0,
        global_latency_ci=ci,
    )


def test_ranked_by_latency():
    runs = {
        "deterministic": run_of("deterministic", 100e-6),
        "drb": run_of("drb", 50e-6),
        "pr-drb": run_of("pr-drb", 40e-6),
    }
    ranked = compare_policies(runs, baseline="deterministic")
    assert [c.policy for c in ranked] == ["pr-drb", "drb"]
    assert ranked[0].gain == pytest.approx(0.6)
    assert ranked[0].significant is None  # no CIs


def test_significance_from_cis():
    tight_a = ConfidenceInterval(mean=100e-6, half_width=1e-6, samples=5)
    tight_b = ConfidenceInterval(mean=50e-6, half_width=1e-6, samples=5)
    wide = ConfidenceInterval(mean=95e-6, half_width=50e-6, samples=2)
    runs = {
        "base": run_of("base", 100e-6, tight_a),
        "clear": run_of("clear", 50e-6, tight_b),
        "noisy": run_of("noisy", 95e-6, wide),
    }
    ranked = compare_policies(runs, baseline="base")
    by_name = {c.policy: c for c in ranked}
    assert by_name["clear"].significant is True
    assert by_name["noisy"].significant is False


def test_row_rendering():
    runs = {
        "base": run_of("base", 100e-6),
        "fast": run_of("fast", 75e-6),
    }
    row = compare_policies(runs, baseline="base")[0].row()
    assert row["policy"] == "fast"
    assert row["gain_vs_base"] == "+25.0%"
    assert row["significant"] == "n/a"


def test_best_policy():
    runs = {
        "a": run_of("a", 3.0),
        "b": run_of("b", 1.0),
        "c": run_of("c", 2.0),
    }
    assert best_policy(runs) == "b"
    with pytest.raises(ValueError):
        best_policy({})


def test_missing_baseline_raises():
    with pytest.raises(KeyError):
        compare_policies({"a": run_of("a", 1.0)}, baseline="zzz")


def test_end_to_end_with_runner():
    from repro.experiments.runner import run_hotspot_workload
    from repro.traffic.bursty import BurstSchedule

    runs = run_hotspot_workload(
        "mesh:4",
        ["deterministic", "drb"],
        [(0, 15), (3, 11)],
        rate_mbps=1500,
        schedule=BurstSchedule(on_s=2e-4, off_s=1e-4, repetitions=2),
        seeds=(0, 1),
        drain_s=1e-3,
    )
    ranked = compare_policies(runs, baseline="deterministic")
    assert ranked[0].policy == "drb"
    assert ranked[0].significant in (True, False)  # CIs exist with 2 seeds
