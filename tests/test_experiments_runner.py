"""Tests for the policy-comparison runner."""

import functools

import numpy as np
import pytest

from repro.apps.sweep3d import sweep3d_trace
from repro.experiments.runner import (
    PolicyRun,
    _average_runs,
    improvement,
    run_app_workload,
    run_hotspot_workload,
    run_pattern_workload,
)
from repro.traffic.bursty import BurstSchedule


def test_improvement_signs():
    assert improvement(10.0, 8.0) == pytest.approx(0.2)
    assert improvement(10.0, 12.0) == pytest.approx(-0.2)
    assert improvement(0.0, 5.0) == 0.0


def _dummy_run(name="x", glob=1.0, cmap=None):
    return PolicyRun(
        policy_name=name,
        global_latency_s=glob,
        mean_latency_s=glob,
        p99_latency_s=glob * 2,
        execution_time_s=glob * 3,
        contention_map=cmap or {},
        latency_series=(np.array([]), np.array([])),
        router_series={},
        policy_stats={"policy": name},
        accepted_ratio=1.0,
    )


def test_average_runs_means_fields():
    a = _dummy_run(glob=1.0, cmap={1: 2.0})
    b = _dummy_run(glob=3.0, cmap={1: 4.0, 2: 6.0})
    avg = _average_runs([a, b])
    assert avg.global_latency_s == pytest.approx(2.0)
    assert avg.contention_map[1] == pytest.approx(3.0)
    assert avg.contention_map[2] == pytest.approx(6.0)
    assert avg.seeds == 2


def test_average_single_run_passthrough():
    a = _dummy_run()
    assert _average_runs([a]) is a


def test_policy_run_row_and_peaks():
    r = _dummy_run(cmap={1: 5e-6, 2: 2e-6})
    assert r.map_peak_s == 5e-6
    assert r.map_mean_s == pytest.approx(3.5e-6)
    row = r.row()
    assert row["policy"] == "x"
    assert row["accepted"] == 1.0


def test_run_pattern_workload_compares_policies():
    sched = BurstSchedule(on_s=1e-4, off_s=1e-4, repetitions=2)
    runs = run_pattern_workload(
        "mesh:4",
        ["deterministic", "drb"],
        "bit-reversal",
        rate_mbps=400,
        schedule=sched,
        drain_s=5e-4,
    )
    assert set(runs) == {"deterministic", "drb"}
    for r in runs.values():
        assert r.accepted_ratio == 1.0
        assert r.mean_latency_s > 0


def test_run_pattern_workload_multi_seed_averages():
    sched = BurstSchedule(on_s=1e-4, off_s=0.0, repetitions=1)
    runs = run_pattern_workload(
        "mesh:4",
        ["deterministic"],
        "uniform",
        rate_mbps=200,
        schedule=sched,
        seeds=(0, 1, 2),
        drain_s=5e-4,
    )
    assert runs["deterministic"].seeds == 3


def test_run_hotspot_workload_requires_bounded_schedule():
    with pytest.raises(ValueError):
        run_hotspot_workload(
            "mesh:4",
            ["deterministic"],
            [(0, 15)],
            rate_mbps=400,
            schedule=BurstSchedule(on_s=1e-4, off_s=1e-4),  # unbounded
        )


def test_run_hotspot_workload_produces_contention():
    sched = BurstSchedule(on_s=2e-4, off_s=1e-4, repetitions=2)
    runs = run_hotspot_workload(
        "mesh:4",
        ["deterministic"],
        [(0, 15), (3, 11)],
        rate_mbps=1500,
        schedule=sched,
        drain_s=1e-3,
    )
    assert runs["deterministic"].map_peak_s > 0


def test_run_app_workload_reports_execution_time():
    runs = run_app_workload(
        "mesh:4",
        ["deterministic", "drb"],
        sweep3d_trace,
        trace_kwargs={"num_ranks": 16, "iterations": 1},
    )
    for r in runs.values():
        assert r.execution_time_s > 0
        assert r.accepted_ratio == 1.0


def test_run_app_workload_accepts_a_partial_factory():
    """Any callable is a trace factory, not only a plain function."""
    factory = functools.partial(sweep3d_trace, num_ranks=16, iterations=1)
    partial_runs = run_app_workload("mesh:4", ["drb"], factory)
    direct_runs = run_app_workload(
        "mesh:4", ["drb"], sweep3d_trace,
        trace_kwargs={"num_ranks": 16, "iterations": 1},
    )
    assert partial_runs["drb"].execution_time_s > 0
    assert partial_runs["drb"].execution_time_s == direct_runs["drb"].execution_time_s
