"""Tests for the §4.3 statistical-validity helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.experiments.stats import (
    ConfidenceInterval,
    confidence_interval,
    required_repetitions,
    t_critical_95,
)


def test_t_table_known_values():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(9) == pytest.approx(2.262)
    assert t_critical_95(29) == pytest.approx(2.045)
    assert t_critical_95(1000) == pytest.approx(1.960)
    # Gaps in the table fall back to the nearest smaller dof (conservative
    # would be larger t; nearest-smaller is what's documented).
    assert t_critical_95(22) == t_critical_95(20)
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_single_sample_zero_width():
    ci = confidence_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0
    assert ci.contains(5.0)
    assert not ci.contains(5.1)


def test_identical_samples_zero_width():
    ci = confidence_interval([2.0, 2.0, 2.0])
    assert ci.half_width == 0.0


def test_interval_matches_manual_computation():
    samples = [10.0, 12.0, 14.0]
    ci = confidence_interval(samples)
    sem = np.std(samples, ddof=1) / np.sqrt(3)
    assert ci.mean == pytest.approx(12.0)
    assert ci.half_width == pytest.approx(4.303 * sem)
    assert ci.low < 12.0 < ci.high


def test_empty_rejected():
    with pytest.raises(ValueError):
        confidence_interval([])


def test_overlap_semantics():
    a = ConfidenceInterval(mean=10.0, half_width=1.0, samples=3)
    b = ConfidenceInterval(mean=11.5, half_width=1.0, samples=3)
    c = ConfidenceInterval(mean=20.0, half_width=1.0, samples=3)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)
    assert a.overlaps(a)


@given(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=20))
def test_mean_always_inside_interval(samples):
    ci = confidence_interval(samples)
    assert ci.contains(ci.mean)
    assert ci.low <= ci.high


def test_required_repetitions_scales_with_noise():
    tight = required_repetitions([10.0, 10.1, 9.9], 0.05)
    noisy = required_repetitions([10.0, 14.0, 6.0], 0.05)
    assert noisy > tight
    assert tight >= 3  # never fewer than the pilot


def test_required_repetitions_degenerate_cases():
    assert required_repetitions([5.0]) == 1
    assert required_repetitions([5.0, 5.0]) == 2  # zero variance


def test_runner_attaches_ci_for_multi_seed():
    from repro.experiments.runner import run_pattern_workload
    from repro.traffic.bursty import BurstSchedule

    runs = run_pattern_workload(
        "mesh:4", ["deterministic"], "uniform", 200,
        schedule=BurstSchedule(on_s=1e-4, off_s=0, repetitions=1),
        seeds=(0, 1, 2),
    )
    ci = runs["deterministic"].global_latency_ci
    assert ci is not None and ci.samples == 3
    assert ci.contains(runs["deterministic"].global_latency_s)
