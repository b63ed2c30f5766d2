"""Tests for the replay digest gate (``repro.perf``).

The acceptance rule for every hot-path optimization in this repo is
bit-identical replay: these tests pin the committed baseline digests to
the current simulation behavior, so any drift fails tier-1.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.replay import run_scenario
from repro.perf import (
    BASELINE_PATH,
    DEFAULT_POLICIES,
    check_digests,
    load_baseline,
    main,
    run_pinned_workload,
)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return load_baseline()


def test_committed_baseline_shape(baseline):
    assert BASELINE_PATH.exists()
    assert set(baseline["digests"]) == set(DEFAULT_POLICIES)
    for policy, entry in baseline["digests"].items():
        assert len(entry["events"]) == 64, policy
        assert len(entry["metrics"]) == 64, policy
    assert set(baseline) == {"digests", "scenario"}
    assert baseline["scenario"] == {"seed": 0, "mesh_side": 4, "repetitions": 3}


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_replay_digests_bit_identical_to_baseline(baseline, policy):
    """The optimized hot path replays bit-identically to the recorded
    pre-optimization behavior: event trace AND metrics digests match."""
    scenario = baseline["scenario"]
    run = run_scenario(
        seed=scenario["seed"],
        policy=policy,
        mesh_side=scenario["mesh_side"],
        repetitions=scenario["repetitions"],
    )
    expected = baseline["digests"][policy]
    assert run.events == expected["events"]
    assert run.metrics == expected["metrics"]
    assert run.events_executed == expected["events_executed"]
    assert run.packets_delivered == expected["packets_delivered"]


def test_check_digests_flags_drift(baseline):
    tampered = copy.deepcopy(baseline)
    tampered["digests"]["drb"]["events"] = "0" * 64
    results = check_digests(["drb"], tampered)
    assert not results["drb"]["ok"]
    assert results["drb"]["expected"]["events"] == "0" * 64


def test_check_digests_unknown_policy_fails_closed(baseline):
    tampered = copy.deepcopy(baseline)
    del tampered["digests"]["drb"]
    results = check_digests(["drb"], tampered)
    assert not results["drb"]["ok"]
    assert results["drb"]["expected"] is None


def test_pinned_workload_is_deterministic():
    """Two runs of the pinned hot-spot workload execute the same events."""
    assert run_pinned_workload("deterministic", 5_000) == run_pinned_workload(
        "deterministic", 5_000
    )


def test_cli_pass_exits_zero(capsys):
    assert main(["--policies", "deterministic"]) == 0
    assert "[ok ] deterministic" in capsys.readouterr().out


def test_cli_digest_mismatch_exits_nonzero(tmp_path, baseline, capsys):
    bad = copy.deepcopy(baseline)
    bad["digests"]["deterministic"]["metrics"] = "f" * 64
    bad_path = tmp_path / "baseline.json"
    bad_path.write_text(json.dumps(bad))
    code = main(["--policies", "deterministic", "--baseline", str(bad_path)])
    assert code == 1
    assert "[FAIL] deterministic" in capsys.readouterr().out


def test_cli_update_baseline_rewrites_file(tmp_path, baseline):
    stale = copy.deepcopy(baseline)
    stale["digests"]["deterministic"]["events"] = "a" * 64
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(stale))
    code = main(
        ["--policies", "deterministic", "--baseline", str(path), "--update-baseline"]
    )
    assert code == 0
    updated = json.loads(path.read_text())
    # Re-recorded digest matches live behavior (== the committed one).
    assert updated["digests"]["deterministic"] == baseline["digests"]["deterministic"]
    # The scenario pin survives the rewrite unchanged.
    assert updated["scenario"] == baseline["scenario"]


def test_cli_update_baseline_keeps_other_policies(tmp_path, baseline):
    """Re-recording a subset merges into the file: the policies not run
    keep their digests, so the default all-policy gate still passes."""
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    code = main(["--policies", "drb", "--baseline", str(path), "--update-baseline"])
    assert code == 0
    assert json.loads(path.read_text()) == baseline
    assert main(["--baseline", str(path)]) == 0
