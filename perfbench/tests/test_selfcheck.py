"""Self-check of the benchmark: every declared metric is emitted, with its
unit, and a wrong expected digest is a counted failure.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each workload runs once, in its tiny size.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, sims  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(workload: str, trace: bool, tmp_path: Path) -> dict:
    return run.run_workload(
        workload, seed=0, seconds=0.1, trace=trace, tiny=True,
        scratch=tmp_path / "scratch", out_dir=tmp_path / "out",
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted[metric["name"]]["value"], float | int)
    if not trace:
        assert all(value["value"] > 0 for value in emitted.values()), emitted


@pytest.mark.parametrize("workload", run.SIM_WORKLOADS)
def test_wrong_expected_digest_is_a_counted_failure(workload, tmp_path, monkeypatch):
    recorded = sims.load_expected(workload, 0, tiny=True)
    wrong = dict(recorded, metrics="0" * 64)
    monkeypatch.setattr(sims, "load_expected", lambda *args: wrong)
    result = _run(workload, False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_traced_run_matches_the_recorded_event_trace(tmp_path, monkeypatch):
    recorded = sims.load_expected("hotspot-mesh8", 0, tiny=True)
    wrong = dict(recorded, trace="0" * 64)
    monkeypatch.setattr(sims, "load_expected", lambda *args: wrong)
    result = _run("hotspot-mesh8", True, tmp_path)
    assert result["correct"] is False and result["failed"] >= 1
