"""Interrupt-anywhere: snapshot mid-run, restore, finish bit-identically.

Per policy and scenario kind: run an uninterrupted reference, then run a
second instance to a mid-point, checkpoint it to disk, restore (into a
context whose process-global packet-id counter has been perturbed, as a
fresh process would present), run to the end, and require the digests to
match byte for byte.  The exhaustive fresh-process variant is
``python -m repro.checkpoint verify`` (a CI step); here one cell runs
through the CLI end-to-end as a smoke.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint.runner import (
    code_version,
    load_scenario_checkpoint,
    save_scenario_checkpoint,
)
from repro.scenario import KINDS, build_task, finish

REPO_ROOT = Path(__file__).resolve().parent.parent

POLICIES = ("deterministic", "drb", "fr-drb", "pr-drb")


def _params(policy, kind="replay"):
    if kind in ("replay", "fault"):
        return {"policy": policy, "seed": 0, "mesh_side": 4, "repetitions": 3}
    common = {
        "topology": "mesh:4", "policy": policy, "seed": 0, "rate_mbps": 1200,
        "schedule": {"on_s": 1.5e-4, "off_s": 1.5e-4, "repetitions": 3},
        "idle_rate_mbps": 200, "drain_s": 4e-4, "track_routers": True,
    }
    if kind == "hotspot":
        return {**common, "flows": [[0, 13], [4, 13], [1, 15]], "noise_rate_mbps": 30}
    return {**common, "pattern": "uniform"}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_interrupt_anywhere_bit_identical(tmp_path, kind, policy):
    params = _params(policy, kind)
    reference_context = build_task(kind, params)
    reference_context.sim.run(until=reference_context.until)
    reference = finish(reference_context)

    interrupted = build_task(kind, params)
    interrupted.sim.run(until=interrupted.until / 2)
    ckpt = tmp_path / "mid.ckpt"
    header = save_scenario_checkpoint(interrupted, ckpt, meta={"policy": policy})
    assert header.kind == kind
    assert header.code_version == code_version()
    assert header.events_executed == interrupted.sim.events_executed

    loaded_header, resumed = load_scenario_checkpoint(ckpt)
    assert loaded_header == header
    resumed.sim.run(until=resumed.until)
    assert finish(resumed) == reference


def test_scenario_kinds_are_the_resumable_set():
    # Every simulation task kind builds through the one scenario
    # builder, so every one of them checkpoints and resumes.
    from repro.parallel.worker import TASK_KINDS

    assert set(KINDS) == set(TASK_KINDS) - {"selftest"}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        build_task("mystery", {})


def test_restore_is_oblivious_to_global_pid_counter(tmp_path):
    """A fresh process starts its packet-id counter at zero; a long-lived
    one has it far advanced.  Restore must pin it from the checkpoint so
    both resume identically."""
    from repro.network.packet import pid_counter_value, set_pid_counter

    params = _params("pr-drb")
    context = build_task("replay", params)
    context.sim.run(until=context.until / 2)
    ckpt = tmp_path / "mid.ckpt"
    save_scenario_checkpoint(context, ckpt)
    saved_counter = pid_counter_value()

    set_pid_counter(saved_counter + 100_000)  # simulate a dirty process
    _header, resumed = load_scenario_checkpoint(ckpt)
    assert pid_counter_value() == saved_counter
    resumed.sim.run(until=resumed.until)

    reference_context = build_task("replay", params)
    reference_context.sim.run(until=reference_context.until)
    assert finish(resumed) == finish(reference_context)


def test_cli_save_info_restore_roundtrip(tmp_path):
    """One cell through the actual CLI in fresh processes."""
    import os

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env_cmd = [sys.executable, "-m", "repro.checkpoint"]
    ckpt = tmp_path / "cli.ckpt"
    common = ["--policy", "pr-drb", "--mesh-side", "4", "--repetitions", "2"]

    save = subprocess.run(
        env_cmd + ["save", "--fraction", "0.5"] + common + [str(ckpt)],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert save.returncode == 0, save.stderr
    assert json.loads(save.stdout)["kind"] == "replay"

    info = subprocess.run(
        env_cmd + ["info", str(ckpt)], capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert info.returncode == 0, info.stderr
    assert json.loads(info.stdout)["code_version"] == code_version()

    restore = subprocess.run(
        env_cmd + ["restore", str(ckpt), "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert restore.returncode == 0, restore.stderr
    resumed = json.loads(restore.stdout)

    reference_context = build_task("replay", {"policy": "pr-drb", "seed": 0,
                                                 "mesh_side": 4, "repetitions": 2})
    reference_context.sim.run(until=reference_context.until)
    assert resumed == finish(reference_context)
