"""Kill-and-resume sweep tests (docs/checkpoint.md).

The acceptance bar for crash-safe sweeps is bit-identity: a cell whose
worker is SIGTERM'd (or SIGKILL'd after a periodic checkpoint) must,
once resumed, produce exactly the digests an uninterrupted run produces.
These tests exercise the whole path — worker SIGTERM handling and exit
code 75, checkpoint parking in the cache directory, orchestrator
``resume=True`` pickup — plus the manifest merge that keeps concurrent
sweeps from clobbering each other's ledger.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.replay import run_scenario
from repro.checkpoint.runner import save_scenario_checkpoint
from repro.parallel.cache import ResultCache, _merge_manifests
from repro.parallel.orchestrator import SweepConfig, run_sweep
from repro.parallel.tasks import SimTask, code_version, task_key
from repro.parallel.worker import CHECKPOINTED_EXIT, TASK_KINDS, execute_task
from repro.scenario import KINDS, build_task

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: one mid-size pr-drb cell: long enough that a periodic checkpoint (at
#: the shortened REPRO_CHECKPOINT_EVERY below) lands well before the end.
PARAMS = {"policy": "pr-drb", "seed": 0, "mesh_side": 6, "repetitions": 40}

#: the same idea for an experiment-runner hot-spot cell.
HOTSPOT_PARAMS = {
    "topology": "mesh:6", "policy": "pr-drb", "seed": 0,
    "flows": [[0, 31], [6, 31], [1, 35]], "rate_mbps": 1200,
    "schedule": {"on_s": 1.5e-4, "off_s": 1.5e-4, "start_s": 0.0, "repetitions": 40},
    "noise_rate_mbps": 30, "idle_rate_mbps": 200, "drain_s": 4e-4,
    "notification": "router",
}

CELLS = {"replay": PARAMS, "hotspot": HOTSPOT_PARAMS}


@pytest.fixture(scope="module")
def reference():
    """Digests of the uninterrupted run every resume must reproduce."""
    return run_scenario(**PARAMS).to_dict()


#: the line a reporting child writes to stdout after each checkpoint save.
SAVED = "checkpoint saved"


def _child_source(ckpt: str, kind: str, report: bool) -> str:
    return textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {REPO_SRC!r})
        import repro.checkpoint
        from repro.parallel.tasks import SimTask
        from repro.parallel.worker import execute_task
        if {report!r}:
            save = repro.checkpoint.save_scenario_checkpoint

            def save_and_report(*args, **kwargs):
                save(*args, **kwargs)
                print({SAVED!r}, flush=True)

            repro.checkpoint.save_scenario_checkpoint = save_and_report
        task = SimTask(kind={kind!r}, params={CELLS[kind]!r}, label="resume-test")
        result = execute_task(task, checkpoint_path={ckpt!r})
        print(json.dumps(result))
        """
    )


def _run_child(ckpt: str, *, interrupt: bool, kind: str = "replay") -> subprocess.Popen:
    """Start a worker child; with ``interrupt``, SIGTERM it once it has
    reported its first periodic checkpoint on stdout."""
    env = dict(os.environ, REPRO_CHECKPOINT_EVERY="500", PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", _child_source(ckpt, kind, report=interrupt)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    if interrupt:
        # Blocks until the first save is on disk; EOF means the child
        # exited first.
        if proc.stdout.readline().strip() != SAVED:
            proc.wait(timeout=60)
            pytest.fail("the cell ran to completion without a periodic checkpoint")
        proc.send_signal(signal.SIGTERM)
    return proc


@pytest.mark.parametrize("kind", ("replay", "hotspot"))
def test_sigterm_parks_checkpoint_and_resume_is_bit_identical(tmp_path, kind):
    reference = execute_task(SimTask(kind=kind, params=CELLS[kind]))
    ckpt = str(tmp_path / "cell.ckpt")
    proc = _run_child(ckpt, interrupt=True, kind=kind)
    proc.wait(timeout=60)
    assert proc.returncode == CHECKPOINTED_EXIT
    assert os.path.exists(ckpt), "interrupted worker left no checkpoint"

    resumed = _run_child(ckpt, interrupt=False, kind=kind)
    out, _ = resumed.communicate(timeout=300)
    assert resumed.returncode == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result == reference
    assert not os.path.exists(ckpt), "checkpoint must be removed on success"


def test_orchestrator_resumes_parked_checkpoint(tmp_path, reference):
    """A sweep with ``resume=True`` finishes a cell from its checkpoint."""
    task = SimTask(kind="replay", params=dict(PARAMS), label="resume-test")
    cache = ResultCache(tmp_path / "cache")
    key = task_key(task, code_version())

    # Park a mid-run checkpoint exactly where an interrupted worker would.
    context = build_task(task.kind, task.params)
    context.sim.run(until=context.until / 2)
    ckpt = cache.checkpoint_path_for(key)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_scenario_checkpoint(context, ckpt, meta={"task": task.to_dict()})
    assert ckpt.exists()

    config = SweepConfig(workers=1, cache_dir=str(cache.root), resume=True)
    report = run_sweep([task], config)
    assert report.all_ok
    assert report.resumed == 1
    assert report.results[0] == reference
    assert not ckpt.exists(), "orchestrated resume must clean up the checkpoint"


def test_resume_flag_off_ignores_checkpoints(tmp_path, reference):
    """Without ``resume=True`` nothing writes or reads checkpoints."""
    task = SimTask(kind="replay", params=dict(PARAMS), label="resume-test")
    cache_dir = tmp_path / "cache"
    report = run_sweep([task], SweepConfig(workers=1, cache_dir=str(cache_dir)))
    assert report.all_ok
    assert report.resumed == 0
    assert report.results[0] == reference
    cache = ResultCache(cache_dir)
    assert not cache.checkpoint_path_for(task_key(task, code_version())).exists()


def test_resumable_kinds_and_exit_code_are_stable():
    # The orchestrator and CI scripts key off these values; changing them
    # silently would strand old checkpoints.
    assert CHECKPOINTED_EXIT == 75  # EX_TEMPFAIL: retriable by design
    # Every simulation kind builds through repro.scenario, so every one
    # of them resumes; only the selftest double does not.
    assert set(KINDS) == {"replay", "fault", "hotspot", "pattern"}
    assert set(TASK_KINDS) == set(KINDS) | {"selftest"}


def test_corrupt_checkpoint_falls_back_to_fresh_run(tmp_path, reference):
    ckpt = tmp_path / "cell.ckpt"
    ckpt.write_bytes(b"RPRCKPT1garbage-that-is-not-a-checkpoint")
    task = SimTask(kind="replay", params=dict(PARAMS), label="resume-test")
    result = execute_task(task, checkpoint_path=str(ckpt))
    assert result == reference
    assert not ckpt.exists()


# ----------------------------------------------------------------------
# Manifest merge: concurrent sweeps sharing one cache directory
# ----------------------------------------------------------------------
def _manifest(outcomes, failures=(), cache_hits=0):
    executed = sum(1 for o in outcomes if o.get("status") == "ok")
    return {
        "outcomes": list(outcomes),
        "failures": list(failures),
        "executed": executed,
        "cache_hits": cache_hits,
        "all_ok": all(o.get("status") != "failed" for o in outcomes),
        "workers": 1,
    }


def test_merge_unions_disjoint_outcomes():
    left = _manifest([{"key": "a", "status": "ok"}])
    right = _manifest([{"key": "b", "status": "ok"}])
    merged = _merge_manifests(left, right)
    assert {o["key"] for o in merged["outcomes"]} == {"a", "b"}
    assert merged["executed"] == 2
    assert merged["all_ok"] is True


def test_merge_newest_outcome_wins_and_drops_stale_failures():
    left = _manifest(
        [{"key": "a", "status": "failed"}],
        failures=[{"key": "a", "reason": "worker-crash"}],
    )
    right = _manifest([{"key": "a", "status": "ok"}])
    merged = _merge_manifests(left, right)
    assert merged["outcomes"] == [{"key": "a", "status": "ok"}]
    assert merged["failures"] == []
    assert merged["all_ok"] is True


def test_merge_passes_through_without_outcomes():
    new = {"note": "no outcomes key"}
    assert _merge_manifests({"outcomes": []}, new) == new
    assert _merge_manifests(None, new) == new


def test_concurrent_manifest_writes_do_not_clobber(tmp_path):
    """Two sweeps sharing a cache dir must union, not last-writer-wins."""
    cache = ResultCache(tmp_path / "cache")
    cache.write_manifest(_manifest([{"key": "sweep1", "status": "ok"}]))
    cache.write_manifest(_manifest([{"key": "sweep2", "status": "ok"}]))
    manifest = cache.read_manifest()
    assert {o["key"] for o in manifest["outcomes"]} == {"sweep1", "sweep2"}
    assert manifest["executed"] == 2


def test_concurrent_manifest_writes_from_processes(tmp_path):
    """N processes append disjoint outcomes under the advisory lock."""
    cache_dir = tmp_path / "cache"
    ResultCache(cache_dir)  # create root
    writer = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {REPO_SRC!r})
        from repro.parallel.cache import ResultCache
        which = sys.argv[1]
        cache = ResultCache({str(cache_dir)!r})
        cache.write_manifest({{
            "outcomes": [{{"key": "proc-" + which, "status": "ok"}}],
            "failures": [], "executed": 1, "cache_hits": 0, "all_ok": True,
        }})
        """
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", writer, str(i)])
        for i in range(4)
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    manifest = ResultCache(cache_dir).read_manifest()
    assert {o["key"] for o in manifest["outcomes"]} == {
        f"proc-{i}" for i in range(4)
    }
    assert manifest["executed"] == 4
