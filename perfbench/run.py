"""Host-speed benchmark of the PR-DRB simulator.

Run from the repository root::

    python3 perfbench/run.py --workload hotspot-mesh8 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer ledger.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run exits 1 when any check failed and 2
when the program under test is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("hotspot-mesh8", "app-pop64", "served-sweep")
SIM_WORKLOADS = ("hotspot-mesh8", "app-pop64")
#: seeds whose digests ``expected.json`` records.
RECORDED_SEEDS = range(10)


def fingerprint(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    from repro.parallel.tasks import code_version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "code_version": code_version(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def _git_rev():
    """HEAD's commit id read from ``.git``; None outside a work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "work_per_ref":
        return "1/ref"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_values(tally, ops: int, wall_s: float, extra: dict) -> dict:
    """Per-operation values of every per-layer metric (0 where absent)."""
    from perfbench.ledger import layer_self_s

    events, calls = tally.events, tally.calls
    self_s, total_s = tally.self_s, tally.total_s
    layers = layer_self_s(self_s)

    def owned(prefix: str) -> int:
        return sum(n for name, n in events.items() if name.startswith(prefix))

    lookups = calls["core.lookup"]
    attributed = sum(self_s.values())
    values = {
        "sim.events": sum(events.values()),
        "sim.schedule_calls": calls["sim.schedule"],
        "sim.dispatch_self_s": self_s["sim.dispatch"],
        "sim.schedule_self_s": self_s["sim.schedule"],
        "network.hop_events": events["Fabric._arrive"],
        "network.hop_self_s": self_s["network.hop"],
        "network.forward_calls": calls["network.forward"],
        "network.forward_self_s": self_s["network.forward"],
        "network.deliver_events": events["Fabric._deliver"],
        "network.deliver_self_s": self_s["network.deliver"],
        "network.nic_receive_calls": calls["network.nic"],
        "network.nic_self_s": self_s["network.nic"],
        "network.self_s": layers.get("network", 0.0),
        "routing.select_path_calls": calls["routing.select_path"],
        "routing.select_path_self_s": self_s["routing.select_path"],
        "routing.on_ack_calls": calls["routing.on_ack"],
        "routing.on_ack_self_s": self_s["routing.on_ack"],
        "core.self_s": layers.get("core", 0.0),
        "core.solution_lookups": lookups,
        "traffic.inject_events": owned("HotSpotWorkload."),
        "traffic.self_s": layers.get("traffic", 0.0),
        "mpi.rank_events": owned("TraceRuntime."),
        "mpi.self_s": layers.get("mpi", 0.0),
        "metrics.recorder_self_s": self_s["metrics.recorder"],
        "obs.snapshots": calls["obs.snapshot"],
        "obs.snapshot_self_s": self_s["obs.snapshot"],
        "obs.publish_self_s": self_s["obs.publish"],
        "parallel.cache_gets": calls["parallel.cache_get"],
        "parallel.cache_get_s": total_s["parallel.cache_get"],
        "parallel.cache_puts": calls["parallel.cache_put"],
        "parallel.cache_put_s": total_s["parallel.cache_put"],
        "parallel.run_sweep_self_s": self_s["parallel.run_sweep"],
        "parallel.execute_task_s": total_s["parallel.execute_task"],
        "serve.expand_s": total_s["serve.expand"],
        "serve.journal_writes": calls["serve.journal"],
        "serve.journal_s": total_s["serve.journal"],
        "harness.self_s": layers.get("harness", 0.0) - self_s["harness.off_cpu"],
        "harness.off_cpu_s": self_s["harness.off_cpu"],
        "harness.unattributed_s": wall_s - attributed,
    }
    values = {name: value / ops for name, value in values.items()}
    values["core.prediction_hit_ratio"] = tally.solution_hits / lookups if lookups else 0.0
    for name in (
        "mpi.messages", "mpi.lower_s", "apps.trace_build_s", "topology.build_s",
        "network.fabric_build_s", "obs.bus_published", "obs.bus_dropped",
        "parallel.cache_hit_ratio", "serve.post_rtt_ms", "serve.queue_wait_ms",
        "harness.trace_overhead",
    ):
        values[name] = extra.get(name, 0.0)
    return values


def _sim_layers(workload: str, seed: int, seconds: float, tiny: bool):
    from perfbench import sims

    expected = sims.load_expected(workload, seed, tiny)
    run = sims.measure_traced(workload, seed, seconds, tiny, expected)
    ops = max(1, len(run["traced"]))
    builds = run["builds"] or [{}]

    def build(key: str) -> float:
        return median([b.get(key, 0.0) for b in builds])

    extra = {
        "mpi.messages": median(run["messages"] or [0]),
        "mpi.lower_s": build("lower"),
        "apps.trace_build_s": build("trace"),
        "topology.build_s": build("topology"),
        "network.fabric_build_s": build("fabric"),
        "harness.trace_overhead": _overhead(run["traced"], run["plain"]),
    }
    return run["checker"], run["tally"], ops, sum(run["traced"]), extra


def _served_layers(seed: int, seconds: float, tiny: bool, scratch: Path):
    from perfbench import served

    run = served.measure_traced(seed, seconds, tiny, scratch)
    plain, traced = run["plain"], run["traced"]
    jobs = traced["jobs"]
    cells = sum(job["job"]["total"] for job in jobs)
    hits = sum(job["job"]["cache_hits"] for job in jobs)
    ops = max(1, len(jobs))
    extra = {
        "obs.bus_published": run["bus"]["published"] / ops,
        "obs.bus_dropped": run["bus"]["dropped"] / ops,
        "parallel.cache_hit_ratio": hits / cells if cells else 0.0,
        "serve.post_rtt_ms": 1e3 * median([j["post_rtt_s"] for j in plain["jobs"]] or [0.0]),
        "serve.queue_wait_ms": 1e3 * median([j["queue_wait_s"] for j in plain["jobs"]] or [0.0]),
        "harness.trace_overhead": _overhead(
            [op["latency_s"] for op in traced["ops"]],
            [op["latency_s"] for op in plain["ops"]],
        ),
    }
    checker = _Combined(plain["stream"], traced["stream"])
    return checker, run["ledger"].totals(), ops, traced["wall_s"], extra


class _Combined:
    """Attempted/failed totals over several checkers."""

    def __init__(self, *parts) -> None:
        self.attempted = sum(p.attempted for p in parts)
        self.failed = sum(p.failed for p in parts)
        self.messages = [m for p in parts for m in p.messages]


def _overhead(traced: list, plain: list) -> float:
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, scratch: Path | None = None,
                 out_dir: Path | None = None) -> dict:
    """Run one workload; returns the result object (not yet printed)."""
    from perfbench.ledger import table

    scratch = scratch or ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    info = fingerprint(seed)
    try:
        if trace:
            if workload in SIM_WORKLOADS:
                checker, tally, ops, wall, extra = _sim_layers(workload, seed, seconds, tiny)
            else:
                checker, tally, ops, wall, extra = _served_layers(seed, seconds, tiny, scratch)
            values = layer_values(tally, ops, wall, extra)
            print(table(tally, wall, f"{workload} seed {seed}, {ops} operations"))
            _write_trace(out_dir, workload, seed, tally, values, info)
        else:
            if workload in SIM_WORKLOADS:
                from perfbench import sims

                expected = sims.load_expected(workload, seed, tiny)
                run = sims.measure(workload, seed, seconds, tiny, expected)
            else:
                from perfbench import served

                run = served.measure(seed, seconds, tiny, scratch)
            checker = run["checker"]
            values = dict(run["metrics"], peak_rss_mb=peak_rss_mb())
            info["absolute"] = run["absolute"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"fingerprint": info}, sort_keys=True))
    for message in checker.messages[:20]:
        print(f"check failed: {message}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())
        },
    }


def _write_trace(out_dir, workload, seed, tally, values, info) -> None:
    out_dir = out_dir or ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "fingerprint": info,
        "per_layer": values,
        "self_s": dict(tally.self_s),
        "total_s": dict(tally.total_s),
        "calls": dict(tally.calls),
        "events": dict(tally.events),
        "event_interval_s": dict(tally.event_s),
    }
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def record_expected() -> None:
    """Re-record ``expected.json`` (review any change to it first)."""
    from perfbench import sims

    recorded = {}
    for workload in SIM_WORKLOADS:
        for tiny, seeds in ((False, RECORDED_SEEDS), (True, range(1))):
            rows = {}
            for seed in seeds:
                built = sims.SCENARIOS[workload](seed, tiny=tiny, trace_digest=True)
                built.run()
                got = sims.outcome(built)
                if sims.problems(got, None):
                    raise SystemExit(f"{workload} seed {seed}: {sims.problems(got, None)}")
                rows[str(seed)] = {k: got[k] for k in ("events", "metrics", "trace")}
                print(workload, "tiny" if tiny else "", seed, rows[str(seed)], flush=True)
            recorded[f"{workload}{'/tiny' if tiny else ''}"] = rows
    sims.EXPECTED_PATH.write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small operation per workload (self-check)")
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record the digests in expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # One CPU for the whole run: the gauge and the operations it is set
    # against then share it.  The two CPUs of a shared-host VM do not
    # slow down together, and the served workload runs the gauge on the
    # client's thread but each job on the service's.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
