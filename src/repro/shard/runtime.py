"""Conservative barrier-window coordinator over spawn-context workers.

One process per shard, one duplex pipe each.  The protocol is a YAWNS-
style bounded-lag loop (docs/sharding.md):

1. every worker reports ``("ready", peek, outbox, executed)`` — the
   earliest pending event time and the handoffs its last window produced;
2. the coordinator routes the handoffs, computes ``T_min`` over all
   peeks *and* still-in-flight handoff times, and broadcasts the next
   window ``[.., T_min + Δ)`` together with each shard's arrivals (Δ is
   the partition's minimum cut-link lookahead);
3. workers apply arrivals, optionally write a barrier-consistent
   checkpoint, execute the window, and report again.

A barrier round that moves no handoffs is the protocol's *null message*
— pure synchronization overhead, counted and reported.  Worker wall
time spent blocked at barriers is measured around the pipe reads.

Checkpoints reuse the PR-7 machinery verbatim: every shard snapshots the
same object-graph roots a serial run would, always at a barrier (so the
set of K files is mutually consistent), and SIGTERM converts the next
barrier into checkpoint-and-stop with the orchestrator's
``CHECKPOINTED_EXIT`` status.  Resume rebuilds workers from the files
and re-derives the window bound from fresh peeks — the arrivals applied
before the snapshot are already in the restored heaps.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

from repro.shard.merge import ShardResult, collect_result
from repro.scenario import Scenario
from repro.shard.scenarios import ShardContext, build_shard

__all__ = ["ShardRunReport", "run_sharded"]

#: shard checkpoints and manifests use this envelope kind.
CHECKPOINT_KIND = "shard"
MANIFEST_NAME = "manifest.json"


@dataclass
class ShardRunReport:
    """What a sharded run hands back to its caller."""

    status: str  # "completed" | "checkpointed"
    num_shards: int
    windows: int
    null_windows: int
    handoffs: int
    events: int
    lookahead_s: float
    resumed: bool
    wall_s: float
    #: per-shard wall seconds spent blocked at barriers.
    blocked_s: list = field(default_factory=list)
    #: run mode: one digest over every shard's final observable state.
    state_digest: Optional[str] = None
    #: verify mode: per-shard logs for :func:`repro.shard.merge.merge_results`.
    results: Optional[list] = None

    def null_fraction(self) -> float:
        return self.null_windows / self.windows if self.windows else 0.0


def _shard_ckpt(directory: Path, shard_id: int) -> Path:
    return directory / f"shard{shard_id}.ckpt"


def _restore_context(spec: Scenario, shard_id: int, num_shards: int, path: Path, verify: bool) -> ShardContext:
    from repro.checkpoint.format import read_payload
    from repro.checkpoint.runner import code_version
    from repro.network.packet import set_pid_counter
    from repro.shard.fabric import min_lookahead_s

    header, roots = read_payload(path, expect_code_version=code_version())
    if header.kind != CHECKPOINT_KIND:
        raise ValueError(f"{path}: expected a {CHECKPOINT_KIND!r} checkpoint, got {header.kind!r}")
    meta = header.meta
    saved = meta.get("scenario")
    if saved is None or Scenario.from_dict(saved) != spec:
        raise ValueError(f"{path}: checkpoint is for another scenario ({saved!r})")
    if int(meta.get("num_shards", -1)) != num_shards or int(meta.get("shard_id", -1)) != shard_id:
        raise ValueError(f"{path}: checkpoint shard layout does not match the resume request")
    set_pid_counter(roots.pop("pid_counter"))
    return ShardContext(
        spec=spec,
        shard_id=shard_id,
        until=spec.until(),
        lookahead_s=min_lookahead_s(roots["fabric"].config),
        setup_ops=int(meta.get("setup_ops", 0)),
        sim=roots["sim"],
        recorder=roots["recorder"],
        policy_obj=roots["policy_obj"],
        fabric=roots["fabric"],
        workload=roots["workload"],
    )


def _write_shard_checkpoint(ctx: ShardContext, num_shards: int, path: Path) -> None:
    from repro.checkpoint.format import write_checkpoint
    from repro.checkpoint.runner import code_version
    from repro.network.packet import pid_counter_value

    roots = ctx.checkpoint_roots()
    roots["pid_counter"] = pid_counter_value()
    write_checkpoint(
        path,
        roots,
        kind=CHECKPOINT_KIND,
        code_version=code_version(),
        sim_now=ctx.sim.now,
        events_executed=ctx.sim.events_executed,
        meta={
            "scenario": ctx.spec.to_dict(),
            "shard_id": ctx.shard_id,
            "num_shards": num_shards,
            "setup_ops": ctx.setup_ops,
        },
    )


def _state_digest_part(ctx: ShardContext) -> str:
    """Per-shard final-state digest; the resume bit-identity oracle."""
    from repro.analysis.replay import digest_metrics

    return digest_metrics(ctx.fabric, ctx.recorder, ctx.policy_obj)


def _worker_main(
    conn,
    spec: Scenario,
    shard_id: int,
    num_shards: int,
    verify: bool,
    resume_path: Optional[str],
    trace_path: Optional[str],
) -> None:
    """One shard's process body (module-level: spawn context requires it)."""
    from repro.parallel.tasks import make_topology
    from repro.parallel.worker import CHECKPOINTED_EXIT
    from repro.topology.partition import partition_topology

    tracer = None
    if trace_path is not None:
        from repro.obs.tracer import JsonlSink, Tracer

        tracer = Tracer(sinks=[JsonlSink(trace_path, label=f"shard{shard_id}")])
    if resume_path is not None:
        ctx = _restore_context(spec, shard_id, num_shards, Path(resume_path), verify)
    else:
        plan = partition_topology(make_topology(spec.topology), num_shards)
        ctx = build_shard(spec, shard_id, plan, verify=verify)
    sim, fabric = ctx.sim, ctx.fabric
    blocked_s = 0.0
    executed = 0
    try:
        while True:
            fabric.assert_shardable()
            conn.send(("ready", sim.peek_time(), fabric.outbox, executed))
            fabric.outbox = []
            start = time.perf_counter()  # repro: allow(no-wall-clock) harness timing
            command = conn.recv()
            blocked_s += time.perf_counter() - start  # repro: allow(no-wall-clock) harness timing
            kind = command[0]
            if kind == "window":
                _kind, bound, inclusive, arrivals, ckpt_path, stop = command
                for handoff in arrivals:
                    sim.apply_arrival(
                        handoff.time, handoff.priority, handoff.rank, fabric._arrive, (handoff.packet,)
                    )
                if ckpt_path is not None:
                    _write_shard_checkpoint(ctx, num_shards, Path(ckpt_path))
                    if stop:
                        conn.send(("stopped", sim.now, sim.events_executed))
                        conn.close()
                        os._exit(CHECKPOINTED_EXIT)
                executed = sim.run_window(bound, inclusive=inclusive)
                if tracer is not None:
                    tracer.emit(
                        sim.now,
                        "shard.window",
                        ("shard", shard_id),
                        args={"bound": bound, "events": executed, "handoffs": len(fabric.outbox)},
                    )
            elif kind == "finish":
                result = collect_result(ctx) if verify else None
                digest = None if verify else _state_digest_part(ctx)
                conn.send(("result", result, digest, blocked_s, sim.events_executed))
                break
            elif kind == "abort":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown coordinator command {kind!r}")
    finally:
        if tracer is not None:
            tracer.close()
        conn.close()


def run_sharded(
    spec: Scenario,
    num_shards: int,
    *,
    verify: bool = False,
    checkpoint_dir=None,
    checkpoint_every_windows: int = 0,
    resume: bool = False,
    trace_dir=None,
    install_sigterm: bool = True,
) -> ShardRunReport:
    """Run ``spec`` space-parallel across ``num_shards`` worker processes.

    ``verify=True`` collects the per-shard execution logs for the
    offline merge (and disables checkpointing: the logs are transient
    state a snapshot cannot carry).  With ``checkpoint_dir`` set, every
    ``checkpoint_every_windows`` barriers each shard parks a consistent
    snapshot there, and SIGTERM checkpoints-and-stops; ``resume=True``
    restarts from those files.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if verify and checkpoint_dir is not None:
        raise ValueError("verify mode and checkpointing are mutually exclusive")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = Path(trace_dir) if trace_dir is not None else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    from repro.shard.fabric import min_lookahead_s
    from repro.network.config import NetworkConfig

    delta = min_lookahead_s(NetworkConfig())
    t_end = spec.until()
    ctx = get_context("spawn")
    conns, procs, worker_traces = [], [], []
    coord_tracer = None
    coord_trace_path = None
    if trace_dir is not None:
        from repro.obs.tracer import JsonlSink, Tracer

        coord_trace_path = trace_dir / "coordinator.jsonl"
        coord_tracer = Tracer(sinks=[JsonlSink(coord_trace_path, label="coordinator")])

    interrupted = {"seen": False}
    previous_handler = None
    if install_sigterm:
        def _on_sigterm(signum, frame):
            interrupted["seen"] = True

        try:
            previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # pragma: no cover - not the main thread
            previous_handler = None

    start_wall = time.perf_counter()  # repro: allow(no-wall-clock) harness timing
    try:
        for shard_id in range(num_shards):
            parent_conn, child_conn = ctx.Pipe()
            resume_path = None
            if resume:
                path = _shard_ckpt(checkpoint_dir, shard_id)
                if not path.exists():
                    raise FileNotFoundError(f"resume requested but {path} is missing")
                resume_path = str(path)
            trace_path = None
            if trace_dir is not None:
                trace_path = str(trace_dir / f"shard{shard_id}.jsonl")
                worker_traces.append(trace_path)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, spec, shard_id, num_shards, verify, resume_path, trace_path),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        pending: list[list] = [[] for _ in range(num_shards)]
        windows = null_windows = handoffs_total = 0
        events_total = 0
        window_since_ckpt = 0
        while True:
            readies = [conn.recv() for conn in conns]
            peeks = []
            outbound = 0
            for shard_id, (tag, peek, outbox, executed) in enumerate(readies):
                if tag != "ready":  # pragma: no cover - protocol bug
                    raise RuntimeError(f"shard {shard_id}: expected ready, got {tag!r}")
                peeks.append(peek)
                events_total += executed
                for handoff in outbox:
                    pending[handoff.dest_shard].append(handoff)
                    outbound += 1
            handoffs_total += outbound

            candidates = [p for p in peeks if p is not None]
            candidates.extend(h.time for bucket in pending for h in bucket)
            t_min = min(candidates) if candidates else None

            stopping = interrupted["seen"] and checkpoint_dir is not None
            if t_min is None or t_min > t_end or stopping:
                if stopping and (t_min is None or t_min > t_end):
                    stopping = False  # run is done anyway; finish normally
                if stopping:
                    for shard_id, conn in enumerate(conns):
                        conn.send(
                            (
                                "window",
                                t_min,  # never executed: workers stop first
                                False,
                                pending[shard_id],
                                str(_shard_ckpt(checkpoint_dir, shard_id)),
                                True,
                            )
                        )
                    for shard_id, conn in enumerate(conns):
                        tag, _now, executed = conn.recv()
                        if tag != "stopped":  # pragma: no cover - protocol bug
                            raise RuntimeError(f"shard {shard_id}: expected stopped, got {tag!r}")
                    for proc in procs:
                        proc.join(timeout=30)
                    _write_manifest(checkpoint_dir, spec, num_shards, windows, complete=True)
                    wall = time.perf_counter() - start_wall  # repro: allow(no-wall-clock) harness timing
                    return ShardRunReport(
                        status="checkpointed",
                        num_shards=num_shards,
                        windows=windows,
                        null_windows=null_windows,
                        handoffs=handoffs_total,
                        events=events_total,
                        lookahead_s=delta,
                        resumed=resume,
                        wall_s=wall,
                    )
                break

            inclusive = t_min + delta > t_end
            bound = t_end if inclusive else t_min + delta
            ckpt_due = (
                checkpoint_dir is not None
                and checkpoint_every_windows > 0
                and window_since_ckpt + 1 >= checkpoint_every_windows
            )
            moved = sum(len(bucket) for bucket in pending)
            for shard_id, conn in enumerate(conns):
                ckpt_path = str(_shard_ckpt(checkpoint_dir, shard_id)) if ckpt_due else None
                conn.send(("window", bound, inclusive, pending[shard_id], ckpt_path, False))
            pending = [[] for _ in range(num_shards)]
            windows += 1
            window_since_ckpt = 0 if ckpt_due else window_since_ckpt + 1
            if moved == 0:
                null_windows += 1
            if coord_tracer is not None:
                coord_tracer.emit(
                    bound,
                    "shard.sync",
                    ("shard", "coordinator"),
                    args={"t_min": t_min, "moved": moved, "null": moved == 0, "final": inclusive},
                )
                if moved:
                    coord_tracer.emit(
                        bound, "shard.handoff", ("shard", "coordinator"), args={"count": moved}
                    )
            if ckpt_due:
                # Workers write before running the window; the manifest
                # is only advisory (files self-describe), write it now.
                _write_manifest(checkpoint_dir, spec, num_shards, windows, complete=True)

        for conn in conns:
            conn.send(("finish",))
        results, blocked, digest_parts = [], [], []
        for shard_id, conn in enumerate(conns):
            tag, result, digest, blocked_s, _executed = conn.recv()
            if tag != "result":  # pragma: no cover - protocol bug
                raise RuntimeError(f"shard {shard_id}: expected result, got {tag!r}")
            if result is not None:
                results.append(result)
            if digest is not None:
                digest_parts.append(digest)
            blocked.append(blocked_s)
        for proc in procs:
            proc.join(timeout=30)
        state_digest = None
        if digest_parts:
            import hashlib

            state_digest = hashlib.sha256("".join(digest_parts).encode("ascii")).hexdigest()
        wall = time.perf_counter() - start_wall  # repro: allow(no-wall-clock) harness timing
        if coord_tracer is not None:
            coord_tracer.close()
            coord_tracer = None
            from repro.obs.trace_merge import merge_shard_traces

            merge_shard_traces(
                [*worker_traces, str(coord_trace_path)],
                str(trace_dir / "merged.jsonl"),
                label=f"shard-run:{spec.topology}:{spec.policy}",
            )
        return ShardRunReport(
            status="completed",
            num_shards=num_shards,
            windows=windows,
            null_windows=null_windows,
            handoffs=handoffs_total,
            events=events_total,
            lookahead_s=delta,
            resumed=resume,
            wall_s=wall,
            blocked_s=blocked,
            state_digest=state_digest,
            results=results or None,
        )
    finally:
        if coord_tracer is not None:
            coord_tracer.close()
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)


def _write_manifest(directory: Path, spec: Scenario, num_shards: int, windows: int, complete: bool) -> None:
    manifest = {
        "kind": CHECKPOINT_KIND,
        "scenario": spec.to_dict(),
        "num_shards": num_shards,
        "windows": windows,
        "complete": complete,
    }
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, directory / MANIFEST_NAME)
