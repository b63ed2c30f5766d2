"""Sharded execution is digest-proven bit-identical to serial.

The fast tests drive the barrier-window protocol *in-process* (same
loop as :func:`repro.shard.runtime.run_sharded`, minus the worker
processes) so the core equivalence claim — merged shard logs reproduce
the serial event-trace digest and metric digest bit-for-bit — runs on
every tier-1 pass.  One spawn-based test and the checkpoint/SIGTERM
resume test exercise the real multiprocessing path.
"""

import dataclasses
import os
import signal
import threading

import pytest

from repro.analysis.replay import digest_metrics
from repro.network.config import NetworkConfig
from repro.network.packet import Packet
from repro.parallel.tasks import make_topology
from repro.scenario import build
from repro.shard import (
    SCENARIOS,
    LookaheadViolation,
    MergeError,
    ShardConfigError,
    build_shard,
    collect_result,
    merge_results,
    min_lookahead_s,
    run_sharded,
)
from repro.shard.engine import REC_TIME
from repro.topology.partition import partition_topology

#: one on/off repetition keeps the pinned workload small enough for
#: tier-1 while still crossing shard boundaries thousands of times.
LEAN = dataclasses.replace(
    SCENARIOS["mesh8"],
    schedule=dataclasses.replace(SCENARIOS["mesh8"].schedule, repetitions=1),
)


def run_inprocess(spec, num_shards):
    """The coordinator loop of run_sharded, single-process (verify mode)."""
    plan = partition_topology(make_topology(spec.topology), num_shards)
    ctxs = [build_shard(spec, k, plan, verify=True) for k in range(num_shards)]
    delta = min_lookahead_s(NetworkConfig())
    t_end = spec.until()
    pending = [[] for _ in range(num_shards)]
    windows = 0
    while True:
        for ctx in ctxs:
            ctx.fabric.assert_shardable()
            for handoff in ctx.fabric.outbox:
                pending[handoff.dest_shard].append(handoff)
            ctx.fabric.outbox = []
        candidates = [p for p in (ctx.sim.peek_time() for ctx in ctxs) if p is not None]
        candidates.extend(h.time for bucket in pending for h in bucket)
        if not candidates or min(candidates) > t_end:
            break
        t_min = min(candidates)
        inclusive = t_min + delta > t_end
        bound = t_end if inclusive else t_min + delta
        for k, ctx in enumerate(ctxs):
            for h in pending[k]:
                ctx.sim.apply_arrival(h.time, h.priority, h.rank, ctx.fabric._arrive, (h.packet,))
            pending[k] = []
        for ctx in ctxs:
            ctx.sim.run_window(bound, inclusive=inclusive)
        windows += 1
    assert windows > 1, "scenario too small to exercise the window protocol"
    return [collect_result(ctx) for ctx in ctxs]


def serial_digests(spec):
    ctx = build(spec)
    ctx.run()
    return (
        ctx.trace.hexdigest(),
        digest_metrics(ctx.fabric, ctx.recorder, ctx.policy),
        ctx.trace.events,
    )


@pytest.mark.parametrize("policy", ["deterministic", "pr-drb", "notified-adaptive"])
@pytest.mark.parametrize("num_shards", [2, 4])
def test_inprocess_sharded_digests_match_serial(policy, num_shards):
    spec = dataclasses.replace(LEAN, policy=policy)
    trace, metrics, events = serial_digests(spec)
    merged = merge_results(spec, run_inprocess(spec, num_shards), spec.until())
    assert merged.events == events
    assert merged.trace_digest == trace
    assert merged.metrics_digest == metrics


def test_spawn_verify_matches_serial():
    spec = LEAN  # pr-drb
    trace, metrics, events = serial_digests(spec)
    report = run_sharded(spec, 2, verify=True)
    assert report.status == "completed"
    assert report.handoffs > 0
    merged = merge_results(spec, report.results, spec.until())
    assert merged.events == events
    assert merged.trace_digest == trace
    assert merged.metrics_digest == metrics


def test_merge_detects_divergence():
    spec = LEAN
    results = run_inprocess(spec, 2)
    # Tamper with one shard's log: the merge must refuse loudly rather
    # than produce a digest that silently disagrees with serial.
    results[0].pop_log[5][REC_TIME] += 1e-9
    with pytest.raises(MergeError):
        merge_results(spec, results, spec.until())


# ----------------------------------------------------------------------
# Locality guards
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_ctx():
    plan = partition_topology(make_topology(LEAN.topology), 2)
    return build_shard(LEAN, 0, plan), plan


def test_fault_machinery_refused(shard_ctx):
    ctx, _plan = shard_ctx
    with pytest.raises(ShardConfigError):
        ctx.fabric.fail_link(0, 1)
    with pytest.raises(ShardConfigError):
        ctx.fabric.degrade_link(0, 1, 1e-6)


def test_assert_shardable_rejects_transport(shard_ctx):
    ctx, _plan = shard_ctx
    ctx.fabric.assert_shardable()  # clean to begin with
    ctx.fabric.transport = object()
    try:
        with pytest.raises(ShardConfigError):
            ctx.fabric.assert_shardable()
    finally:
        ctx.fabric.transport = None


def test_lookahead_violation_fails_loudly(shard_ctx):
    ctx, plan = shard_ctx
    remote = next(
        r for r in range(len(plan.shard_of_router)) if plan.shard_of_router[r] != 0
    )
    packet = Packet(src=0, dst=0, size_bytes=64, path=(remote,), hop=0)
    ctx.sim.window_bound = 1.0
    try:
        with pytest.raises(LookaheadViolation):
            ctx.fabric._schedule_hop(0.5, packet)
    finally:
        ctx.sim.window_bound = None


def test_virtual_channels_refused():
    from repro.shard.engine import ShardSimulator
    from repro.shard.fabric import ShardFabric
    from repro.routing.registry import make_policy

    topology = make_topology(LEAN.topology)
    plan = partition_topology(topology, 2)
    with pytest.raises(ShardConfigError):
        ShardFabric(
            topology,
            NetworkConfig(virtual_channels=2),
            make_policy("deterministic"),
            ShardSimulator(shard_id=0),
            plan,
        )


# ----------------------------------------------------------------------
# Checkpoint cadence + SIGTERM resume (the PR-7 machinery, per shard)
# ----------------------------------------------------------------------
def test_checkpoint_sigterm_resume_bit_identical(tmp_path):
    spec = LEAN
    baseline = run_sharded(spec, 2)
    assert baseline.status == "completed"
    assert baseline.state_digest is not None

    # SIGTERM mid-run: the coordinator converts the next barrier into a
    # checkpoint-and-stop.  Fire the timer at half the measured baseline
    # wall time so it lands mid-run regardless of box speed.
    timer = threading.Timer(
        max(0.2, baseline.wall_s * 0.5), os.kill, args=(os.getpid(), signal.SIGTERM)
    )
    timer.start()
    try:
        interrupted = run_sharded(
            spec, 2, checkpoint_dir=tmp_path, checkpoint_every_windows=500
        )
    finally:
        timer.cancel()
    if interrupted.status == "completed":
        pytest.skip("run finished before the SIGTERM landed on this box")
    assert interrupted.status == "checkpointed"
    assert (tmp_path / "shard0.ckpt").exists() and (tmp_path / "shard1.ckpt").exists()
    assert (tmp_path / "manifest.json").exists()

    resumed = run_sharded(spec, 2, checkpoint_dir=tmp_path, resume=True)
    assert resumed.status == "completed"
    assert resumed.resumed
    assert resumed.state_digest == baseline.state_digest
    assert interrupted.events + resumed.events == baseline.events


# ----------------------------------------------------------------------
# Trace merging
# ----------------------------------------------------------------------
def test_trace_merge_unit(tmp_path):
    from repro.obs.tracer import JsonlSink, Tracer, read_trace
    from repro.obs.trace_merge import merge_shard_traces

    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for index, path in enumerate(paths):
        tracer = Tracer(sinks=[JsonlSink(path, label=f"t{index}")])
        for step in range(3):
            # Interleaved and partially tied timestamps across files.
            tracer.emit(float(step), "unit.tick", ("shard", index), args={"src": index})
        tracer.close()
    count = merge_shard_traces([str(p) for p in paths], str(tmp_path / "merged.jsonl"))
    assert count == 6
    _header, records = read_trace(tmp_path / "merged.jsonl")
    keys = [(r.ts, r.args["src"]) for r in records]
    # Stable (ts, input index) order: ties resolve by input position.
    assert keys == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]


def test_sharded_run_writes_merged_trace(tmp_path):
    from repro.obs.tracer import read_trace

    report = run_sharded(LEAN, 2, trace_dir=tmp_path)
    assert report.status == "completed"
    merged = tmp_path / "merged.jsonl"
    assert merged.exists()
    _header, records = read_trace(merged)
    assert records, "sharded run produced an empty merged trace"
    assert [r.ts for r in records] == sorted(r.ts for r in records)
    names = {r.name for r in records}
    assert "shard.sync" in names and "shard.window" in names


# ----------------------------------------------------------------------
# Rank tie-breaking: the spine fallback beyond the ancestry cut
# ----------------------------------------------------------------------
def _deep_chain(root_counter, origin, generations, period=1e-6):
    """A periodic pipeline chain: one child per generation, fixed period."""
    from repro.shard.rank import Rank

    rank = Rank.setup(root_counter)
    for gen in range(1, generations + 1):
        rank = Rank.child_of(rank, gen * period, 0, origin, gen)
    return rank


def test_rank_symmetric_chains_resolve_by_root_beyond_cut():
    from repro.shard.rank import MAX_PARENT_DEPTH

    deep = MAX_PARENT_DEPTH + 50
    a = _deep_chain(3, origin=0, generations=deep)
    b = _deep_chain(7, origin=1, generations=deep)
    # Identical (time, priority) paths, different setup roots: the spine
    # fallback orders by root counter without any retained ancestry.
    assert a.parent is not None and a.depth <= MAX_PARENT_DEPTH
    assert a < b
    assert not (b < a)


def test_rank_same_root_beyond_cut_is_loudly_ambiguous():
    from repro.shard.rank import AmbiguousTieError, MAX_PARENT_DEPTH, Rank

    deep = MAX_PARENT_DEPTH + 50
    a = _deep_chain(5, origin=0, generations=deep)
    b = _deep_chain(5, origin=1, generations=deep)
    # Same root and equal spines: the divergence information is gone —
    # refusing loudly beats silently nondeterministic ordering.
    with pytest.raises(AmbiguousTieError):
        a < b  # noqa: B015 - the comparison itself is the assertion
    # Divergent spines beyond the cut are equally ambiguous: chain `d`
    # ties with `c` throughout the retained window but took a different
    # first step, now beyond the discarded prefix.
    c = _deep_chain(5, origin=0, generations=deep)
    d = Rank.child_of(Rank.setup(9), 0.5e-6, 0, 1, 1)
    for gen in range(2, deep + 1):
        d = Rank.child_of(d, gen * 1e-6, 0, 1, gen)
    with pytest.raises(AmbiguousTieError):
        c < d  # noqa: B015


def test_rank_within_cut_resolves_at_divergence():
    from repro.shard.rank import Rank

    root = Rank.setup(0)
    fork = Rank.child_of(root, 1e-6, 0, 0, 1)
    first = Rank.child_of(fork, 2e-6, 0, 0, 2)
    second = Rank.child_of(fork, 2e-6, 0, 0, 3)
    # Two generations later on different shards, still tied on time.
    a = Rank.child_of(Rank.child_of(first, 3e-6, 0, 0, 4), 4e-6, 0, 0, 6)
    b = Rank.child_of(Rank.child_of(second, 3e-6, 0, 1, 1), 4e-6, 0, 1, 2)
    assert a < b  # resolves at the fork siblings' call order
    assert not (b < a)


@pytest.mark.slow
def test_mesh32_sharded_with_checkpoint_cadence(tmp_path):
    """ISSUE 9 acceptance: the large topology completes space-parallel
    with a per-shard checkpoint cadence, and a cold resume from the last
    barrier-consistent set reproduces the uninterrupted state digest."""
    spec = SCENARIOS["mesh32"]
    baseline = run_sharded(spec, 2)
    assert baseline.status == "completed"

    report = run_sharded(spec, 2, checkpoint_dir=tmp_path, checkpoint_every_windows=400)
    assert report.status == "completed"
    assert report.events == baseline.events
    assert report.state_digest == baseline.state_digest
    assert (tmp_path / "shard0.ckpt").exists() and (tmp_path / "shard1.ckpt").exists()

    # The parked mid-run set resumes to the same final state, bit for bit.
    resumed = run_sharded(spec, 2, checkpoint_dir=tmp_path, resume=True)
    assert resumed.status == "completed"
    assert resumed.resumed
    assert resumed.state_digest == baseline.state_digest
