"""The scenario model: spec validation, presets, and the builder's contract."""

from dataclasses import replace

import pytest

from repro.parallel.tasks import SimTask
from repro.scenario import (
    KINDS,
    Faults,
    Scenario,
    build,
    build_task,
    finish,
    run_task,
    task_scenario,
)
from repro.traffic.bursty import BurstSchedule


def test_spec_rejects_unknown_rng_sources():
    for source in ("flow", "flows"):
        with pytest.raises(ValueError, match="routing_rng"):
            Scenario("mesh:4", routing_rng=source)


def test_horizon_follows_schedule_stop_and_drain():
    spec = Scenario("mesh:4")
    assert spec.stop() == spec.schedule.end_time()
    assert spec.until() == spec.stop() + spec.drain_s
    unbounded = replace(spec, schedule=BurstSchedule(on_s=1e-4, off_s=0.0), stop_s=3e-4)
    assert unbounded.stop() == 3e-4
    assert replace(spec, drain_s=None).until() is None
    assert replace(spec, schedule=None).stop() is None


def test_replay_preset_is_the_default_scenario():
    assert task_scenario("replay", {}) == Scenario("mesh:4")
    assert task_scenario("replay", {"mesh_side": 6, "repetitions": 2, "seed": 3}) == Scenario(
        "mesh:6", seed=3, schedule=BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=2)
    )


def test_fault_preset_without_a_campaign_spec_reads_the_flat_params():
    spec = task_scenario("fault", {"seed": 2, "mesh_side": 5, "repetitions": 2})
    assert (spec.topology, spec.seed, spec.schedule.repetitions) == ("mesh:5", 2, 2)
    assert spec.faults == Faults()


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        task_scenario("selftest", {})
    assert "selftest" not in KINDS


def test_pattern_trims_to_power_of_two_hosts():
    # 3x3 mesh: 9 hosts -> the pattern runs over 8, and host 8 stays silent.
    spec = Scenario(
        "mesh:3", "deterministic", schedule=BurstSchedule(on_s=2e-4, off_s=0.0), stop_s=2e-4,
        pattern="bit-reversal", rate_bps=100e6, idle_rate_bps=0.0,
    )
    context = build(spec, digest=False)
    context.run()
    assert context.workload.messages_sent > 0
    assert context.fabric.nodes[8].packets_injected == 0


def test_observers_do_not_change_the_digest():
    spec = Scenario("mesh:4", schedule=BurstSchedule(on_s=1e-4, off_s=1e-4, repetitions=1))
    plain = build(spec)
    plain.run()
    watched = build(spec, with_invariants=True)
    watched.run()
    assert watched.invariants.checks_run > 0
    assert watched.trace.hexdigest() == plain.trace.hexdigest()
    assert build(spec, digest=False).trace is None


def test_checkpoint_roots_carry_the_kind_and_drop_the_invariants():
    context = build(Scenario("mesh:4"), with_invariants=True)
    roots = context.checkpoint_roots()
    assert roots["kind"] is None
    assert roots["context"].invariants is None
    assert roots["context"].fabric is context.fabric


def test_finish_needs_a_task_kind():
    context = build(Scenario("mesh:4"))
    with pytest.raises(ValueError, match="no task kind"):
        finish(context)


def test_run_task_matches_build_task_then_finish():
    params = {"policy": "drb", "repetitions": 1}
    context = build_task("replay", params)
    context.run()
    assert run_task(SimTask("replay", params)) == finish(context)
