"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    from repro.routing.registry import registered_policies

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig_4_13_14" in out
    assert "perfect-shuffle" in out
    policies = next(line for line in out.splitlines() if line.startswith("policies:"))
    assert set(registered_policies()) <= set(policies.split()[1:])


#: Exact ``simulate`` stdout of two pinned runs: counters, latencies and
#: policy stats are all deterministic, so any drift is a behaviour change.
SIMULATE_BIT_REVERSAL = """\
packets_injected: 89
packets_delivered: 89
mean_latency_s: 2.282495131086143e-05
global_average_latency_s: 2.2828000000000006e-05
p99_latency_s: 3.655133333333336e-05
policy: drb
flows: 12
expansions: 0
shrinks: 0
paths_pruned: 0
mean_active_paths: 1.0
max_active_paths: 1
accepted_ratio: 1.0
duration_s: 0.00019999999999999998
"""

SIMULATE_BURSTY = """\
packets_injected: 140
packets_delivered: 140
mean_latency_s: 1.855278571428565e-05
global_average_latency_s: 1.855278571428565e-05
p99_latency_s: 3.5891799999999526e-05
policy: pr-drb
flows: 14
expansions: 5
shrinks: 2
paths_pruned: 0
mean_active_paths: 1.2142857142857142
max_active_paths: 2
patterns_learned: 4
patterns_reapplied: 0
total_reuses: 0
solutions_applied: 0
solutions_saved: 4
trend_triggers: 0
solutions_invalidated: 0
accepted_ratio: 1.0
duration_s: 0.0003
"""


def test_simulate_command(capsys):
    code = main([
        "simulate", "--topology", "mesh:4",
        "--policy", "drb", "--pattern", "bit-reversal",
        "--rate-mbps", "300", "--duration-us", "200",
    ])
    assert code == 0
    assert capsys.readouterr().out == SIMULATE_BIT_REVERSAL


def test_simulate_bursty(capsys):
    code = main([
        "simulate", "--topology", "mesh:4",
        "--policy", "pr-drb", "--bursts", "2",
        "--burst-on-us", "100", "--burst-off-us", "100",
        "--rate-mbps", "400",
    ])
    assert code == 0
    assert capsys.readouterr().out == SIMULATE_BURSTY


def test_experiment_command(capsys):
    assert main(["experiment", "table_4_1"]) == 0
    out = capsys.readouterr().out
    assert "T4.1" in out and "[ok]" in out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "fig_9_99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_analyze_synthesized_app(capsys):
    assert main(["analyze", "sweep3d", "--ranks", "16"]) == 0
    out = capsys.readouterr().out
    assert "MPI call breakdown" in out
    assert "mean TDC" in out


def test_analyze_trace_file(tmp_path, capsys):
    from repro.apps.sweep3d import sweep3d_trace
    from repro.mpi.traceio import save_trace

    path = tmp_path / "t.json"
    save_trace(sweep3d_trace(num_ranks=16, iterations=1), path)
    assert main(["analyze", str(path)]) == 0
    assert "sweep3d.16" in capsys.readouterr().out


def test_replay_command(capsys):
    assert main(["replay", "sweep3d", "--ranks", "16", "--policy", "drb"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
