"""``python -m repro.shard`` — run, verify, and bench sharded simulation.

* ``run``: execute one scenario space-parallel; optional checkpoint
  cadence (SIGTERM checkpoints-and-stops) and per-shard tracing.
* ``verify``: the digest gate.  For every requested policy and shard
  count, run the scenario serially and sharded, merge the shard logs
  offline, and fail unless both the event-trace digest and the metric
  digest are bit-identical (docs/sharding.md).
* ``bench``: the shard-scaling measurement (``BENCH_shard.json``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

from repro.shard.scenarios import SCENARIOS

__all__ = ["main"]

#: the digest gate covers the full policy family of the paper plus the
#: notification-driven baseline (ISSUE 9 acceptance).
VERIFY_POLICIES = ("deterministic", "drb", "fr-drb", "pr-drb", "notified-adaptive")
VERIFY_SHARDS = (2, 4)


def _spec(args):
    try:
        spec = SCENARIOS[args.scenario]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return replace(spec, policy=args.policy)


def cmd_run(args) -> int:
    from repro.shard.runtime import run_sharded

    spec = _spec(args)
    report = run_sharded(
        spec,
        args.shards,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_windows=args.checkpoint_every,
        resume=args.resume,
        trace_dir=args.trace_dir,
    )
    print(
        json.dumps(
            {
                "scenario": args.scenario,
                "policy": spec.policy,
                "status": report.status,
                "num_shards": report.num_shards,
                "events": report.events,
                "windows": report.windows,
                "null_windows": report.null_windows,
                "null_fraction": round(report.null_fraction(), 4),
                "handoffs": report.handoffs,
                "lookahead_s": report.lookahead_s,
                "resumed": report.resumed,
                "wall_s": round(report.wall_s, 3),
                "blocked_s": [round(b, 3) for b in report.blocked_s],
                "state_digest": report.state_digest,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.replay import digest_metrics
    from repro.shard.merge import merge_results
    from repro.shard.runtime import run_sharded
    from repro.scenario import build

    base = SCENARIOS[args.scenario]
    policies = args.policies or list(VERIFY_POLICIES)
    shard_counts = args.shards or list(VERIFY_SHARDS)
    failures = 0
    for policy in policies:
        spec = replace(base, policy=policy)
        serial = build(spec)
        serial.run()
        serial_trace = serial.trace.hexdigest()
        serial_metrics = digest_metrics(serial.fabric, serial.recorder, serial.policy)
        for num_shards in shard_counts:
            report = run_sharded(spec, num_shards, verify=True)
            merged = merge_results(spec, report.results, spec.until())
            trace_ok = merged.trace_digest == serial_trace
            metrics_ok = merged.metrics_digest == serial_metrics
            ok = trace_ok and metrics_ok
            failures += 0 if ok else 1
            print(
                f"{'PASS' if ok else 'FAIL'} {args.scenario} {policy:>17s} K={num_shards} "
                f"events={merged.events} windows={report.windows} "
                f"handoffs={report.handoffs} "
                f"trace={'ok' if trace_ok else 'MISMATCH'} "
                f"metrics={'ok' if metrics_ok else 'MISMATCH'}"
            )
    if failures:
        print(f"{failures} digest comparison(s) FAILED")
        return 1
    print("all sharded digests bit-identical to serial")
    return 0


def cmd_bench(args) -> int:
    from repro.shard.bench import run_bench

    run_bench(
        out=args.out,
        policy=args.policy,
        scenarios=tuple(args.scenarios),
        shards=tuple(args.shards),
        quick=args.quick,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario space-parallel")
    p_run.add_argument("--scenario", default="mesh8", choices=sorted(SCENARIOS))
    p_run.add_argument("--policy", default="pr-drb")
    p_run.add_argument("--shards", type=int, default=2)
    p_run.add_argument("--checkpoint-dir", default=None)
    p_run.add_argument("--checkpoint-every", type=int, default=0, metavar="WINDOWS")
    p_run.add_argument("--resume", action="store_true")
    p_run.add_argument("--trace-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="digest gate: sharded == serial, bit for bit")
    p_verify.add_argument("--scenario", default="mesh8", choices=sorted(SCENARIOS))
    p_verify.add_argument("--policies", nargs="+", default=None)
    p_verify.add_argument("--shards", nargs="+", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="shard-scaling measurement (BENCH_shard.json)")
    p_bench.add_argument("--out", default="BENCH_shard.json")
    p_bench.add_argument("--policy", default="pr-drb")
    p_bench.add_argument("--scenarios", nargs="+", default=["mesh16", "dragonfly"])
    p_bench.add_argument("--shards", nargs="+", type=int, default=[2, 4])
    p_bench.add_argument("--quick", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)
