"""Checkpoint CLI: ``python -m repro.checkpoint <command>``.

Commands:

``save``     build a pinned scenario, run it partway, write a checkpoint;
``restore``  load a checkpoint, run it to completion, print the digests;
``info``     print a checkpoint's header (never unpickles the payload);
``verify``   prove interrupt-anywhere: for each simulation task kind and
             policy, compare an uninterrupted run's result against
             snapshot → restore in a **fresh process** → run-to-end.
             Exit 0 only on bit-identity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.checkpoint.format import CheckpointCorrupt, read_header
from repro.checkpoint.runner import load_scenario_checkpoint, save_scenario_checkpoint
from repro.checkpoint.state import SnapshotError
from repro.parallel.tasks import SimTask, canonical_json
from repro.scenario import KINDS, build_task, finish, run_task

#: the acceptance campaign's policy set (the DRB family plus the
#: notification-driven adaptive family, which carries zone-pair state
#: across the snapshot boundary).
_VERIFY_POLICIES = (
    "deterministic", "drb", "fr-drb", "pr-drb", "notified-adaptive", "ugal",
)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind", choices=KINDS, default="replay",
        help="simulation task kind to build (default: replay)",
    )
    parser.add_argument("--policy", default="pr-drb")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mesh-side", type=int, default=4)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--fraction", type=float, default=0.5,
        help="fraction of the scenario horizon to run before snapshotting",
    )


def _params(kind: str, policy: str, args: argparse.Namespace) -> dict:
    """Pinned task params of ``kind`` on a ``--mesh-side`` mesh.  One set
    serves both experiment kinds: each ignores the other's keys."""
    if kind in ("replay", "fault"):
        return {
            "seed": args.seed, "policy": policy,
            "mesh_side": args.mesh_side, "repetitions": args.repetitions,
        }
    side = args.mesh_side
    n = side * side
    return {
        "topology": f"mesh:{side}", "policy": policy, "seed": args.seed,
        "rate_mbps": 1200, "idle_rate_mbps": 200, "drain_s": 4e-4,
        "schedule": {"on_s": 1.5e-4, "off_s": 1.5e-4, "repetitions": args.repetitions},
        "notification": "router", "track_routers": True,
        "flows": [[0, n - side + 1], [side, n - side + 1], [1, n - 1]],
        "noise_rate_mbps": 30, "pattern": "uniform",
    }


def _cmd_save(args: argparse.Namespace) -> int:
    context = build_task(args.kind, _params(args.kind, args.policy, args))
    if not 0.0 <= args.fraction < 1.0:
        print("error: --fraction must be in [0, 1)", file=sys.stderr)
        return 2
    if args.fraction > 0:
        context.sim.run(until=context.until * args.fraction)
    header = save_scenario_checkpoint(
        context, args.out, meta={"policy": args.policy, "seed": args.seed}
    )
    print(json.dumps({"path": str(args.out), **header.to_dict()}, indent=2))
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    expect = None if args.any_code_version else "current"
    try:
        _header, context = load_scenario_checkpoint(
            args.checkpoint, expect_code_version=expect
        )
    except (CheckpointCorrupt, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context.run()
    result = finish(context)
    print(json.dumps(result, indent=None if args.json else 2))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        header = read_header(args.checkpoint)
    except CheckpointCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"path": str(args.checkpoint), **header.to_dict()}, indent=2))
    return 0


def _verify_one(
    kind: str, policy: str, args: argparse.Namespace, tmpdir: Path
) -> tuple[bool, str]:
    params = _params(kind, policy, args)
    reference = run_task(SimTask(kind, params))
    context = build_task(kind, params)
    context.sim.run(until=context.until * args.fraction)
    path = tmpdir / f"{kind}-{policy}.ckpt"
    save_scenario_checkpoint(context, path, meta={"policy": policy})
    # Fresh interpreter: the restore must not lean on any state left in
    # this process (module caches, the pid counter, warm RNGs).
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checkpoint", "restore", str(path), "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )
    if proc.returncode != 0:
        return False, f"{kind}/{policy}: restore failed: {proc.stderr.strip()}"
    # The whole result must survive: canonical JSON compares every float
    # by its exact repr, so this is bit-identity of every reported value.
    resumed = json.loads(proc.stdout)
    want = canonical_json(reference)
    if want != canonical_json(resumed):
        diverged = sorted(
            key for key in reference
            if canonical_json(reference[key]) != canonical_json(resumed.get(key))
        )
        return False, f"{kind}/{policy}: {', '.join(diverged)} diverged after resume"
    fingerprint = hashlib.sha256(want.encode("utf-8")).hexdigest()
    return True, f"{kind}/{policy}: resume bit-identical ({fingerprint[:16]}…)"


def _cmd_verify(args: argparse.Namespace) -> int:
    policies = args.policies or list(_VERIFY_POLICIES)
    kinds = [args.kind] if args.kind else list(KINDS)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-verify-") as tmp:
        for kind in kinds:
            for policy in policies:
                ok, message = _verify_one(kind, policy, args, Path(tmp))
                print(("ok   " if ok else "FAIL ") + message)
                if not ok:
                    failures += 1
    if failures:
        print(f"{failures} verification(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checkpoint", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_save = sub.add_parser("save", help="build, run partway, snapshot")
    _add_scenario_args(p_save)
    p_save.add_argument("out", type=Path, help="checkpoint file to write")
    p_save.set_defaults(fn=_cmd_save)

    p_restore = sub.add_parser("restore", help="resume a checkpoint to the end")
    p_restore.add_argument("checkpoint", type=Path)
    p_restore.add_argument("--json", action="store_true", help="compact output")
    p_restore.add_argument(
        "--any-code-version", action="store_true",
        help="skip the code-version guard (resume is then unproven)",
    )
    p_restore.set_defaults(fn=_cmd_restore)

    p_info = sub.add_parser("info", help="print a checkpoint header")
    p_info.add_argument("checkpoint", type=Path)
    p_info.set_defaults(fn=_cmd_info)

    p_verify = sub.add_parser(
        "verify", help="prove interrupt-anywhere resume equivalence"
    )
    p_verify.add_argument(
        "--kind", choices=KINDS, default=None,
        help="restrict to one simulation task kind (default: all)",
    )
    p_verify.add_argument(
        "--policies", nargs="*", default=None,
        help=f"policies to verify (default: {' '.join(_VERIFY_POLICIES)})",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mesh-side", type=int, default=4)
    p_verify.add_argument("--repetitions", type=int, default=3)
    p_verify.add_argument("--fraction", type=float, default=0.5)
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
