#!/usr/bin/env python3
"""Quickstart: simulate PR-DRB on a fat-tree in ~20 lines.

Builds a 4-ary 3-tree (64 hosts), drives 32 of its hosts with *bursty*
perfect-shuffle traffic (the repetitive communication-phase model PR-DRB
is designed for), and prints the latency summary for the deterministic
baseline, DRB, and PR-DRB.

Run:  python examples/quickstart.py
"""

from repro import BurstSchedule
from repro.scenario import Scenario, build

#: four communication bursts separated by computation phases (Fig. 2.6).
SCHEDULE = BurstSchedule(on_s=3e-4, off_s=5e-4, repetitions=4)


def main() -> None:
    print(f"{'policy':15s} {'mean latency':>14s} {'p99':>12s} {'accepted':>9s}")
    for policy in ("deterministic", "drb", "pr-drb"):
        context = build(Scenario(
            "fattree:4,3", policy, routing_rng="default", window_s=50e-6,
            schedule=SCHEDULE, pattern="perfect-shuffle", hosts=tuple(range(32)),
            rate_bps=1200e6, idle_rate_bps=0.0, drain_s=1.5e-3,
        ))
        context.run()
        recorder = context.recorder
        print(
            f"{policy:15s} {recorder.mean_latency_s * 1e6:11.2f} us "
            f"{recorder.latency_percentile(99) * 1e6:9.2f} us "
            f"{context.fabric.accepted_ratio():8.2f}"
        )
    print("\nLower is better; DRB/PR-DRB balance traffic over alternative")
    print("paths while the deterministic baseline keeps colliding flows on")
    print("the same up-links.")


if __name__ == "__main__":
    main()
