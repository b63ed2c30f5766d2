#!/usr/bin/env python3
"""Offered-load sweep: where does each routing policy saturate?

Sweeps the per-node injection rate of perfect-shuffle traffic on a 4-ary
3-tree and plots (as terminal sparklines) mean latency vs offered load
for the deterministic baseline, DRB and PR-DRB — the classic saturation
characterization behind the paper's choice of operating points.

Run:  python examples/saturation_sweep.py
"""

from repro.experiments.runner import run_pattern_workload
from repro.traffic.bursty import BurstSchedule
from repro.viz import horizontal_bars, sparkline

RATES = [200, 400, 600, 800, 1000, 1200, 1400, 1600]
POLICIES = ["deterministic", "drb", "pr-drb"]


def main() -> None:
    curves: dict[str, list[float]] = {p: [] for p in POLICIES}
    print("sweeping offered load (this takes ~a minute)...")
    for rate in RATES:
        runs = run_pattern_workload(
            "fattree:4,3",
            POLICIES,
            "perfect-shuffle",
            rate_mbps=rate,
            hosts=range(32),
            schedule=BurstSchedule(on_s=6e-4, off_s=0.0, repetitions=1),
            drain_s=2e-3,
            notification="router",
        )
        for p in POLICIES:
            curves[p].append(runs[p].mean_latency_s * 1e6)

    print(f"\nmean latency (us) vs offered load {RATES[0]}..{RATES[-1]} Mbps/node:\n")
    width = max(len(p) for p in POLICIES)
    for p in POLICIES:
        line = sparkline(curves[p], width=len(RATES))
        print(f"  {p.ljust(width)}  {line}   "
              f"{curves[p][0]:7.1f} -> {curves[p][-1]:7.1f}")
    print("\nlatency at the top rate (1600 Mbps/node):")
    print(horizontal_bars({p: round(curves[p][-1], 1) for p in POLICIES},
                          width=40, unit="us"))
    print("\nThe deterministic curve diverges first: its fixed paths")
    print("saturate while the DRB family keeps spreading load over the")
    print("fat-tree's alternative ancestors.")


if __name__ == "__main__":
    main()
