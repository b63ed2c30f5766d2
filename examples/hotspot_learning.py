#!/usr/bin/env python3
"""Hot-spot learning demo (the Fig. 3.1 story).

Four aggressor flows collide on one column of an 8x8 mesh in repeated
communication bursts (the paper's bursty-application model).  During the
first burst PR-DRB behaves exactly like DRB — it is *learning* which
contending-flow pattern causes the congestion and which alternative-path
combination controls it.  On every later burst it recognizes the pattern
(>= 80 % signature match) and re-applies the saved solution at once.

The script prints a per-burst latency table for DRB vs PR-DRB and the
PR-DRB solution-database statistics, then renders the mesh latency map
(Figs 4.10-4.11) as ASCII art.

Run:  python examples/hotspot_learning.py
"""

import numpy as np

from repro.experiments.config import (
    HOTSPOT_FLOWS,
    HOTSPOT_IDLE_MBPS,
    HOTSPOT_NOISE_MBPS,
    HOTSPOT_RATE_MBPS,
)
from repro.experiments.runner import run_hotspot_workload
from repro.topology.mesh import Mesh2D
from repro.traffic.bursty import BurstSchedule

BURSTS = 6


def ascii_map(contention: dict[int, float], topo: Mesh2D) -> str:
    """Render per-router contention latency as a character grid."""
    grid = np.zeros((topo.height, topo.width))
    for router, value in contention.items():
        x, y = topo.coords(router)
        grid[y, x] = value
    peak = grid.max() or 1.0
    shades = " .:-=+*#%@"
    lines = []
    for row in grid[::-1]:  # y axis upward
        lines.append(
            "".join(shades[min(9, int(v / peak * 9.999))] for v in row)
        )
    return "\n".join(lines)


def main() -> None:
    topo = Mesh2D(8)
    schedule = BurstSchedule(on_s=3e-4, off_s=6e-4, repetitions=BURSTS)
    runs = run_hotspot_workload(
        "mesh:8",
        ["drb", "pr-drb"],
        HOTSPOT_FLOWS,
        rate_mbps=HOTSPOT_RATE_MBPS,
        schedule=schedule,
        noise_rate_mbps=HOTSPOT_NOISE_MBPS,
        idle_rate_mbps=HOTSPOT_IDLE_MBPS,
        drain_s=8e-4,
        notification="router",
        window_s=2.5e-5,
    )

    print("Per-burst mean latency (us):")
    print(f"{'burst':>5s} {'drb':>8s} {'pr-drb':>8s}")
    for b in range(BURSTS):
        start = b * schedule.period_s
        row = []
        for name in ("drb", "pr-drb"):
            t, v = runs[name].latency_series
            mask = (t >= start) & (t < start + schedule.period_s)
            row.append(v[mask].mean() * 1e6 if mask.any() else 0.0)
        print(f"{b + 1:5d} {row[0]:8.1f} {row[1]:8.1f}")

    stats = runs["pr-drb"].policy_stats
    print(
        f"\nPR-DRB learned {stats['patterns_learned']} congestion patterns, "
        f"re-applied saved solutions {stats['solutions_applied']} times."
    )
    for name in ("drb", "pr-drb"):
        r = runs[name]
        print(f"\n{name} latency map (peak {r.map_peak_s * 1e6:.1f} us):")
        print(ascii_map(r.contention_map, topo))


if __name__ == "__main__":
    main()
