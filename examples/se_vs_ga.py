#!/usr/bin/env python
"""SE vs GA head-to-head under a shared wall-clock budget (paper §5.3).

Reproduces the methodology of Figures 5-7 at a configurable scale: both
algorithms get the same real-time budget on the same workload, and the
best-so-far curves are plotted against time.

Run:  python examples/se_vs_ga.py [--budget SECONDS] [--preset fig5|fig6|fig7]
"""

import argparse

from repro.analysis import Series, compare_named, line_plot
from repro.workloads import (
    figure5_workload,
    figure6_workload,
    figure7_workload,
    small_workload,
)

PRESETS = {
    "small": small_workload,
    "fig5": figure5_workload,
    "fig6": figure6_workload,
    "fig7": figure7_workload,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=6.0, help="seconds per algorithm")
    ap.add_argument("--preset", choices=sorted(PRESETS), default="fig5")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    workload = PRESETS[args.preset](seed=args.seed)
    print(workload.describe())
    print(f"\nrunning SE and GA for {args.budget:.1f}s each ...\n")

    cmp = compare_named(
        workload, ["se", "ga"], time_budget=args.budget, grid_points=16,
        seed=args.seed,
    )

    print(
        line_plot(
            [Series(s.name, s.time_grid, s.best_at) for s in cmp.series],
            title=f"best schedule length vs real time — {workload.name}",
            x_label="seconds",
            y_label="schedule length",
        )
    )

    for s in cmp.series:
        print(f"{s.name}: final best = {s.final_best:.1f} after {s.iterations} iterations")

    timeline = cmp.winner_timeline()
    print("\nwinner at each time point:", " ".join(str(w) for w in timeline))
    leader_changes = sum(
        1 for a, b in zip(timeline, timeline[1:]) if a != b and None not in (a, b)
    )
    print(f"lead changes: {leader_changes}")
    print(
        "\npaper's finding: SE wins early on high connectivity / heterogeneity "
        "/ CCR (fig5, fig6); on fig7 (low everything) the outcome is unclear "
        "and GA often leads."
    )


if __name__ == "__main__":
    main()
