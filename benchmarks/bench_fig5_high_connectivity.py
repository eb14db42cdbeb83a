"""FIG5 — SE vs GA on a high-connectivity workload (paper §5.3, Figure 5).

100 tasks, 20 machines, high connectivity.  Paper expectation: SE finds
better schedules than the GA early; as time grows the curves approach
each other.
"""

from repro.analysis import Series, compare_named, line_plot
from repro.workloads import figure5_workload

BUDGET_SECONDS = 6.0
GRID_POINTS = 12
SEED = 21


def run_fig5():
    workload = figure5_workload(seed=SEED)
    return workload, compare_named(
        workload,
        ["se", "ga"],
        time_budget=BUDGET_SECONDS,
        grid_points=GRID_POINTS,
        seed=33,
    )


def test_fig5_se_vs_ga_high_connectivity(benchmark, write_output):
    workload, cmp = benchmark.pedantic(run_fig5, rounds=1, iterations=1)

    chart = line_plot(
        [Series(s.name, s.time_grid, s.best_at) for s in cmp.series],
        title="Figure 5 — SE vs GA, high connectivity (100 tasks, 20 machines)",
        x_label="seconds",
        y_label="best schedule length",
    )
    timeline = cmp.winner_timeline()
    early = timeline[: GRID_POINTS // 2]
    se_early_leads = sum(1 for w in early if w == "SE")
    gap = cmp.advantage("SE", "GA")
    verdict = (
        f"paper: SE better early; curves approach each other over time\n"
        f"winner timeline: {timeline}\n"
        f"SE leads in {se_early_leads}/{len(early)} early grid points\n"
        f"final: SE={cmp.by_name('SE').final_best:.1f} "
        f"GA={cmp.by_name('GA').final_best:.1f}\n"
        f"GA/SE advantage per grid point: "
        f"{[f'{g:.3f}' for g in gap]}\n"
        f"matches: {se_early_leads >= len(early) // 2}\n"
    )
    write_output("fig5_se_vs_ga_high_connectivity", chart + "\n\n" + verdict)

    # loose sanity: both produced solutions; SE competitive at the end
    se = cmp.by_name("SE")
    ga = cmp.by_name("GA")
    assert se.final_best > 0 and ga.final_best > 0
    assert se.final_best <= 1.5 * ga.final_best
