"""FIG6 — SE vs GA on a CCR = 1 workload (paper §5.3, Figure 6).

100 tasks, 20 machines, communication comparable to computation.  Paper
expectation: as for high connectivity, SE reaches good schedules sooner;
curves converge with time.
"""

from repro.analysis import Series, compare_named, line_plot
from repro.workloads import figure6_workload

BUDGET_SECONDS = 6.0
GRID_POINTS = 12
SEED = 21


def run_fig6():
    workload = figure6_workload(seed=SEED)
    return workload, compare_named(
        workload,
        ["se", "ga"],
        time_budget=BUDGET_SECONDS,
        grid_points=GRID_POINTS,
        seed=34,
    )


def test_fig6_se_vs_ga_ccr_one(benchmark, write_output):
    workload, cmp = benchmark.pedantic(run_fig6, rounds=1, iterations=1)

    chart = line_plot(
        [Series(s.name, s.time_grid, s.best_at) for s in cmp.series],
        title="Figure 6 — SE vs GA, CCR = 1 (100 tasks, 20 machines)",
        x_label="seconds",
        y_label="best schedule length",
    )
    timeline = cmp.winner_timeline()
    early = timeline[: GRID_POINTS // 2]
    se_early_leads = sum(1 for w in early if w == "SE")
    verdict = (
        f"paper: SE better with less time for high-CCR workloads\n"
        f"winner timeline: {timeline}\n"
        f"SE leads in {se_early_leads}/{len(early)} early grid points\n"
        f"final: SE={cmp.by_name('SE').final_best:.1f} "
        f"GA={cmp.by_name('GA').final_best:.1f}\n"
        f"matches: {se_early_leads >= len(early) // 2}\n"
    )
    write_output("fig6_se_vs_ga_ccr1", chart + "\n\n" + verdict)

    se = cmp.by_name("SE")
    ga = cmp.by_name("GA")
    assert se.final_best > 0 and ga.final_best > 0
    assert se.final_best <= 1.5 * ga.final_best
