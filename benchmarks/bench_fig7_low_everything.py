"""FIG7 — SE vs GA on low connectivity/heterogeneity, CCR = 0.1 (Figure 7).

Paper expectation: on "low everything" workloads the picture is *not*
clear — "many times, GA reached good solutions faster than SE".  The
benchmark therefore records who led when, and only asserts that both
algorithms stayed within a sane band of each other.
"""

from repro.analysis import Series, compare_named, line_plot
from repro.workloads import figure7_workload

BUDGET_SECONDS = 6.0
GRID_POINTS = 12
SEED = 21


def run_fig7():
    workload = figure7_workload(seed=SEED)
    return workload, compare_named(
        workload,
        ["se", "ga"],
        time_budget=BUDGET_SECONDS,
        grid_points=GRID_POINTS,
        seed=35,
    )


def test_fig7_se_vs_ga_low_everything(benchmark, write_output):
    workload, cmp = benchmark.pedantic(run_fig7, rounds=1, iterations=1)

    chart = line_plot(
        [Series(s.name, s.time_grid, s.best_at) for s in cmp.series],
        title=(
            "Figure 7 — SE vs GA, low connectivity/heterogeneity, CCR=0.1"
        ),
        x_label="seconds",
        y_label="best schedule length",
    )
    timeline = cmp.winner_timeline()
    ga_leads = sum(1 for w in timeline if w == "GA")
    se_final = cmp.by_name("SE").final_best
    ga_final = cmp.by_name("GA").final_best
    rel_gap = abs(se_final - ga_final) / min(se_final, ga_final)
    verdict = (
        f"paper: no clear winner; GA often reaches good solutions faster\n"
        f"winner timeline: {timeline}\n"
        f"GA leads at {ga_leads}/{len(timeline)} grid points\n"
        f"final: SE={se_final:.1f} GA={ga_final:.1f} "
        f"(relative gap {rel_gap:.1%})\n"
        f"matches: {ga_leads > 0 or rel_gap < 0.05}\n"
    )
    write_output("fig7_se_vs_ga_low_everything", chart + "\n\n" + verdict)

    # the 'unclear outcome' claim: neither algorithm dominates by > 25%
    assert rel_gap < 0.25
