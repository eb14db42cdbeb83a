"""BASE — extension benchmark: SE and GA vs the classic deterministic
heuristics across the workload classification grid.

Not a figure from the paper (its evaluation compares SE and GA only);
this grid positions both against HEFT / Min-min / Max-min / OLB / random
search so downstream users can see where the metaheuristics pay off.

All 56 (workload, algorithm) cells run through
:func:`repro.analysis.grid.run_grid` backed by :mod:`repro.runner` —
``REPRO_WORKERS=N`` shards them across N processes with identical
results (every algorithm here is iteration-capped, not wall-clock-
capped).
"""

from collections import defaultdict

from repro.analysis import geometric_mean, markdown_table
from repro.analysis.grid import run_grid
from repro.runner import AlgorithmSpec, workers_from_env
from repro.workloads import WorkloadSuite

SE_ITERS = 60
GA_GENS = 80

ALGORITHMS = {
    "SE": AlgorithmSpec.make("se", seed=1, max_iterations=SE_ITERS),
    "GA": AlgorithmSpec.make(
        "ga", seed=1, max_generations=GA_GENS, stall_generations=None
    ),
    "HEFT": AlgorithmSpec.make("heft"),
    "Min-min": AlgorithmSpec.make("minmin"),
    "Max-min": AlgorithmSpec.make("maxmin"),
    "OLB": AlgorithmSpec.make("olb"),
    "Random": AlgorithmSpec.make("random", samples=500, seed=1),
}


def run_baseline_grid():
    suite = WorkloadSuite(
        num_tasks=40,
        num_machines=8,
        connectivities=("low", "high"),
        heterogeneities=("low", "high"),
        ccrs=(0.1, 1.0),
        replicates=1,
        seed=77,
    )
    grid = run_grid(suite, ALGORITHMS, workers=workers_from_env())

    names = list(ALGORITHMS)
    by_workload = defaultdict(dict)
    for cell in grid.cells:
        by_workload[cell.workload][cell.algorithm] = cell
    rows = []
    slr = defaultdict(list)
    for wname in sorted(by_workload):
        cells = by_workload[wname]
        label = (
            f"{cells[names[0]].connectivity}conn/"
            f"{cells[names[0]].heterogeneity}het/ccr{cells[names[0]].ccr:g}"
        )
        row = [label]
        for name in names:
            n = cells[name].normalized
            slr[name].append(n)
            row.append(f"{n:.2f}")
        rows.append(row)
    return names, rows, slr


def test_baseline_grid(benchmark, write_output):
    names, rows, slr = benchmark.pedantic(
        run_baseline_grid, rounds=1, iterations=1
    )

    league = sorted((geometric_mean(v), k) for k, v in slr.items())
    text = (
        "BASE — scheduler league across the classification grid\n"
        "(normalized makespan; 1.0 = theoretical lower bound)\n\n"
        + markdown_table(["workload"] + names, rows)
        + "\n\ngeometric-mean league (lower = better):\n"
        + "\n".join(f"  {name:8s} {score:.3f}" for score, name in league)
        + "\n"
    )
    write_output("baselines_grid", text)

    gm = {name: geometric_mean(v) for name, v in slr.items()}
    # sanity floors: the metaheuristics and HEFT must beat blind sampling
    # and availability-only OLB on aggregate
    assert gm["SE"] < gm["Random"]
    assert gm["SE"] < gm["OLB"]
    assert gm["HEFT"] < gm["OLB"]
    assert gm["GA"] < gm["Random"]
