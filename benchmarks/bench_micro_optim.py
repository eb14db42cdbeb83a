"""MICRO-SA / MICRO-TABU — microbenchmarks of the optim-core hot paths.

The two new engines lean on the evaluation tiers the optim core routes
for them, and these benches measure exactly those call patterns at
paper scale (100 tasks, 20 machines):

* MICRO-SA   — the annealing proposal stream: one random pairwise move
  scored against the current solution.  Compares the engine's
  incremental ``evaluate_delta`` path (anchored on the move's changed
  region) with naive full ``makespan`` calls.
* MICRO-TABU — the tabu neighborhood sweep: ``neighborhood_size``
  candidate strings scored per iteration.  ``delta_speedup`` measures
  the engine's path, one ``score_moves`` call (cutoff-pruned deltas
  against one incumbent snapshot under tabu's selection rule), against
  the batch route feeding :func:`~repro.schedule.neighborhood.
  select_move`, both on the compiled walker the engine runs on
  (MICRO-SA, like every bench not marked otherwise, runs on the Python
  walker).

Every case first asserts the two strategies agree bit-for-bit, then
times them interleaved (``walkers.best_of_interleaved``) and records
the wall-clock ratios as :mod:`repro.perf` records in
``benchmarks/output/BENCH_micro.json`` for the CI perf gate.
Assertion floors are deliberately far below the expected ratios so a
loaded CI machine cannot flake the tier-1 suite; the *gate* lives in
``repro perf check`` against the committed baseline.
"""

import numpy as np
import pytest

from repro.optim import EvaluationService
from repro.schedule.neighborhood import (
    applied_copy,
    changed_region,
    random_move,
    select_move,
)
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import Simulator
from repro.utils.rng import as_rng
from repro.workloads import figure5_workload
from walkers import best_of_interleaved


def paper_scale_workload():
    return figure5_workload(seed=1)


def test_micro_sa_proposal_stream(write_output, perf_log):
    """MICRO-SA: delta-scored proposals vs full re-evaluation."""
    w = paper_scale_workload()
    sim = Simulator(w)
    string = random_valid_string(w.graph, w.num_machines, 7)
    rng = as_rng(3)
    n_proposals = 200
    # the exact probe set an SA run would score against one incumbent:
    # a random move, its changed region, and the moved copy
    probes = []
    for _ in range(n_proposals):
        mv = random_move(string, w.graph, rng, reassign_prob=0.5)
        probes.append((*changed_region(string, mv), applied_copy(string, mv)))
    state = sim.prepare(string.order, string.machines)

    def full_pass():
        return [sim.makespan(c.order, c.machines) for _, _, c in probes]

    def delta_pass():
        return [
            sim.evaluate_delta(
                c.order, c.machines, first, state, region_end=last
            )
            for first, last, c in probes
        ]

    assert full_pass() == delta_pass()  # bit-identical proposal costs

    t_full, t_delta = best_of_interleaved(full_pass, delta_pass)
    speedup = t_full / t_delta

    perf_log("MICRO-SA", "delta_speedup", round(speedup, 3), "x")
    perf_log(
        "MICRO-SA",
        "delta_per_proposal",
        round(t_delta / n_proposals * 1e6, 2),
        "us",
    )
    write_output(
        "micro_sa_proposals",
        "MICRO-SA — annealing proposal stream: full re-evaluation vs "
        "incremental delta\n\n"
        f"{n_proposals} random pairwise-move proposals against one "
        f"incumbent at paper scale\n({w.num_tasks} tasks, "
        f"{w.num_machines} machines)\n"
        f"full  : {t_full * 1e3:.2f} ms/pass "
        f"({t_full / n_proposals * 1e6:.1f} us/proposal)\n"
        f"delta : {t_delta * 1e3:.2f} ms/pass "
        f"({t_delta / n_proposals * 1e6:.1f} us/proposal)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.0  # loose floor; the perf gate holds the bar


@pytest.mark.walker("compiled")
def test_micro_tabu_delta_route(write_output, perf_log):
    """MICRO-TABU: the engine's delta route vs the batch route, both
    feeding tabu's selection rule."""
    from repro.optim import TabuConfig, run_tabu

    w = paper_scale_workload()
    service = EvaluationService(w)
    rng = as_rng(13)
    neighborhood_size = 24
    tenure = 8
    # incumbents and best-so-far costs from a real tabu trajectory, so
    # the cutoffs prune as they do mid-run
    snaps = []
    run_tabu(
        w,
        TabuConfig(seed=2, max_iterations=80, tenure=tenure),
        observers=[
            lambda rec, s: snaps.append((s.copy(), rec.best_makespan))
        ],
    )
    hoods = []
    for base, best in snaps[9::10]:
        moves = [
            random_move(base, w.graph, rng, avoid_noop=True)
            for _ in range(neighborhood_size)
        ]
        tabu_tasks = set(rng.choice(w.num_tasks, tenure, replace=False))
        tabu = [mv.task in tabu_tasks for mv in moves]
        hoods.append((base, moves, tabu, best))

    def delta_pass():
        # one snapshot and one score_moves call per neighborhood, as the
        # engine makes per step
        return [
            service.score_moves(
                service.snapshot(base.order, base.machines),
                base.order,
                base.machines,
                moves,
                tabu,
                best,
            )
            for base, moves, tabu, best in hoods
        ]

    def batch_pass():
        out = []
        for base, moves, tabu, best in hoods:
            costs = service.batch_string_makespans(
                [applied_copy(base, mv) for mv in moves]
            )
            out.append(select_move(tabu, best, lambda i, _cut: costs[i]))
        return out

    assert delta_pass() == batch_pass()  # same move, cost, admissible

    t_batch, t_delta = best_of_interleaved(batch_pass, delta_pass)
    speedup = t_batch / t_delta
    n_cand = len(hoods) * neighborhood_size

    perf_log("MICRO-TABU", "delta_speedup", round(speedup, 3), "x")
    perf_log(
        "MICRO-TABU",
        "delta_per_candidate",
        round(t_delta / n_cand * 1e6, 2),
        "us",
    )
    write_output(
        "micro_tabu_delta_route",
        "MICRO-TABU — tabu neighborhoods: batch route vs the engine's "
        "cutoff-pruned delta route\n\n"
        f"{len(hoods)} neighborhoods x {neighborhood_size} candidates "
        f"around incumbents of a tabu run at paper scale\n"
        f"({w.num_tasks} tasks, {w.num_machines} machines)\n"
        f"batch : {t_batch * 1e3:.2f} ms/pass "
        f"({t_batch / n_cand * 1e6:.1f} us/candidate)\n"
        f"delta : {t_delta * 1e3:.2f} ms/pass "
        f"({t_delta / n_cand * 1e6:.1f} us/candidate)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.0  # loose floor; the perf gate holds the bar


def test_micro_engines_agree_across_backends():
    """SA and tabu optimise what they measure on both backends.

    Not a timing case: pins that each engine's reported best equals an
    independent re-evaluation under its configured network — the
    contract the sweep's league tables rely on.
    """
    from repro.extensions.contention import ContentionSimulator
    from repro.optim import SAConfig, TabuConfig, run_sa, run_tabu

    w = paper_scale_workload()
    sa = run_sa(w, SAConfig(seed=1, max_iterations=60))
    assert np.isclose(
        sa.best_makespan, Simulator(w).string_makespan(sa.best_string)
    )
    tabu = run_tabu(
        w, TabuConfig(seed=1, max_iterations=4, network="nic")
    )
    assert np.isclose(
        tabu.best_makespan,
        ContentionSimulator(w).string_makespan(tabu.best_string),
    )
