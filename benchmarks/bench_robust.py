"""ROBUST-STUDY / MICRO-SCENARIO — the stochastic scenario tier, measured.

Two questions, one file:

* **ROBUST-STUDY** — does optimising a risk statistic actually buy
  robustness?  A paired-seed comparison on a straggler-prone workload:
  for each seed, a deterministic SE run (objective ``makespan``) and a
  risk-aware SE run (objective ``quantile:0.95`` over 96 training
  scenarios) start from identical initial conditions; both winners are
  then judged **out of sample** — on 512 fresh scenarios drawn with a
  scenario seed neither arm trained on — via
  :func:`repro.analysis.compare_risk`.  The headline number is the
  geometric-mean p95 ratio (robust / deterministic; < 1 means the
  deterministic winner *loses* at p95).  The distribution is an
  empirical straggler table (10% chance a subtask runs 4x slow), the
  regime where hedging the tail genuinely conflicts with polishing the
  nominal plan.

* **MICRO-SCENARIO** — what does scenario scoring cost?  A B x S
  scoring sweep at paper scale through the default scenario route (a
  loop over per-scenario simulators on the compiled walker, without
  numba) vs the same loop on the Python walker, equal results asserted
  first.

Both record :mod:`repro.perf` records into
``benchmarks/output/BENCH_micro.json`` for the CI perf gate.  The
study's search and sampling are fully seeded, so its quality numbers
are reproducible; assertion floors still sit well below the measured
values so a numerically different BLAS cannot flake tier 1 — the gate
against ``benchmarks/baseline/BENCH_micro.json`` holds the real bar.
"""

import math

import pytest

from repro.analysis import compare_risk, risk_profile
from repro.core import SEConfig, SimulatedEvolution
from repro.optim import EvaluationService
from repro.schedule.operations import random_valid_string
from repro.stochastic import ScenarioEvaluator, sample_scenarios
from repro.workloads import figure5_workload, small_workload
from walkers import best_of_interleaved, python_walker

# the straggler model: each subtask has a 10% chance of running 4x slow
STRAGGLER = "empirical:1,1,1,1,1,1,1,1,1,4"
TRAIN_SCENARIOS, TRAIN_SEED = 96, 0
EVAL_SCENARIOS, EVAL_SEED = 512, 17
SEEDS = (1, 2, 3, 4, 5)


def _geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def test_robust_study(write_output, perf_log):
    """ROBUST-STUDY: deterministic SE's winner loses at p95.

    Paired seeds, out-of-sample judgement: the quantile:0.95 arm trains
    on ``scenario_seed=0`` and both winners are compared on 512
    scenarios drawn with ``seed=17`` — scenarios neither search saw.
    """
    w = small_workload(seed=1)
    nominal = EvaluationService(w)
    judge = ScenarioEvaluator(
        sample_scenarios(w, STRAGGLER, EVAL_SCENARIOS, seed=EVAL_SEED)
    )

    lines = [
        "ROBUST-STUDY — paired-seed SE: makespan objective vs "
        "quantile:0.95\n",
        f"workload: {w.num_tasks} tasks / {w.num_machines} machines, "
        f"distribution {STRAGGLER}",
        f"training: {TRAIN_SCENARIOS} scenarios (seed {TRAIN_SEED}); "
        f"judgement: {EVAL_SCENARIOS} fresh scenarios (seed {EVAL_SEED})\n",
        "seed  p95 ratio  mean ratio  nominal det  nominal robust",
    ]
    p95_ratios, insurance = [], []
    for seed in SEEDS:
        det = SimulatedEvolution(
            SEConfig(seed=seed, max_iterations=40)
        ).run(w)
        rob = SimulatedEvolution(
            SEConfig(
                seed=seed,
                max_iterations=40,
                objective="quantile:0.95",
                scenarios=TRAIN_SCENARIOS,
                distribution=STRAGGLER,
                scenario_seed=TRAIN_SEED,
            )
        ).run(w)
        ratios = compare_risk(judge, det.best_string, rob.best_string)
        n_det = nominal.string_makespan(det.best_string)
        n_rob = nominal.string_makespan(rob.best_string)
        p95_ratios.append(ratios["p95"])
        insurance.append(n_rob / n_det)
        lines.append(
            f"{seed:4d}  {ratios['p95']:9.4f}  {ratios['mean']:10.4f}"
            f"  {n_det:11.2f}  {n_rob:14.2f}"
        )

    gm = _geomean(p95_ratios)
    wins = sum(r < 1.0 for r in p95_ratios)
    price = _geomean(insurance)
    # headline: out-of-sample p95 *gain* of the robust arm (>1 = better)
    gain = 1.0 / gm
    sample_profile = risk_profile(
        judge,
        SimulatedEvolution(SEConfig(seed=SEEDS[0], max_iterations=40))
        .run(w)
        .best_string,
    )
    lines += [
        "",
        f"geomean p95 ratio: {gm:.4f}  (robust wins {wins}/{len(SEEDS)} "
        "seeds)",
        f"out-of-sample p95 gain: {gain:.3f}x",
        f"price of insurance (nominal robust/det): {price:.4f}",
        "",
        "deterministic winner's out-of-sample profile (seed "
        f"{SEEDS[0]}):",
        *sample_profile.format_lines("  "),
    ]
    write_output("robust_study", "\n".join(lines) + "\n")
    perf_log("ROBUST-STUDY", "p95_gain_geomean", round(gain, 3), "x")

    # the study's claim: across paired seeds the deterministic winner
    # loses at p95 — in aggregate and on a majority of seeds (measured:
    # geomean ~0.92, 4/5 wins; floors kept loose for numeric drift)
    assert gm <= 0.98
    assert wins * 2 > len(SEEDS)


@pytest.mark.walker("compiled")
def test_micro_scenario_batch_vs_scalar_loop(write_output, perf_log):
    """MICRO-SCENARIO: B x S scoring, the default route vs the
    Python-walker loop."""
    w = figure5_workload(seed=1)
    S, B = 16, 64
    scen = sample_scenarios(w, "lognormal:0.25", scenarios=S, seed=3)
    fast = ScenarioEvaluator(scen)
    with python_walker():
        slow = ScenarioEvaluator(scen, prefer_batch=False)
    strings = [
        random_valid_string(w.graph, w.num_machines, seed)
        for seed in range(B)
    ]
    assert (
        fast.string_matrix(strings).tolist()
        == slow.string_matrix(strings).tolist()
    )

    t_scalar, t_batch = best_of_interleaved(
        lambda: slow.string_matrix(strings),
        lambda: fast.string_matrix(strings),
        budget=1.0,
    )
    speedup = t_scalar / t_batch
    per_eval = t_batch / (S * B) * 1e6

    perf_log("MICRO-SCENARIO", "speedup", round(speedup, 3), "x")
    perf_log("MICRO-SCENARIO", "batch_per_eval", round(per_eval, 2), "us")
    write_output(
        "micro_scenario_batch",
        "MICRO-SCENARIO — B x S scenario scoring: the default route vs "
        "the Python-walker loop\n\n"
        f"{B} schedules x {S} scenarios at paper scale ({w.num_tasks} "
        f"tasks, {w.num_machines} machines)\n"
        f"python loop  : {t_scalar * 1e3:.2f} ms/sweep\n"
        f"default route: {t_batch * 1e3:.2f} ms/sweep "
        f"({per_eval:.1f} us per schedule-scenario)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 2.0  # loose floor; the perf gate holds the bar
