"""MICRO-PLATFORM / PLATFORM-STUDY — the cost-aware platform axis.

Two measurements of the platform/multi-objective refactor at paper
scale (100 tasks, 20 machines, the "spot" catalog):

* MICRO-PLATFORM  — batch cost scoring: the one NumPy gather of
  :meth:`~repro.schedule.scoring.CostModel.batch_costs` (the jit
  route's cost column) vs the per-schedule scalar loop, timed
  interleaved, plus the deterministic HEFT schedule cost (a usd-unit
  record exercising the perf gate's cost-direction rule);
* PLATFORM-STUDY  — the headline study: trace the (makespan, cost)
  Pareto front with one SA run per scalarization weight, every run
  sharing one :class:`~repro.optim.tracking.ParetoTracker`, and find
  the cheapest schedule within 1.2x of the pure-makespan run's
  makespan.  The acceptance claim: at least one non-dominated point
  beats the pure-makespan schedule on cost by >= 20% while staying
  within that makespan slack.

Bit-identity of the two cost paths is asserted before timing; wall
clock ratios land in ``BENCH_micro.json`` for the CI perf gate and the
study writes its front table as a human-readable artifact.
"""

import numpy as np

from repro.analysis.pareto import pareto_table
from repro.baselines import heft
from repro.optim import ParetoTracker, SAConfig, run_sa
from repro.optim.evaluation import EvaluationService
from repro.schedule.backend import platform_cost_vectorized, resolve_platform
from repro.schedule.scoring import CostModel
from repro.workloads import figure5_workload
from walkers import best_of_interleaved

PLATFORM = "spot"  # zero-boot: the jit route may price its batches


def paper_scale_workload():
    return figure5_workload(seed=1)


def _spot_cost_model(w):
    bound = resolve_platform(PLATFORM).bind(w.num_machines)
    scaled = bound.apply(w)
    return CostModel(scaled.exec_times.values, bound.prices)


def test_micro_platform_batch_cost_scoring(write_output, perf_log):
    """MICRO-PLATFORM: the batch cost gather vs the scalar loop."""
    w = paper_scale_workload()
    assert platform_cost_vectorized(PLATFORM)  # zero boot -> gather route
    cm = _spot_cost_model(w)
    size = 512
    rng = np.random.default_rng(3)
    machines = rng.integers(0, w.num_machines, size=(size, w.num_tasks))

    def scalar_loop():
        return [cm.cost(row) for row in machines]

    def batch():
        return cm.batch_costs(machines)

    assert scalar_loop() == batch().tolist()  # bit-identical dollars
    t_scalar, t_batch = best_of_interleaved(scalar_loop, batch)
    speedup = t_scalar / t_batch

    # the deterministic anchor: HEFT's schedule cost on this catalog is
    # a pure function of the pinned workload seed — exactly reproducible
    # anywhere, so it can sit in the committed baseline in usd
    ref = heft(w, platform=PLATFORM)

    perf_log("MICRO-PLATFORM", "speedup", round(speedup, 3), "x")
    perf_log(
        "MICRO-PLATFORM",
        "heft_schedule_cost",
        round(ref.cost, 4),
        "usd",
    )
    write_output(
        "micro_platform_batch_cost",
        "MICRO-PLATFORM — batch cost scoring: scalar loop vs one "
        "gather\n\n"
        f"batch of {size} machine assignments at paper scale "
        f"({w.num_tasks} tasks, {w.num_machines} machines, "
        f"platform {PLATFORM!r})\n"
        f"scalar : {t_scalar * 1e3:.3f} ms/batch "
        f"({t_scalar / size * 1e6:.2f} us/schedule)\n"
        f"batch  : {t_batch * 1e3:.3f} ms/batch "
        f"({t_batch / size * 1e6:.2f} us/schedule)\n"
        f"speedup: {speedup:.1f}x\n"
        f"HEFT reference cost: {ref.cost:.4f} usd "
        f"(makespan {ref.makespan:.3f})\n",
    )
    assert speedup >= 2.0  # loose floor; the perf gate holds the bar


def test_platform_pareto_study(write_output, perf_log):
    """PLATFORM-STUDY: the cheapest schedule within 1.2x of optimal span.

    One SA run per cost weight, all offering every scored point to one
    shared tracker; the pure-makespan run (weight 0) is the reference
    the savings are measured against.  Weights are normalized by the
    reference point so they read as "fraction of the scalar devoted to
    cost".
    """
    w = paper_scale_workload()
    tracker = ParetoTracker()
    proposals = 4000

    def sa_point(seed, objective="makespan"):
        service = EvaluationService(
            w,
            platform=PLATFORM,
            objective=objective,
            pareto=tracker,
            prefer_batch=False,  # SA is delta-tier; skip kernel packing
        )
        res = run_sa(
            w,
            SAConfig(
                seed=seed,
                max_iterations=proposals,
                record_every=100,
                platform=PLATFORM,
                objective=objective,
            ),
            service=service,
        )
        return service.score_of(res.best_string)

    ref = sa_point(seed=5)
    span_scale, cost_scale = 1.0 / ref.makespan, 1.0 / ref.cost
    sweep = []
    for i, wc in enumerate([0.1, 0.2, 0.3, 0.45, 0.6], start=1):
        objective = (
            f"weighted:{(1.0 - wc) * span_scale!r}:{wc * cost_scale!r}"
        )
        sweep.append((wc, sa_point(seed=5 + i, objective=objective)))

    front = tracker.front
    limit = 1.2 * ref.makespan
    qualifying = [
        p for p in front if p.makespan <= limit and p.cost <= 0.8 * ref.cost
    ]
    # the reference itself is on offer, so the slack band is never empty
    pick = min(
        (p for p in front if p.makespan <= limit),
        key=lambda p: (p.cost, p.makespan),
    )
    saving = (1.0 - pick.cost / ref.cost) * 100.0

    lines = [
        "PLATFORM-STUDY — cheapest schedule within 1.2x of the "
        "pure-makespan schedule\n",
        f"workload {w.name} ({w.num_tasks} tasks, {w.num_machines} "
        f"machines), platform {PLATFORM!r}, SA x {proposals} proposals "
        "per weight\n",
        f"pure-makespan reference: makespan {ref.makespan:.3f}, "
        f"cost {ref.cost:.4f} usd",
    ]
    for wc, sc in sweep:
        lines.append(
            f"  w_cost={wc:.2f}: makespan {sc.makespan:.3f}, "
            f"cost {sc.cost:.4f} usd"
        )
    lines.append(
        f"\npareto front ({len(front)} points, {tracker.offers} offers):"
    )
    lines.append(
        pareto_table(
            front,
            reference=next(
                (p for p in front if p.point == ref.point), front[0]
            ),
        )
    )
    lines.append(
        f"\ncheapest within 1.2x: makespan {pick.makespan:.3f} "
        f"({pick.makespan / ref.makespan:.3f}x of reference), "
        f"cost {pick.cost:.4f} usd ({saving:.1f}% cheaper)"
    )
    lines.append(
        f"claim (>= 20% cheaper within 1.2x): {saving >= 20.0}\n"
    )
    write_output("platform_pareto_study", "\n".join(lines))

    # the PR's acceptance criterion, asserted
    assert qualifying, (
        "no non-dominated point is >= 20% cheaper than the "
        "pure-makespan schedule within 1.2x of its makespan"
    )
    assert saving >= 20.0
