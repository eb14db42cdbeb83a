"""Scalarized objectives and the ObjectiveBackend wrapper.

The wrapper's contract: every scalar an engine *compares* is the
scalarized objective, every schedule it *decodes* is the real one, and
the delta tier's branch-and-bound stays exact — a pruned probe under a
scalarized cutoff is exactly a probe that would not have improved the
scalar.
"""

import numpy as np
import pytest

from repro.optim import ParetoTracker, SAConfig, TabuConfig, run_sa, run_tabu
from repro.optim.evaluation import EvaluationService
from repro.optim.objective import (
    MAKESPAN,
    ObjectiveBackend,
    WeightedObjective,
    resolve_objective,
    weighted,
)
from repro.schedule.operations import random_valid_string
from repro.workloads import WorkloadSpec, build_workload

OBJ = "weighted:0.01:0.02"


@pytest.fixture
def workload():
    return build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=7))


def strings(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        random_valid_string(workload.graph, workload.num_machines, rng)
        for _ in range(n)
    ]


class TestResolve:
    def test_makespan_is_the_singleton_identity(self):
        obj = resolve_objective("makespan")
        assert obj is MAKESPAN and obj.is_makespan
        assert obj.scalarize(7.0, 1e9) == 7.0
        assert obj.span_cutoff(5.0, 1e9) == 5.0

    def test_weighted_string_form(self):
        obj = resolve_objective("weighted:0.7:0.3")
        assert obj == weighted(0.7, 0.3)
        assert not obj.is_makespan
        assert obj.scalarize(100.0, 10.0) == pytest.approx(73.0)
        # name round-trips through the parser (the JSON/CLI contract)
        assert resolve_objective(obj.name) == obj

    def test_instances_pass_through(self):
        obj = weighted(1.0, 2.0)
        assert resolve_objective(obj) is obj
        assert resolve_objective(MAKESPAN) is MAKESPAN

    @pytest.mark.parametrize(
        "bad",
        ["nope", "weighted:1", "weighted:a:b", "weighted:1:2:3", ""],
    )
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_objective(bad)

    def test_non_strings_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            resolve_objective(None)


class TestWeightedObjective:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="w_makespan"):
            weighted(-1.0, 0.5)
        with pytest.raises(ValueError, match="w_cost"):
            weighted(0.5, float("nan"))
        with pytest.raises(ValueError, match="at least one"):
            weighted(0.0, 0.0)

    def test_span_cutoff_inverts_the_scalar(self):
        obj = weighted(2.0, 0.5)
        cost = 10.0
        cutoff = 100.0
        span_bound = obj.span_cutoff(cutoff, cost)
        # a span exactly at the bound scalarizes to (just above) cutoff
        assert obj.scalarize(span_bound, cost) >= cutoff
        assert obj.span_cutoff(float("inf"), cost) == float("inf")

    def test_span_cutoff_with_zero_makespan_weight(self):
        obj = WeightedObjective(0.0, 1.0)
        # cost already beats the cutoff: nothing should be pruned
        assert obj.span_cutoff(100.0, 50.0) == float("inf")
        # cost alone misses the cutoff: every span is a dead end
        assert obj.span_cutoff(100.0, 200.0) == -float("inf")


class TestObjectiveBackend:
    def service(self, workload, **kw):
        kw.setdefault("platform", "spot")
        kw.setdefault("objective", OBJ)
        return EvaluationService(workload, **kw)

    def test_default_service_is_unwrapped(self, workload):
        svc = EvaluationService(workload)
        assert not isinstance(svc.backend, ObjectiveBackend)
        svc = EvaluationService(workload, platform="spot")
        assert not isinstance(svc.backend, ObjectiveBackend)

    def test_wrapped_when_objective_or_pareto(self, workload):
        assert isinstance(
            self.service(workload).backend, ObjectiveBackend
        )
        svc = EvaluationService(workload, pareto=ParetoTracker())
        assert isinstance(svc.backend, ObjectiveBackend)
        assert svc.cost_model.is_free  # uniform: zero billing table

    def test_scalar_is_objective_schedule_is_real(self, workload):
        svc = self.service(workload)
        (s,) = strings(workload, 1)
        score = svc.score_of(s)  # real (makespan, cost), uncounted
        assert svc.string_makespan(s) == pytest.approx(
            svc.scalarize(score.makespan, score.cost)
        )
        # decoded schedule keeps the true makespan, not the scalar
        assert svc.schedule_of(s).makespan == score.makespan

    def test_delta_tier_matches_full_eval(self, workload):
        svc = self.service(workload)
        base, probe = strings(workload, 2, seed=3)
        state = svc.prepare(base.order, base.machines)
        got = svc.evaluate_delta(probe.order, probe.machines, 0, state)
        assert got == pytest.approx(
            svc.string_makespan(probe), rel=0, abs=0
        )

    def test_delta_cutoff_prunes_exactly_non_improving(self, workload):
        svc = self.service(workload)
        base, *probes = strings(workload, 12, seed=4)
        cutoff = svc.string_makespan(base)
        for p in probes:
            full = svc.string_makespan(p)
            state2 = svc.prepare(base.order, base.machines)
            got = svc.evaluate_delta(
                p.order, p.machines, 0, state2, cutoff=cutoff
            )
            if full < cutoff:
                assert got == full  # improving probes come back exact
            else:
                assert got == float("inf")  # the rest are pruned

    # spot has no boot; cloud's boot delays are initial state
    ROUTES = pytest.mark.parametrize(
        "network,platform",
        [
            (network, platform)
            for network in ("contention-free", "nic")
            for platform in ("spot", "cloud")
        ],
    )

    @ROUTES
    def test_batch_columns_scalarized(self, workload, network, platform):
        svc = self.service(workload, network=network, platform=platform)
        ss = strings(workload, 8, seed=5)
        want = [
            svc.scalarize(sc.makespan, sc.cost)
            for sc in map(svc.score_of, ss)
        ]
        assert svc.batch_string_makespans(ss) == want
        orders = [list(s.order) for s in ss]
        machines = [list(s.machines) for s in ss]
        assert svc.batch_makespans(orders, machines) == want

    @ROUTES
    def test_every_scored_point_offered_to_pareto(
        self, workload, network, platform
    ):
        tracker = ParetoTracker()
        svc = self.service(
            workload, network=network, platform=platform, pareto=tracker
        )
        ss = strings(workload, 6, seed=6)
        singles = [svc.string_makespan(s) for s in ss]
        assert svc.batch_string_makespans(ss) == singles
        assert tracker.offers == 12
        assert all(
            not tracker.dominated(p.makespan - 1e-9, p.cost - 1e-9)
            for p in tracker.front
        )


class TestCostAwareEngines:
    """SA and tabu optimise the weighted scalar without engine changes."""

    @pytest.mark.parametrize(
        "cfg_cls,run",
        [(SAConfig, run_sa), (TabuConfig, run_tabu)],
        ids=["sa", "tabu"],
    )
    def test_cost_weight_buys_cheaper_schedules(self, workload, cfg_cls, run):
        def best_score(objective):
            svc = EvaluationService(
                workload,
                platform="spot",
                objective=objective,
            )
            res = run(
                workload,
                cfg_cls(
                    seed=1,
                    max_iterations=600,
                    platform="spot",
                    objective=objective,
                ),
                service=svc,
            )
            return svc.score_of(res.best_string)

        span_only = best_score("makespan")
        cost_heavy = best_score(
            f"weighted:{0.2 / span_only.makespan}:{0.8 / span_only.cost}"
        )
        assert cost_heavy.cost < span_only.cost

    def test_configs_validate_objective(self):
        with pytest.raises(ValueError):
            SAConfig(objective="weighted:oops")
        with pytest.raises(ValueError):
            TabuConfig(platform="nope")
