"""Integration tests: full pipelines across several modules."""

import pytest

from repro.analysis import compare_named, summarize, win_loss
from repro.baselines import GAConfig, heft, min_min, olb, random_search, run_ga
from repro.core import SEConfig, run_se
from repro.schedule import Simulator, compute_metrics, verify_schedule
from repro.workloads import (
    WorkloadSpec,
    build_workload,
    smoke_suite,
)


class TestFullPipeline:
    def test_generate_schedule_analyze(self):
        """Workload generation -> SE -> metrics, all consistent."""
        w = build_workload(
            WorkloadSpec(num_tasks=30, num_machines=5, seed=42)
        )
        res = run_se(w, SEConfig(seed=42, max_iterations=40))
        verify_schedule(w, res.best_schedule)
        m = compute_metrics(w, res.best_schedule)
        assert m.normalized_makespan >= 1.0
        assert m.makespan == pytest.approx(res.best_makespan)

    def test_all_algorithms_one_workload(self, tiny_workload):
        """Every algorithm returns a feasible schedule on one instance,
        and all makespans respect the common lower bound."""
        from repro.schedule.metrics import makespan_lower_bound

        lb = makespan_lower_bound(tiny_workload)
        results = {
            "se": run_se(tiny_workload, SEConfig(seed=1, max_iterations=30)).best_makespan,
            "ga": run_ga(tiny_workload, GAConfig(seed=1, max_generations=30)).best_makespan,
            "heft": heft(tiny_workload).makespan,
            "minmin": min_min(tiny_workload).makespan,
            "olb": olb(tiny_workload).makespan,
            "random": random_search(tiny_workload, samples=100, seed=1).makespan,
        }
        for name, m in results.items():
            assert m >= lb - 1e-9, name

    def test_iterative_heuristics_beat_random_sampling(self, tiny_workload):
        """At equal evaluation budget SE must beat blind random sampling."""
        se = run_se(tiny_workload, SEConfig(seed=7, max_iterations=40))
        rnd = random_search(tiny_workload, samples=se.evaluations, seed=7)
        assert se.best_makespan <= rnd.makespan

    def test_suite_aggregate_analysis(self):
        """Run HEFT vs OLB across a suite and aggregate with the stats
        helpers — the downstream user's typical experiment loop."""
        heft_vals, olb_vals = [], []
        for cell in smoke_suite(seed=3):
            w = cell.build()
            heft_vals.append(heft(w).makespan)
            olb_vals.append(olb(w).makespan)
        rec = win_loss(heft_vals, olb_vals)
        assert rec.n == 8
        assert rec.win_rate() >= 0.5  # HEFT should not lose to OLB overall
        assert summarize(heft_vals).mean <= summarize(olb_vals).mean

    def test_se_vs_ga_comparison_machinery(self, tiny_workload):
        cmp = compare_named(
            tiny_workload, ["se", "ga"], time_budget=0.5, grid_points=5, seed=9
        )
        assert cmp.workload_name == tiny_workload.name
        assert len(cmp.winner_timeline()) == 5


class TestCrossAlgorithmConsistency:
    def test_shared_simulator_semantics(self, tiny_workload):
        """Baseline builders and the simulator must agree: re-evaluating
        any baseline's string reproduces its reported makespan."""
        sim = Simulator(tiny_workload)
        for algo in (heft, min_min, olb):
            res = algo(tiny_workload)
            assert sim.string_makespan(res.string) == pytest.approx(res.makespan)

    def test_se_quality_not_absurd(self, tiny_workload):
        """SE after a modest budget lands within 2x of HEFT (sanity —
        typically it is at or below)."""
        se = run_se(tiny_workload, SEConfig(seed=11, max_iterations=60))
        assert se.best_makespan <= 2.0 * heft(tiny_workload).makespan
