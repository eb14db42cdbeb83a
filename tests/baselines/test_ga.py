"""Unit tests for the GA baseline (Wang et al. 1997)."""

from collections import Counter

import numpy as np
import pytest

from repro.baselines.ga import (
    Chromosome,
    GAConfig,
    GeneticAlgorithm,
    initial_population,
    is_valid_chromosome,
    matching_crossover,
    matching_mutation,
    random_chromosome,
    run_ga,
    scheduling_crossover,
    scheduling_mutation,
)
from repro.optim import EvaluationService
from repro.schedule import Simulator, is_valid_for, verify_schedule
from tests.routes import jit_kernel, no_batch_kernel, walker


class TestGAConfig:
    def test_defaults_valid(self):
        GAConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"population_size": 1}, "population_size"),
            ({"crossover_prob": 1.5}, "crossover_prob"),
            ({"mutation_prob": -0.1}, "mutation_prob"),
            ({"elite_count": 50}, "elite_count"),
            ({"max_generations": -1}, "max_generations"),
            ({"time_limit": -2.0}, "time_limit"),
            ({"stall_generations": 0}, "stall_generations"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GAConfig(**kwargs)


class TestChromosome:
    def test_random_chromosome_valid(self, tiny_workload, rng):
        for _ in range(20):
            c = random_chromosome(tiny_workload.graph, tiny_workload.num_machines, rng)
            assert is_valid_chromosome(
                c, tiny_workload.graph, tiny_workload.num_machines
            )

    def test_initial_population_size(self, tiny_workload, rng):
        pop = initial_population(tiny_workload.graph, 4, 12, rng)
        assert len(pop) == 12

    def test_initial_population_zero_rejected(self, tiny_workload, rng):
        with pytest.raises(ValueError, match=">= 1"):
            initial_population(tiny_workload.graph, 4, 0, rng)

    def test_to_string_roundtrip(self, tiny_workload, rng):
        c = random_chromosome(tiny_workload.graph, tiny_workload.num_machines, rng)
        s = c.to_string(tiny_workload.num_machines)
        assert list(s.order) == c.scheduling
        assert list(s.machines) == c.matching
        assert is_valid_for(s, tiny_workload.graph)

    def test_copy_independent(self, tiny_workload, rng):
        c = random_chromosome(tiny_workload.graph, 4, rng)
        d = c.copy()
        d.matching[0] = (d.matching[0] + 1) % 4
        assert c.matching[0] != d.matching[0] or 4 == 1

    def test_key_hashable_identity(self, tiny_workload, rng):
        c = random_chromosome(tiny_workload.graph, 4, rng)
        assert c.key() == c.copy().key()

    def test_invalid_chromosome_detected(self, tiny_workload):
        k = tiny_workload.num_tasks
        bad_machine = Chromosome(matching=[99] * k, scheduling=list(range(k)))
        assert not is_valid_chromosome(bad_machine, tiny_workload.graph, 4)
        wrong_len = Chromosome(matching=[0], scheduling=list(range(k)))
        assert not is_valid_chromosome(wrong_len, tiny_workload.graph, 4)


class TestOperators:
    def test_matching_crossover_swaps_suffix(self, tiny_workload):
        rng = np.random.default_rng(0)
        a = random_chromosome(tiny_workload.graph, 4, rng)
        b = random_chromosome(tiny_workload.graph, 4, rng)
        ca, cb = matching_crossover(a, b, np.random.default_rng(1))
        k = tiny_workload.num_tasks
        # children are a pointwise mix of the parents
        for t in range(k):
            assert ca.matching[t] in (a.matching[t], b.matching[t])
            assert cb.matching[t] in (a.matching[t], b.matching[t])
        # and complementary
        for t in range(k):
            if ca.matching[t] == b.matching[t] != a.matching[t]:
                assert cb.matching[t] == a.matching[t]

    def test_matching_crossover_keeps_scheduling(self, tiny_workload, rng):
        a = random_chromosome(tiny_workload.graph, 4, rng)
        b = random_chromosome(tiny_workload.graph, 4, rng)
        ca, cb = matching_crossover(a, b, rng)
        assert ca.scheduling == a.scheduling
        assert cb.scheduling == b.scheduling

    def test_scheduling_crossover_children_valid(self, tiny_workload):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            a = random_chromosome(tiny_workload.graph, 4, rng)
            b = random_chromosome(tiny_workload.graph, 4, rng)
            ca, cb = scheduling_crossover(a, b, rng)
            assert is_valid_chromosome(ca, tiny_workload.graph, 4)
            assert is_valid_chromosome(cb, tiny_workload.graph, 4)

    def test_scheduling_crossover_preserves_matching(self, tiny_workload, rng):
        a = random_chromosome(tiny_workload.graph, 4, rng)
        b = random_chromosome(tiny_workload.graph, 4, rng)
        ca, cb = scheduling_crossover(a, b, rng)
        assert ca.matching == a.matching
        assert cb.matching == b.matching

    def test_crossover_resets_cost(self, tiny_workload, rng):
        a = random_chromosome(tiny_workload.graph, 4, rng)
        b = random_chromosome(tiny_workload.graph, 4, rng)
        a.cost, b.cost = 10.0, 20.0
        ca, cb = matching_crossover(a, b, rng)
        assert ca.cost is None and cb.cost is None

    def test_length_mismatch_rejected(self, tiny_workload, rng):
        a = random_chromosome(tiny_workload.graph, 4, rng)
        b = Chromosome(matching=[0], scheduling=[0])
        with pytest.raises(ValueError, match="length"):
            matching_crossover(a, b, rng)
        with pytest.raises(ValueError, match="length"):
            scheduling_crossover(a, b, rng)

    def test_matching_mutation_in_range(self, tiny_workload, rng):
        c = random_chromosome(tiny_workload.graph, 4, rng)
        for _ in range(50):
            matching_mutation(c, 4, rng)
            assert all(0 <= m < 4 for m in c.matching)

    def test_scheduling_mutation_stays_valid(self, tiny_workload, rng):
        c = random_chromosome(tiny_workload.graph, 4, rng)
        for _ in range(50):
            scheduling_mutation(c, tiny_workload.graph, 4, rng)
            assert tiny_workload.graph.is_valid_order(c.scheduling)


class TestGAEngine:
    def test_best_schedule_verifies(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=1, max_generations=15))
        verify_schedule(tiny_workload, res.best_schedule)

    def test_best_string_valid(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=1, max_generations=15))
        assert is_valid_for(res.best_string, tiny_workload.graph)

    def test_makespan_consistent(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=1, max_generations=15))
        sim = Simulator(tiny_workload)
        assert res.best_makespan == pytest.approx(
            sim.string_makespan(res.best_string)
        )

    def test_deterministic_per_seed(self, tiny_workload):
        a = run_ga(tiny_workload, GAConfig(seed=4, max_generations=10))
        b = run_ga(tiny_workload, GAConfig(seed=4, max_generations=10))
        assert a.best_makespan == b.best_makespan
        assert a.trace.best_makespans() == b.trace.best_makespans()

    def test_best_monotone(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=2, max_generations=30))
        best = res.trace.best_makespans()
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best, best[1:]))

    def test_elitism_keeps_best(self, tiny_workload):
        """With elitism the generation-best never exceeds the historical
        best by construction; the trace must reflect that."""
        res = run_ga(
            tiny_workload, GAConfig(seed=3, max_generations=30, elite_count=1)
        )
        cur = res.trace.current_makespans()
        best = res.trace.best_makespans()
        for c, b in zip(cur, best):
            assert c >= b - 1e-9

    def test_improves_over_generations(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=5, max_generations=60))
        assert res.trace.improvement_ratio() > 1.0

    def test_stops_by_stall(self, tiny_workload):
        res = run_ga(
            tiny_workload,
            GAConfig(seed=1, max_generations=10**5, stall_generations=3),
        )
        assert res.stopped_by == "stall"

    def test_stops_by_time(self, tiny_workload):
        res = run_ga(
            tiny_workload,
            GAConfig(
                seed=1,
                max_generations=10**9,
                stall_generations=None,
                time_limit=0.2,
            ),
        )
        assert res.stopped_by == "time"

    def test_seed_population_used(self, tiny_workload, rng):
        seeds = initial_population(tiny_workload.graph, 4, 5, rng)
        engine = GeneticAlgorithm(GAConfig(seed=1, max_generations=2))
        res = engine.run(tiny_workload, initial=seeds)
        assert res.generations == 2

    def test_zero_generations(self, tiny_workload):
        res = run_ga(tiny_workload, GAConfig(seed=1, max_generations=0))
        assert res.generations == 0
        assert is_valid_for(res.best_string, tiny_workload.graph)


class TestUnkernelledSettings:
    """Boot delays (the ``cloud`` platform) and residual machine state
    keep every batch on the service's scalar loop, with or without
    numba.  There the GA's results are the same on both walker tiers,
    and it counts one evaluation per chromosome it scores."""

    @pytest.mark.parametrize("setting", ["cloud", "residual"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_identical_across_walker_tiers(
        self, tiny_workload, setting, seed, monkeypatch
    ):
        cfg = GAConfig(
            max_generations=15,
            stall_generations=None,
            seed=seed,
            platform="cloud" if setting == "cloud" else "uniform",
        )
        if setting == "residual":
            busy = [0.5 * m for m in range(tiny_workload.num_machines)]
            build = GAConfig.evaluation_service
            monkeypatch.setattr(
                GAConfig,
                "evaluation_service",
                lambda self, w, **kw: build(self, w, initial_avail=busy, **kw),
            )
        calls = _spy_service(monkeypatch)
        runs = {}
        for tier in ("compiled", "python"):
            with walker(tier), jit_kernel():
                calls.clear()
                runs[tier] = run_ga(tiny_workload, cfg)
            assert runs[tier].kernel_tier == "sequential"
            assert runs[tier].evaluations == calls["rows"]
            assert calls["evaluate_delta"] == 0
        fast, slow = runs["compiled"], runs["python"]
        assert fast.best_makespan == slow.best_makespan
        assert fast.best_string == slow.best_string
        assert fast.trace.current_makespans() == slow.trace.current_makespans()
        assert fast.evaluations == slow.evaluations


class TestBatchFitness:
    """The batch population-fitness route must be invisible in results:
    identical traces, best makespans and final strings on the kernel
    and on the scalar loop."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_batch_path_equals_scalar_path(self, tiny_workload, seed):
        cfg = GAConfig(max_generations=25, stall_generations=None, seed=seed)
        with jit_kernel():
            batch = run_ga(tiny_workload, cfg)
        with no_batch_kernel():
            scalar = run_ga(tiny_workload, cfg)
        assert batch.best_makespan == scalar.best_makespan  # bit-identical
        assert batch.trace.best_makespans() == scalar.trace.best_makespans()
        assert (
            batch.trace.current_makespans()
            == scalar.trace.current_makespans()
        )
        assert batch.best_string == scalar.best_string
        # both routes count exactly one call per chromosome
        assert scalar.evaluations == batch.evaluations

    def test_batch_path_is_default(self, tiny_workload, monkeypatch):
        """Each generation is one batch call (plus one for the initial
        population) and no delta, whichever route serves the batch."""
        calls = _spy_service(monkeypatch)
        cfg = GAConfig(population_size=30, max_generations=5, seed=3)
        for route in ("jit", "sequential"):
            calls.clear()
            with jit_kernel() if route == "jit" else no_batch_kernel():
                res = run_ga(tiny_workload, cfg)
            assert res.kernel_tier == route
            assert calls["batch_makespans"] == 1 + 5
            assert calls["evaluate_delta"] == 0
            assert res.evaluations == calls["rows"]

    def test_batch_fitness_under_nic_keeps_results(self, tiny_workload):
        cfg = GAConfig(
            max_generations=10, stall_generations=None, seed=3, network="nic"
        )
        with jit_kernel():
            batch = run_ga(tiny_workload, cfg)
        with no_batch_kernel("nic"):
            scalar = run_ga(tiny_workload, cfg)
        assert batch.best_makespan == scalar.best_makespan
        assert batch.best_string == scalar.best_string
        assert batch.evaluations == scalar.evaluations


def _spy_service(monkeypatch) -> Counter:
    """Count ``EvaluationService`` batch and delta calls, and the rows
    the batch calls score (``"rows"``)."""
    calls: Counter = Counter()
    for name in ("batch_makespans", "evaluate_delta"):
        orig = getattr(EvaluationService, name)

        def spy(self, *args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "batch_makespans":
                calls["rows"] += len(args[0])
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationService, name, spy)
    return calls


class TestObservers:
    """The GA observer hooks (ISSUE-4 satellite): same protocol as SE."""

    def test_observer_sees_every_generation(self, tiny_workload):
        records = []
        run_ga(
            tiny_workload,
            GAConfig(
                seed=1,
                population_size=6,
                max_generations=9,
                stall_generations=None,
            ),
            observers=[lambda rec, s: records.append((rec, s))],
        )
        assert [r.iteration for r, _ in records] == list(range(1, 10))

    def test_observer_string_is_generation_best(self, tiny_workload):
        sim = Simulator(tiny_workload)
        seen = []

        def check(rec, string):
            assert is_valid_for(string, tiny_workload.graph)
            assert sim.string_makespan(string) == rec.current_makespan
            seen.append(rec.iteration)

        run_ga(
            tiny_workload,
            GAConfig(
                seed=2,
                population_size=6,
                max_generations=5,
                stall_generations=None,
            ),
            observers=[check],
        )
        assert seen == [1, 2, 3, 4, 5]

    def test_existing_se_observers_work_on_ga(self, tiny_workload):
        from repro.core.observers import StallDetector

        det = StallDetector()
        run_ga(
            tiny_workload,
            GAConfig(
                seed=1,
                population_size=6,
                max_generations=8,
                stall_generations=None,
            ),
            observers=[det],
        )
        assert det.longest_streak >= det.current_streak >= 0

    def test_observers_do_not_change_the_run(self, tiny_workload):
        cfg = dict(
            seed=7, population_size=6, max_generations=6,
            stall_generations=None,
        )
        plain = run_ga(tiny_workload, GAConfig(**cfg))
        observed = run_ga(
            tiny_workload, GAConfig(**cfg), observers=[lambda rec, s: None]
        )
        assert plain.best_makespan == observed.best_makespan
        assert plain.best_string == observed.best_string
        assert (
            plain.trace.current_makespans()
            == observed.trace.current_makespans()
        )
