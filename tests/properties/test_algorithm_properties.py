"""Property-based tests over the SE engine, GA and baselines.

Runs are tiny (few iterations, small graphs) — the point is that the
structural invariants hold on *arbitrary* valid inputs, not performance.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    GAConfig,
    GeneticAlgorithm,
    heft,
    max_min,
    min_min,
    olb,
)
from repro.baselines.ga.chromosome import is_valid_chromosome, random_chromosome
from repro.baselines.ga.operators import (
    matching_crossover,
    scheduling_crossover,
    scheduling_mutation,
)
from repro.core import SEConfig, SimulatedEvolution
from repro.core.goodness import GoodnessEvaluator, optimal_finish_times
from repro.schedule import Simulator, is_valid_for, verify_schedule
from repro.schedule.operations import random_valid_string
from tests.strategies import workloads

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@slow
@given(workloads(), st.integers(0, 2**16))
def test_se_produces_valid_verified_best(w, seed):
    res = SimulatedEvolution(SEConfig(seed=seed, max_iterations=3)).run(w)
    assert is_valid_for(res.best_string, w.graph)
    verify_schedule(w, res.best_schedule)


@slow
@given(workloads(), st.integers(0, 2**16))
def test_se_best_never_worse_than_any_current(w, seed):
    res = SimulatedEvolution(SEConfig(seed=seed, max_iterations=4)).run(w)
    for r in res.trace.records:
        assert res.best_makespan <= r.current_makespan + 1e-9


@slow
@given(workloads())
def test_goodness_in_unit_interval_everywhere(w):
    sim = Simulator(w)
    ev = GoodnessEvaluator(sim)
    for seed in range(3):
        s = random_valid_string(w.graph, w.num_machines, seed)
        g = ev.goodness(sim.finish_times(s))
        assert np.all((0.0 <= g) & (g <= 1.0))


@slow
@given(workloads())
def test_optimal_finish_positive_and_monotone_along_edges(w):
    o = optimal_finish_times(w)
    assert np.all(o > 0)
    for d in w.graph.data_items:
        # a consumer's optimistic finish strictly exceeds its producer's
        assert o[d.consumer] > o[d.producer]


@slow
@given(workloads(), st.integers(0, 2**16))
def test_ga_produces_valid_verified_best(w, seed):
    cfg = GAConfig(
        seed=seed,
        population_size=6,
        max_generations=3,
        stall_generations=None,
    )
    res = GeneticAlgorithm(cfg).run(w)
    assert is_valid_for(res.best_string, w.graph)
    verify_schedule(w, res.best_schedule)


@slow
@given(workloads(), st.integers(0, 2**16))
def test_ga_operators_closed_under_validity(w, seed):
    rng = np.random.default_rng(seed)
    a = random_chromosome(w.graph, w.num_machines, rng)
    b = random_chromosome(w.graph, w.num_machines, rng)
    ca, cb = matching_crossover(a, b, rng)
    ca, cb = scheduling_crossover(ca, cb, rng)
    scheduling_mutation(ca, w.graph, w.num_machines, rng)
    for c in (ca, cb, a, b):
        assert is_valid_chromosome(c, w.graph, w.num_machines)


@slow
@given(workloads())
def test_deterministic_baselines_verify_everywhere(w):
    for algo in (heft, min_min, max_min, olb):
        res = algo(w)
        verify_schedule(w, res.schedule)
        assert is_valid_for(res.string, w.graph)


@slow
@given(workloads())
def test_baselines_within_global_bounds(w):
    from repro.schedule.metrics import makespan_lower_bound

    lb = makespan_lower_bound(w)
    worst_exec = float(w.exec_times.values.max(axis=0).sum())
    tr = w.transfer_times.values
    worst = worst_exec + (float(tr.max(axis=0).sum()) if tr.size else 0.0)
    for algo in (heft, min_min, max_min, olb):
        m = algo(w).makespan
        assert lb - 1e-9 <= m <= worst + 1e-9


@slow
@given(workloads(), st.integers(0, 2**16))
def test_se_deterministic_under_seed(w, seed):
    a = SimulatedEvolution(SEConfig(seed=seed, max_iterations=3)).run(w)
    b = SimulatedEvolution(SEConfig(seed=seed, max_iterations=3)).run(w)
    assert a.best_makespan == b.best_makespan
    assert a.best_string == b.best_string


@slow
@given(workloads(), st.integers(0, 2**16))
def test_sa_produces_valid_verified_best(w, seed):
    from repro.optim import SAConfig, SimulatedAnnealing

    res = SimulatedAnnealing(SAConfig(seed=seed, max_iterations=20)).run(w)
    assert is_valid_for(res.best_string, w.graph)
    verify_schedule(w, res.best_schedule)
    assert res.best_makespan <= min(res.trace.current_makespans()) + 1e-9


@slow
@given(workloads(), st.integers(0, 2**16))
def test_tabu_produces_valid_verified_best(w, seed):
    from repro.optim import TabuConfig, TabuSearch

    cfg = TabuConfig(seed=seed, max_iterations=4, neighborhood_size=6)
    res = TabuSearch(cfg).run(w)
    assert is_valid_for(res.best_string, w.graph)
    verify_schedule(w, res.best_schedule)


@slow
@given(workloads(), st.integers(0, 2**16))
def test_sa_and_tabu_deterministic_under_seed(w, seed):
    from repro.optim import SAConfig, SimulatedAnnealing, TabuConfig, TabuSearch

    a = SimulatedAnnealing(SAConfig(seed=seed, max_iterations=15)).run(w)
    b = SimulatedAnnealing(SAConfig(seed=seed, max_iterations=15)).run(w)
    assert a.best_makespan == b.best_makespan
    assert a.best_string == b.best_string
    cfg = TabuConfig(seed=seed, max_iterations=3, neighborhood_size=5)
    ta = TabuSearch(cfg).run(w)
    tb = TabuSearch(cfg).run(w)
    assert ta.best_makespan == tb.best_makespan
    assert ta.best_string == tb.best_string
