"""ScenarioEvaluator scoring: bit-identity, parity, backend contract."""

import numpy as np
import pytest

from repro.optim import EvaluationService
from repro.optim.objective import resolve_objective
from repro.schedule.backend import make_simulator
from repro.schedule.operations import random_valid_string
from repro.stochastic import (
    DETERMINISTIC,
    ScenarioBackend,
    ScenarioEvaluator,
    sample_scenarios,
)
from repro.workloads import figure5_workload, small_workload
from tests.routes import walker

NETWORKS = ("contention-free", "nic")


def _strings(w, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        random_valid_string(w.graph, w.num_machines, rng) for _ in range(n)
    ]


@pytest.mark.parametrize("network", NETWORKS)
def test_single_deterministic_scenario_is_bit_identical(network):
    """S=1 + deterministic distribution == the plain batch scoring path."""
    w = small_workload(seed=1)
    ev = ScenarioEvaluator(
        sample_scenarios(w, DETERMINISTIC, scenarios=1), network=network
    )
    strings = _strings(w, 8)
    got = ev.string_matrix(strings)
    assert got.shape == (1, 8)
    expected = EvaluationService(w, network).batch_string_makespans(
        strings
    )
    assert got[0].tolist() == list(expected)  # ==, not approx


@pytest.mark.parametrize("network", NETWORKS)
def test_matrix_identical_across_walker_tiers(network):
    """The per-scenario loops score the same floats on either tier."""
    w = small_workload(seed=2)
    scen = sample_scenarios(w, "lognormal:0.3", scenarios=4, seed=5)
    with walker("compiled"):
        fast = ScenarioEvaluator(scen, network=network)
    with walker("python"):
        slow = ScenarioEvaluator(scen, network=network)
    strings = _strings(w, 5)
    assert (
        fast.string_matrix(strings).tolist()
        == slow.string_matrix(strings).tolist()
    )


@pytest.mark.parametrize("network", NETWORKS)
def test_rows_match_scalar_simulation_of_each_scenario(network):
    """Row s is exactly the scalar simulator on scenario s's matrices."""
    w = small_workload(seed=3)
    scen = sample_scenarios(w, "uniform:0.4", scenarios=3, seed=1)
    ev = ScenarioEvaluator(scen, network=network)
    (s,) = _strings(w, 1)
    got = ev.samples_string(s)
    for i in range(3):
        sim = make_simulator(scen.workload_for(i), network)
        assert got[i] == sim.string_makespan(s)


def test_samples_equals_matrix_column():
    w = small_workload(seed=1)
    ev = ScenarioEvaluator(sample_scenarios(w, "uniform:0.2", 6, seed=2))
    (s,) = _strings(w, 1)
    col = ev.string_matrix([s])[:, 0]
    assert (ev.samples_string(s) == col).all()


def test_invalid_string_is_rejected():
    w = small_workload(seed=1)
    ev = ScenarioEvaluator(sample_scenarios(w, "uniform:0.2", 2, seed=0))
    (s,) = _strings(w, 1)
    bad_order = list(reversed(s.order))
    with pytest.raises(ValueError):
        ev.matrix([bad_order], [list(s.machines)])


# ----------------------------------------------------------------------
# ScenarioBackend
# ----------------------------------------------------------------------


def _backend(w, objective="quantile:0.75", S=5):
    ev = ScenarioEvaluator(sample_scenarios(w, "lognormal:0.25", S, seed=3))
    nominal = make_simulator(w, "contention-free")
    return ScenarioBackend(nominal, ev, resolve_objective(objective)), ev


def test_backend_scalars_are_the_objectives_reduction():
    w = small_workload(seed=1)
    backend, ev = _backend(w)
    (s,) = _strings(w, 1)
    expected = backend.objective.reduce(ev.samples_string(s))
    assert backend.string_makespan(s) == expected
    assert backend.makespan(list(s.order), list(s.machines)) == expected
    singles = [backend.string_makespan(x) for x in _strings(w, 4)]
    svc = EvaluationService(
        w,
        objective=backend.objective.name,
        scenarios=5,
        distribution="lognormal:0.25",
        scenario_seed=3,
    )
    assert svc.batch_string_makespans(_strings(w, 4)) == singles


@pytest.mark.parametrize("objective", ("mean", "cvar:0.5"))
@pytest.mark.parametrize("network", NETWORKS)
def test_batch_scores_equal_single_calls(network, objective):
    """A batch reduces each scenario column with the single-call
    ``reduce``, so GA/tabu/random and SE/SA compare the same floats."""
    w = figure5_workload(seed=1)
    svc = EvaluationService(
        w,
        network,
        objective=objective,
        scenarios=32,
        distribution="lognormal:0.25",
        scenario_seed=0,
    )
    strings = _strings(w, 64)
    singles = [svc.string_makespan(s) for s in strings]
    assert svc.batch_string_makespans(strings) == singles
    assert svc.batch_makespans(
        np.array([s.order for s in strings]),
        np.array([s.machines for s in strings]),
    ) == singles


def test_backend_schedules_stay_nominal():
    """Decoded schedules report real (nominal) makespans, not statistics."""
    w = small_workload(seed=1)
    backend, _ = _backend(w)
    (s,) = _strings(w, 1)
    nominal = make_simulator(w, "contention-free")
    sched = backend.evaluate(s)
    assert sched.makespan == nominal.string_makespan(s)
    assert backend.finish_times(s) == nominal.finish_times(s)


def test_backend_delta_tier_rescores_exactly():
    """prepare/evaluate_delta agree with full scoring (no pruning)."""
    w = small_workload(seed=1)
    backend, _ = _backend(w)
    a, b = _strings(w, 2, seed=7)
    state = backend.prepare(list(a.order), list(a.machines))
    assert state.makespan == backend.string_makespan(a)
    # a cutoff below the true scalar must NOT truncate the result
    moved = backend.evaluate_delta(
        list(b.order), list(b.machines), 0, state, cutoff=0.0
    )
    assert moved == backend.string_makespan(b)
