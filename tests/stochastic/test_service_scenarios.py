"""EvaluationService routing, validation and engine integration of the
scenario objectives."""

import numpy as np
import pytest

from repro.baselines import GAConfig, GeneticAlgorithm, random_search
from repro.core import SEConfig, SimulatedEvolution
from repro.optim import (
    EvaluationService,
    ParetoTracker,
    SAConfig,
    TabuConfig,
    run_sa,
    run_tabu,
)
from repro.schedule.operations import random_valid_string
from repro.stochastic import validate_scenario_settings
from repro.workloads import small_workload

RISK = dict(objective="quantile:0.9", scenarios=8, distribution="uniform:0.3")


def _string(w, seed=0):
    return random_valid_string(w.graph, w.num_machines, seed)


# ----------------------------------------------------------------------
# service routing
# ----------------------------------------------------------------------


def test_service_reduces_every_scored_scalar():
    w = small_workload(seed=1)
    svc = EvaluationService(w, **RISK)
    assert svc.scenarios == 8
    s = _string(w)
    samples = svc.scenario_evaluator.samples_string(s)
    expected = svc.objective.reduce(samples)
    assert svc.string_makespan(s) == expected
    assert svc.evaluations == 1
    batch = svc.batch_string_makespans([s, _string(w, 1)])
    assert batch[0] == expected
    assert svc.evaluations == 3  # one per schedule, scenarios are free


def test_service_schedule_of_stays_nominal():
    w = small_workload(seed=1)
    svc = EvaluationService(w, **RISK)
    base = EvaluationService(w)
    s = _string(w)
    assert svc.schedule_of(s).makespan == base.string_makespan(s)


def test_allocate_scores_every_probe_over_the_scenarios(monkeypatch):
    """``ScenarioBackend.allocate`` of one subtask runs the
    specification's probe loop over its own ``evaluate_delta``: every
    probe is a risk scalar."""
    w = small_workload(seed=1)
    backend = EvaluationService(w, **RISK).backend
    s = _string(w)
    scored = []
    delta = backend.evaluate_delta

    def spy(*args):
        scored.append(delta(*args))
        return scored[-1]

    monkeypatch.setattr(backend, "evaluate_delta", spy)
    task = s.order[len(s.order) // 2]
    table = np.tile(np.arange(w.num_machines), (w.num_tasks, 1))
    state, trials, moved = backend.allocate(s, [task], table, False)
    assert trials - 1 - moved == len(scored) > 1
    assert state.makespan == min(scored)
    assert backend.string_makespan(s) == state.makespan


def test_deterministic_service_has_no_scenario_machinery():
    svc = EvaluationService(small_workload(seed=1))
    assert svc.scenarios == 0
    assert svc.scenario_evaluator is None


def test_scenario_seed_changes_the_sample():
    w = small_workload(seed=1)
    a = EvaluationService(w, scenario_seed=0, **RISK)
    b = EvaluationService(w, scenario_seed=1, **RISK)
    s = _string(w)
    xa = a.scenario_evaluator.samples_string(s)
    xb = b.scenario_evaluator.samples_string(s)
    assert not (xa == xb).all()


def test_platform_speed_scaling_composes_with_scenarios():
    """Scenarios perturb the platform's effective matrix, not the raw one."""
    w = small_workload(seed=1)
    svc = EvaluationService(w, platform="spot", **RISK)
    eff = svc.effective_workload
    assert svc.scenario_evaluator.workload is eff
    scen = svc.scenario_evaluator.scenario_set
    np.testing.assert_allclose(
        scen.exec_tensor[0],
        eff.exec_times.values * scen.exec_factors[0][None, :],
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_scenario_objective_without_scenarios_is_rejected():
    with pytest.raises(ValueError, match="scenarios"):
        EvaluationService(small_workload(seed=1), objective="mean")
    with pytest.raises(ValueError, match="scenarios"):
        validate_scenario_settings("quantile:0.9", 0, "uniform:0.2")


def test_scenario_params_without_scenario_objective_are_rejected():
    w = small_workload(seed=1)
    with pytest.raises(ValueError, match="no effect"):
        EvaluationService(w, scenarios=8)
    with pytest.raises(ValueError, match="no effect"):
        EvaluationService(w, distribution="lognormal:0.3")
    with pytest.raises(ValueError, match="no effect"):
        validate_scenario_settings("weighted:1:1", 4, "deterministic")


def test_pareto_tracking_is_unsupported():
    w = small_workload(seed=1)
    with pytest.raises(ValueError, match="[Pp]areto"):
        EvaluationService(w, pareto=ParetoTracker(), **RISK)


def test_initial_state_is_unsupported():
    w = small_workload(seed=1)
    with pytest.raises(ValueError, match="initial"):
        EvaluationService(
            w, initial_avail=[1.0] * w.num_machines, **RISK
        )


def test_boot_delay_platform_is_unsupported():
    w = small_workload(seed=1)
    with pytest.raises(ValueError, match="boot"):
        EvaluationService(w, platform="cloud", **RISK)


@pytest.mark.parametrize(
    "config_cls",
    [SEConfig, SAConfig, TabuConfig, GAConfig],
)
def test_configs_validate_the_scenario_bundle(config_cls):
    config_cls(**RISK)  # valid bundle constructs
    with pytest.raises(ValueError):
        config_cls(objective="mean")  # scenario objective, no scenarios
    with pytest.raises(ValueError):
        config_cls(scenarios=8)  # scenarios, deterministic objective


# ----------------------------------------------------------------------
# engines optimise the statistic
# ----------------------------------------------------------------------


def _risk_of(svc, string):
    return svc.objective.reduce(
        svc.scenario_evaluator.samples_string(string)
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda w: SimulatedEvolution(
            SEConfig(seed=3, max_iterations=10, **RISK)
        ).run(w),
        lambda w: run_sa(w, SAConfig(seed=3, max_iterations=150, **RISK)),
        lambda w: run_tabu(w, TabuConfig(seed=3, max_iterations=10, **RISK)),
        lambda w: GeneticAlgorithm(
            GAConfig(seed=3, max_generations=8, **RISK)
        ).run(w),
    ],
    ids=["se-delta", "sa", "tabu", "ga"],
)
def test_engine_winners_report_nominal_makespan(run):
    w = small_workload(seed=1)
    res = run(w)
    base = EvaluationService(w)
    assert res.best_makespan == pytest.approx(
        base.string_makespan(res.best_string)
    )


def test_random_search_minimises_the_statistic_not_the_nominal():
    w = small_workload(seed=1)
    res = random_search(w, samples=64, seed=5, **RISK)
    svc = EvaluationService(w, **RISK)
    # replay the draw: the winner has the smallest reduced statistic
    rng = np.random.default_rng(5)
    best = None
    for _ in range(64):
        s = random_valid_string(w.graph, w.num_machines, rng)
        v = _risk_of(svc, s)
        if best is None or v < best:
            best = v
    assert _risk_of(svc, res.string) == pytest.approx(best)
