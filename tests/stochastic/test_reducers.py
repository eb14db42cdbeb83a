"""ScenarioObjective reducers: grammar, edge cases, percentile parity."""

import math

import numpy as np
import pytest

from repro.online.metrics import percentile
from repro.optim.objective import (
    OBJECTIVE_FORMS,
    ScenarioObjective,
    resolve_objective,
)

SAMPLES = [14.0, 3.0, 9.0, 9.0, 27.0, 1.0, 5.0]


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, name",
    [
        ("mean", "mean"),
        ("quantile:0.95", "quantile:0.95"),
        ("quantile:0.5", "quantile:0.5"),
        ("cvar:0.9", "cvar:0.9"),
        ("cvar:0", "cvar:0"),
        ("saa:120:0.05", "saa:120:0.05"),
    ],
)
def test_resolve_round_trips_through_name(spec, name):
    obj = resolve_objective(spec)
    assert obj.is_scenario and not obj.is_makespan
    assert obj.name == name
    assert resolve_objective(obj.name) == obj


@pytest.mark.parametrize(
    "bad",
    [
        "quantile:0",  # q in (0, 1]
        "quantile:1.2",
        "quantile:abc",
        "cvar:1",  # q in [0, 1)
        "cvar:-0.1",
        "saa:0:0.1",  # target must be > 0
        "saa:inf:0.1",
        "saa:100:0",  # eps in (0, 1)
        "saa:100:1",
        "saa:100",  # missing eps
        "percentile:0.9",  # unknown form
    ],
)
def test_resolve_rejects_bad_scenario_specs(bad):
    with pytest.raises(ValueError):
        resolve_objective(bad)


def test_every_advertised_scenario_form_works():
    examples = {
        "mean": "mean",
        "quantile:<q>": "quantile:0.9",
        "cvar:<q>": "cvar:0.9",
        "saa:<T>:<eps>": "saa:100:0.1",
    }
    advertised = {
        form for form, needs_scenarios, _ in OBJECTIVE_FORMS if needs_scenarios
    }
    assert advertised == set(examples)
    for example in examples.values():
        assert resolve_objective(example).is_scenario


def test_deterministic_objectives_are_not_scenario():
    assert not resolve_objective("makespan").is_scenario
    assert not resolve_objective("weighted:1:2").is_scenario


# ----------------------------------------------------------------------
# reducers
# ----------------------------------------------------------------------


def test_quantile_uses_the_nearest_rank_rule_of_online_metrics():
    """quantile:q must agree exactly with repro.online.metrics.percentile."""
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 100):
        xs = list(rng.uniform(1.0, 500.0, n))
        for q in (0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            got = ScenarioObjective("quantile", q=q).reduce(xs)
            assert got == percentile(xs, q)


def test_mean_reduce():
    obj = resolve_objective("mean")
    assert obj.reduce(SAMPLES) == pytest.approx(sum(SAMPLES) / len(SAMPLES))


def test_single_sample_reduces_to_the_value_for_every_kind():
    for spec in ("mean", "quantile:0.95", "cvar:0.5", "saa:100:0.1"):
        assert resolve_objective(spec).reduce([42.0]) == 42.0


def test_all_equal_samples_reduce_to_that_value():
    xs = [7.0] * 9
    for spec in ("mean", "quantile:0.95", "cvar:0.5", "saa:100:0.1"):
        assert resolve_objective(spec).reduce(xs) == 7.0


def test_cvar_zero_is_the_mean_and_cvar_dominates_var():
    xs = SAMPLES
    assert resolve_objective("cvar:0").reduce(xs) == pytest.approx(
        resolve_objective("mean").reduce(xs)
    )
    for q in (0.1, 0.5, 0.9):
        var = resolve_objective(f"quantile:{q}").reduce(xs)
        cvar = resolve_objective(f"cvar:{q}").reduce(xs)
        assert cvar >= var
    # the extreme tail is the max
    assert resolve_objective("quantile:1").reduce(xs) == max(xs)


def test_cvar_tail_arithmetic():
    xs = [1.0, 2.0, 3.0, 4.0]
    # rank of q=0.5 over 4 samples is 2 -> tail = {2, 3, 4}
    assert resolve_objective("cvar:0.5").reduce(xs) == pytest.approx(3.0)


def test_saa_scores_by_the_survival_quantile_and_reports_feasibility():
    obj = resolve_objective("saa:10:0.25")
    assert obj.level == pytest.approx(0.75)
    xs = [1.0, 2.0, 3.0, 20.0]
    # (1-eps)-quantile: rank ceil(0.75*4)=3 -> 3.0 <= 10 -> feasible
    assert obj.reduce(xs) == 3.0
    assert obj.feasible(xs)
    assert not obj.feasible([11.0, 12.0, 13.0, 14.0])


def test_reduce_matrix_matches_columnwise_reduce():
    rng = np.random.default_rng(1)
    matrix = rng.uniform(1.0, 100.0, size=(13, 5))
    for spec in ("mean", "quantile:0.9", "cvar:0.8", "saa:50:0.2"):
        obj = resolve_objective(spec)
        out = obj.reduce_matrix(matrix)
        assert out.shape == (5,)
        for b in range(5):
            assert out[b] == pytest.approx(obj.reduce(matrix[:, b]))


def test_reduce_is_bounded_by_the_sample_range():
    rng = np.random.default_rng(2)
    xs = rng.uniform(1.0, 1000.0, 17)
    for spec in ("mean", "quantile:0.25", "quantile:0.95", "cvar:0.6"):
        v = resolve_objective(spec).reduce(xs)
        assert xs.min() <= v <= xs.max()


def test_scalarize_ignores_cost():
    """Scenario objectives rank by the reduced makespan statistic only."""
    obj = resolve_objective("quantile:0.9")
    assert obj.scalarize(12.0, 99.0) == 12.0


def test_is_deterministic_flag_consistency():
    assert math.isfinite(resolve_objective("saa:10:0.5").target)
    for spec in ("mean", "quantile:0.9", "cvar:0.9", "saa:10:0.5"):
        obj = resolve_objective(spec)
        assert obj.is_scenario
        assert not obj.is_makespan
