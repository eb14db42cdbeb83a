"""Distribution grammar, sampling determinism and tensor shapes."""

import numpy as np
import pytest

from repro.stochastic.distributions import (
    DETERMINISTIC,
    DISTRIBUTION_FORMS,
    DistributionSpec,
    resolve_distribution,
    sample_scenarios,
)
from repro.workloads import small_workload


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, name",
    [
        ("deterministic", "deterministic"),
        ("uniform:0.2", "uniform:0.2"),
        ("lognormal:0.25", "lognormal:0.25"),
        ("empirical:1,1,4", "empirical:1,1,4"),
        ("empirical:1.5,0.5", "empirical:1.5,0.5"),
    ],
)
def test_resolve_round_trips_through_name(spec, name):
    resolved = resolve_distribution(spec)
    assert resolved.name == name
    # the name is itself a valid spec resolving to the same object
    assert resolve_distribution(resolved.name) == resolved


def test_resolve_accepts_spec_instances():
    spec = DistributionSpec("uniform", width=0.3)
    assert resolve_distribution(spec) is spec


@pytest.mark.parametrize(
    "bad",
    [
        "nope",
        "uniform:1.0",  # width 1 could draw factor 0
        "uniform:-0.1",
        "uniform:abc",
        "lognormal:-1",
        "lognormal:nan",
        "empirical:",
        "empirical:0",  # factor must be > 0
        "empirical:1,-2",
        "empirical:inf",
        42,
    ],
)
def test_resolve_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        resolve_distribution(bad)


def test_every_advertised_form_has_a_working_example():
    examples = {
        "deterministic": "deterministic",
        "uniform:<width>": "uniform:0.2",
        "lognormal:<sigma>": "lognormal:0.25",
        "empirical:<f1,f2,...>": "empirical:1,1,1,1,4",
    }
    advertised = {form for form, _ in DISTRIBUTION_FORMS}
    assert advertised == set(examples)
    for example in examples.values():
        resolve_distribution(example)


@pytest.mark.parametrize(
    "spec, deterministic",
    [
        ("deterministic", True),
        ("uniform:0", True),
        ("lognormal:0", True),
        ("empirical:1,1,1", True),
        ("uniform:0.1", False),
        ("lognormal:0.1", False),
        ("empirical:1,2", False),
    ],
)
def test_is_deterministic_detects_identity_noise(spec, deterministic):
    assert resolve_distribution(spec).is_deterministic is deterministic


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

DISTS = ("uniform:0.3", "lognormal:0.4", "empirical:1,1,1,1,4")


@pytest.mark.parametrize("dist", DISTS)
def test_sampling_is_a_pure_function_of_seed(dist):
    w = small_workload(seed=1)
    a = sample_scenarios(w, dist, scenarios=6, seed=3)
    b = sample_scenarios(w, dist, scenarios=6, seed=3)
    assert (a.exec_factors == b.exec_factors).all()
    assert (a.transfer_factors == b.transfer_factors).all()
    c = sample_scenarios(w, dist, scenarios=6, seed=4)
    assert not (a.exec_factors == c.exec_factors).all()


@pytest.mark.parametrize("dist", DISTS)
def test_sampling_ignores_worker_count_env(dist, monkeypatch):
    """The runner's process fan-out must never change a scenario."""
    w = small_workload(seed=1)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    base = sample_scenarios(w, dist, scenarios=5, seed=9)
    for workers in ("1", "8", "garbage"):
        monkeypatch.setenv("REPRO_WORKERS", workers)
        again = sample_scenarios(w, dist, scenarios=5, seed=9)
        assert (again.exec_factors == base.exec_factors).all()
        assert (again.transfer_factors == base.transfer_factors).all()


@pytest.mark.parametrize("dist", DISTS)
def test_tensor_shapes_and_positivity(dist):
    w = small_workload(seed=1)
    scen = sample_scenarios(w, dist, scenarios=7, seed=0)
    S, l, k = 7, w.num_machines, w.num_tasks
    assert scen.scenarios == S
    assert scen.exec_tensor.shape == (S, l, k)
    assert (scen.exec_tensor > 0).all()
    tr = scen.transfer_tensor
    assert tr is not None
    assert tr.shape == (S,) + w.transfer_times.values.shape
    assert (tr >= 0).all()


def test_sampling_means_match_the_model():
    w = small_workload(seed=1)
    # uniform and lognormal are mean-one; empirical's mean is the
    # table's mean (1+1+1+1+4)/5
    for dist, mean in [
        ("uniform:0.3", 1.0),
        ("lognormal:0.4", 1.0),
        ("empirical:1,1,1,1,4", 1.6),
    ]:
        scen = sample_scenarios(w, dist, scenarios=4000, seed=0)
        assert scen.exec_factors.mean() == pytest.approx(mean, abs=0.05)


def test_deterministic_sampling_returns_nominal_objects():
    w = small_workload(seed=1)
    scen = sample_scenarios(w, DETERMINISTIC, scenarios=3, seed=5)
    assert (scen.exec_factors == 1.0).all()
    for s in range(3):
        assert scen.workload_for(s) is w
    assert (scen.exec_tensor[1] == w.exec_times.values).all()


def test_workload_views_share_structure_and_scale_values():
    w = small_workload(seed=1)
    scen = sample_scenarios(w, "lognormal:0.3", scenarios=3, seed=2)
    view = scen.workload_for(1)
    assert view.graph is w.graph
    assert view.classification is w.classification
    expected = w.exec_times.values * scen.exec_factors[1][None, :]
    np.testing.assert_allclose(view.exec_times.values, expected)
    assert scen.workload_for(1) is view  # cached
    with pytest.raises(IndexError):
        scen.workload_for(3)


def test_exec_factors_scale_columns_not_machines():
    """Noise is per-task: machine speed ratios survive every scenario."""
    w = small_workload(seed=1)
    scen = sample_scenarios(w, "uniform:0.4", scenarios=2, seed=0)
    E = w.exec_times.values
    Es = scen.exec_tensor[0]
    ratios = Es / E  # (l, k): must be constant down each column
    assert np.allclose(ratios, ratios[0][None, :])


def test_sample_scenarios_rejects_zero_scenarios():
    with pytest.raises(ValueError, match="scenarios"):
        sample_scenarios(small_workload(seed=1), "uniform:0.2", scenarios=0)
