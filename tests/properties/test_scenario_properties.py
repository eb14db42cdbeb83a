"""Property tests pinning the stochastic tier's core contracts.

* **S=1 identity** — a single deterministic scenario scores any batch
  of valid strings **bit-identically** (``==``, no tolerance) to the
  plain deterministic batch path, on both network models.  This is the
  "risk tier changes nothing until you ask for noise" guarantee.
* **Reducer sanity** — for any sample vector, every reduction lies in
  ``[min, max]`` and the quantile is monotone in ``q``.
* **Determinism** — resampling with the same arguments reproduces the
  scenario tensors exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import EvaluationService
from repro.optim.objective import ScenarioObjective
from repro.schedule import random_valid_string
from repro.stochastic import ScenarioEvaluator, sample_scenarios
from tests.strategies import workloads

NETWORKS = ("contention-free", "nic")


@settings(deadline=None, max_examples=25)
@given(w=workloads(), seed=st.integers(0, 2**16), data=st.data())
def test_single_deterministic_scenario_is_bit_identical(w, seed, data):
    network = data.draw(st.sampled_from(NETWORKS))
    n = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    strings = [
        random_valid_string(w.graph, w.num_machines, rng) for _ in range(n)
    ]
    ev = ScenarioEvaluator(
        sample_scenarios(w, "deterministic", scenarios=1), network=network
    )
    plain = EvaluationService(w, network).batch_string_makespans(
        strings
    )
    assert ev.string_matrix(strings)[0].tolist() == list(plain)


@settings(deadline=None, max_examples=50)
@given(
    xs=st.lists(
        st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    q=st.floats(0.01, 1.0),
)
def test_reductions_lie_in_the_sample_range(xs, q):
    # averaging reducers (mean, cvar) can land 1 ulp outside the range
    tol = 4 * np.spacing(max(xs))
    lo, hi = min(xs) - tol, max(xs) + tol
    for obj in (
        ScenarioObjective("mean"),
        ScenarioObjective("quantile", q=q),
        ScenarioObjective("cvar", q=min(q, 0.99)),
    ):
        v = obj.reduce(xs)
        assert lo <= v <= hi
    # CVaR dominates the matching quantile (tail mean >= tail floor)
    qq = min(q, 0.99)
    cvar = ScenarioObjective("cvar", q=qq).reduce(xs)
    var = ScenarioObjective("quantile", q=max(qq, 0.01)).reduce(xs)
    assert cvar >= var - tol


@settings(deadline=None, max_examples=50)
@given(
    xs=st.lists(
        st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    qs=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
)
def test_quantile_is_monotone_in_q(xs, qs):
    lo_q, hi_q = sorted(qs)
    lo = ScenarioObjective("quantile", q=lo_q).reduce(xs)
    hi = ScenarioObjective("quantile", q=hi_q).reduce(xs)
    assert lo <= hi


@settings(deadline=None, max_examples=20)
@given(
    w=workloads(),
    seed=st.integers(0, 2**32),
    dist=st.sampled_from(
        ("uniform:0.4", "lognormal:0.5", "empirical:1,2,0.5")
    ),
    S=st.integers(1, 6),
)
def test_resampling_reproduces_tensors_exactly(w, seed, dist, S):
    a = sample_scenarios(w, dist, scenarios=S, seed=seed)
    b = sample_scenarios(w, dist, scenarios=S, seed=seed)
    assert (a.exec_tensor == b.exec_tensor).all()
    ta, tb = a.transfer_tensor, b.transfer_tensor
    assert (ta is None) == (tb is None)
    if ta is not None:
        assert (ta == tb).all()
