"""Property tests: tabu's two scoring routes run the same search.

A tabu neighborhood is scored either one cutoff-pruned
``evaluate_delta`` per candidate against a snapshot of the incumbent,
or in one ``batch_string_makespans`` call; the service's
``prefers_delta`` picks the route.  Forcing each route in turn, these
properties pin that a run is the same either way: best string, best
cost, evaluation count and every trace record except wall time.  The
pruning rule itself (:func:`repro.optim.tabu.select_move`) is checked
against exact costs directly.
"""

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import TabuConfig, run_tabu
from repro.optim.evaluation import EvaluationService
from repro.optim.exchange import Incumbent
from repro.optim.tabu import select_move
from repro.schedule.operations import random_valid_string
from tests.strategies import workloads


@contextmanager
def forced_route(by_delta: bool):
    with mock.patch.object(
        EvaluationService, "prefers_delta", property(lambda self: by_delta)
    ):
        yield


class DeliverAt:
    """An exchange that hands over one fixed incumbent at *iteration*."""

    def __init__(self, iteration, string):
        self.iteration = iteration
        self.incumbent = Incumbent(
            1, 0.0, tuple(string.order), tuple(string.machines), 1
        )

    def incoming(self, iteration, current_cost):
        return self.incumbent if iteration == self.iteration else None


def run_both(workload, config, service_kwargs=None, exchange_string=None):
    """The run under each forced route, as comparable tuples."""
    outs = []
    for by_delta in (True, False):
        service = None
        if service_kwargs is not None:
            service = config.evaluation_service(workload, **service_kwargs)
        exchange = None
        if exchange_string is not None:
            exchange = DeliverAt(3, exchange_string)
        with forced_route(by_delta):
            res = run_tabu(
                workload, config, service=service, exchange=exchange
            )
        records = [
            (
                r.iteration,
                r.current_makespan,
                r.best_makespan,
                r.num_selected,
                r.evaluations,
            )
            for r in res.trace
        ]
        outs.append(
            (
                res.best_string.pairs(),
                res.best_makespan,
                res.evaluations,
                records,
            )
        )
    return outs


_settings = dict(
    network=st.sampled_from(["contention-free", "nic"]),
    platform=st.sampled_from(["uniform", "spot", "cloud"]),
    objective=st.sampled_from(["makespan", "weighted:1.0:0.05"]),
    tenure=st.sampled_from([0, 2, 8]),
    size=st.integers(1, 12),
)


@given(
    w=workloads(min_tasks=2, max_tasks=10),
    seed=st.integers(0, 2**32 - 1),
    **_settings,
)
@settings(max_examples=50, deadline=None)
def test_delta_route_equals_batch_route(
    w, seed, network, platform, objective, tenure, size
):
    cfg = TabuConfig(
        seed=seed,
        max_iterations=12,
        neighborhood_size=size,
        tenure=tenure,
        network=network,
        platform=platform,
        objective=objective,
    )
    delta, batch = run_both(w, cfg)
    assert delta == batch


_busy = st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4)


@given(
    workloads(min_tasks=2, max_tasks=10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["contention-free", "nic"]),
    _busy,
    _busy,
)
@settings(max_examples=40, deadline=None)
def test_routes_agree_from_busy_machines(w, seed, network, avail, nic):
    l = w.num_machines
    cfg = TabuConfig(seed=seed, max_iterations=12, network=network)
    busy = {"initial_avail": avail[:l]}
    if network == "nic":
        busy["initial_nic_free"] = nic[:l]
    delta, batch = run_both(w, cfg, service_kwargs=busy)
    assert delta == batch


@given(
    workloads(min_tasks=2, max_tasks=10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["contention-free", "nic"]),
)
@settings(max_examples=40, deadline=None)
def test_routes_agree_across_an_exchange(w, seed, network):
    """An incumbent delivered mid-run is re-scored and re-anchored the
    same way on both routes."""
    cfg = TabuConfig(seed=seed, max_iterations=8, network=network)
    foreign = random_valid_string(w.graph, w.num_machines, seed + 1)
    delta, batch = run_both(w, cfg, exchange_string=foreign)
    assert delta == batch


@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_routes_agree_through_the_all_tabu_fallback(
    tiny_workload, network
):
    """A two-move neighborhood under a tenure longer than the run is
    soon all tabu; both routes must commit the same fallback moves."""
    cfg = TabuConfig(
        seed=1,
        max_iterations=40,
        neighborhood_size=2,
        tenure=10**6,
        network=network,
    )
    delta, batch = run_both(tiny_workload, cfg)
    assert delta == batch
    selected = [r[3] for r in delta[3]]
    assert 0 in selected  # the fallback branch really ran


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]), st.booleans()
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([0.5, 2.0, 3.0, 4.5, 10.0]),
)
@settings(max_examples=300)
def test_pruned_selection_equals_exact_selection(candidates, best_known):
    """Scores that turn ``inf`` at the cutoff pick the same move, at the
    same cost, with the same admissible count as exact scores.  Costs
    come from a small grid so ties with each other and with
    *best_known* are common."""
    costs = [c for c, _ in candidates]
    tabu = [t for _, t in candidates]

    def exact(i, _cutoff):
        return costs[i]

    def pruned(i, cutoff):
        return costs[i] if costs[i] < cutoff else math.inf

    assert select_move(tabu, best_known, pruned) == select_move(
        tabu, best_known, exact
    )


def test_tabu_costs_are_exact_below_best_known():
    """Not all tabu: a tabu candidate's cutoff is *best_known*, so its
    aspiration is decided on its exact cost."""
    seen = []

    def score(i, cutoff):
        seen.append(cutoff)
        return [4.0, 1.0][i]

    cost, index, admissible = select_move([False, True], 2.0, score)
    assert (cost, index, admissible) == (1.0, 1, 2)
    assert seen == [math.inf, 2.0]
