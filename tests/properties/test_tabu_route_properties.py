"""Property tests: tabu's one scoring route runs the exact search.

A tabu step scores its neighborhood in one ``score_moves`` call, and
the service's backend decides how: cutoff-pruned deltas against a
snapshot of the incumbent (the compiled walker, the objective wrapper
without a tracker), every candidate in full (the objective wrapper
with a Pareto tracker), or one scenario-major sweep (the scenario
wrapper).  These properties pin each of those to an exact oracle, the
batch loop tabu once ran itself: apply each move to a copy, score
every copy in full on the service's backend and run
:func:`~repro.schedule.neighborhood.select_move` on the exact costs.
A run is the same either way: best string, best cost, evaluation
count, every trace record except wall time, and a Pareto tracker's
front and offer count.  The pruning rule itself is checked against
exact costs directly.
"""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.optim import TabuConfig, run_tabu
from repro.optim.evaluation import EvaluationService
from repro.optim.exchange import Incumbent
from repro.optim.tracking import ParetoTracker
from repro.schedule.encoding import ScheduleString
from repro.schedule.neighborhood import applied_copy, select_move
from repro.schedule.operations import random_valid_string
from tests.strategies import workloads


def exact_score_moves(self, state, order, machine_of, moves, tabu, best):
    """The oracle for ``EvaluationService.score_moves``: every candidate
    applied to a copy and scored in full on the service's backend, then
    the rule over the exact costs.  Counts one evaluation per move."""
    string = ScheduleString(order, machine_of, self.workload.num_machines)
    score = self.backend.string_makespan
    costs = [score(applied_copy(string, mv)) for mv in moves]
    self.count(len(moves))
    return select_move(tabu, best, lambda i, _cutoff: costs[i])


class DeliverAt:
    """An exchange that hands over one fixed incumbent at *iteration*."""

    def __init__(self, iteration, string):
        self.iteration = iteration
        self.incumbent = Incumbent(
            1, 0.0, tuple(string.order), tuple(string.machines), 1
        )

    def incoming(self, iteration, current_cost):
        return self.incumbent if iteration == self.iteration else None


def run_both(
    workload, config, service_kwargs=None, exchange_string=None, pareto=False
):
    """The run on the engine's route and on the exact oracle, as
    comparable tuples."""
    outs = []
    for oracle in (False, True):
        kwargs = dict(service_kwargs or {})
        if pareto:
            kwargs["pareto"] = ParetoTracker()
        service = config.evaluation_service(workload, **kwargs)
        exchange = None
        if exchange_string is not None:
            exchange = DeliverAt(3, exchange_string)
        with mock.patch.object(
            EvaluationService,
            "score_moves",
            exact_score_moves if oracle else EvaluationService.score_moves,
        ):
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
        front = None
        if pareto:
            front = (
                [p.point for p in service.pareto.front],
                service.pareto.offers,
            )
        outs.append(
            (
                res.best_string.pairs(),
                res.best_makespan,
                res.evaluations,
                records,
                front,
            )
        )
    return outs


_settings = dict(
    network=st.sampled_from(["contention-free", "nic"]),
    platform=st.sampled_from(["uniform", "spot", "cloud"]),
    objective=st.sampled_from(
        ["makespan", "weighted:1.0:0.05", "pareto", "cvar:0.9"]
    ),
    tenure=st.sampled_from([0, 2, 8]),
    size=st.integers(1, 12),
)


def _evaluation(objective, platform):
    """``(config fields, pareto)`` of one drawn objective; a scenario
    objective needs scenarios and a platform without boot delays."""
    if objective == "pareto":
        return {"objective": "weighted:1.0:0.05"}, True
    if objective == "cvar:0.9":
        assume(platform != "cloud")
        return {
            "objective": objective,
            "scenarios": 4,
            "distribution": "uniform:0.3",
        }, False
    return {"objective": objective}, False


@given(
    w=workloads(min_tasks=2, max_tasks=10),
    seed=st.integers(0, 2**32 - 1),
    **_settings,
)
@settings(max_examples=50, deadline=None)
def test_route_equals_the_exact_oracle(
    w, seed, network, platform, objective, tenure, size
):
    fields, pareto = _evaluation(objective, platform)
    cfg = TabuConfig(
        seed=seed,
        max_iterations=12,
        neighborhood_size=size,
        tenure=tenure,
        network=network,
        platform=platform,
        **fields,
    )
    route, oracle = run_both(w, cfg, pareto=pareto)
    assert route == oracle


_busy = st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4)


@given(
    workloads(min_tasks=2, max_tasks=10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["contention-free", "nic"]),
    _busy,
    _busy,
)
@settings(max_examples=40, deadline=None)
def test_route_is_exact_from_busy_machines(w, seed, network, avail, nic):
    l = w.num_machines
    cfg = TabuConfig(seed=seed, max_iterations=12, network=network)
    busy = {"initial_avail": avail[:l]}
    if network == "nic":
        busy["initial_nic_free"] = nic[:l]
    route, oracle = run_both(w, cfg, service_kwargs=busy)
    assert route == oracle


@given(
    workloads(min_tasks=2, max_tasks=10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["contention-free", "nic"]),
)
@settings(max_examples=40, deadline=None)
def test_route_is_exact_across_an_exchange(w, seed, network):
    """An incumbent delivered mid-run is re-scored and re-anchored, so
    the next neighborhood is scored against the new incumbent."""
    cfg = TabuConfig(seed=seed, max_iterations=8, network=network)
    foreign = random_valid_string(w.graph, w.num_machines, seed + 1)
    route, oracle = run_both(w, cfg, exchange_string=foreign)
    assert route == oracle


@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_route_is_exact_through_the_all_tabu_fallback(
    tiny_workload, network
):
    """A two-move neighborhood under a tenure longer than the run is
    soon all tabu; the route must commit the oracle's fallback moves."""
    cfg = TabuConfig(
        seed=1,
        max_iterations=40,
        neighborhood_size=2,
        tenure=10**6,
        network=network,
    )
    route, oracle = run_both(tiny_workload, cfg)
    assert route == oracle
    selected = [r[3] for r in route[3]]
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
