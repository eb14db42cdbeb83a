"""Tabu's neighbourhood selection on the compiled walker.

``score_moves(state, order, machine_of, moves, tabu, best_known)`` runs
tabu's whole selection rule in one walker call.  On the compiled tier
it must be ``==`` on ``(cost, index, admissible)`` to its Python
specification, :func:`~repro.schedule.neighborhood.score_by_deltas`
(:func:`~repro.schedule.neighborhood.select_move` over one delta per
candidate), and to the Python walker's own ``score_moves``, on both
networks, from idle and busy machines and NICs, for neighbourhoods with
duplicate moves, all-tabu neighbourhoods (the fallback), tabu moves
that aspirate and ``best_known = inf``.  The rule itself is checked against
exact costs from full walks of each candidate.  Both tiers reject the
same malformed calls with the same error types.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.optim import EvaluationService, ParetoTracker
from repro.schedule.neighborhood import (
    REASSIGN,
    REORDER,
    Move,
    applied_copy,
    random_move,
)
from repro.schedule.neighborhood import score_by_deltas, select_move
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import InvalidScheduleError, Simulator
from repro.schedule.valid_range import valid_insertion_range
from repro.utils.rng import as_rng
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import walker
from tests.strategies import workload_strings

_busy = st.lists(st.floats(0.0, 100.0), min_size=8, max_size=8)


def _tiers(cls, w, avail=None, nic=None):
    """``(compiled, python)`` backends of *cls* for *w*, from the given
    machine (and, for the NIC model, NIC) state."""
    l = w.num_machines
    kwargs = {"initial_avail": None if avail is None else avail[:l]}
    if cls is ContentionSimulator:
        kwargs["initial_nic_free"] = None if nic is None else nic[:l]
    sims = []
    for tier in ("compiled", "python"):
        with walker(tier):
            sims.append(cls(w, **kwargs))
    assert sims[1].walker_tier == "python"
    return sims


def _exact_selection(sim, string, moves, tabu, best_known):
    """:func:`select_move` over each candidate's full-walk makespan."""
    costs = [sim.string_makespan(applied_copy(string, mv)) for mv in moves]
    return select_move(tabu, best_known, lambda i, _cutoff: costs[i]), costs


def _check_all_agree(fast, slow, string, moves, tabu, best_known):
    o, m = string.order, string.machines
    sa, sb = fast.prepare(o, m), slow.prepare(o, m)
    got = fast.score_moves(sa, o, m, moves, tabu, best_known)
    assert isinstance(got[1], int) and isinstance(got[2], int)
    assert got == slow.score_moves(sb, o, m, moves, tabu, best_known)
    assert got == score_by_deltas(fast, sa, o, m, moves, tabu, best_known)
    exact, costs = _exact_selection(slow, string, moves, tabu, best_known)
    assert got == exact
    return got, costs


@given(
    workload_strings(min_tasks=2, max_tasks=10, max_machines=5),
    st.one_of(st.none(), _busy),
    st.one_of(st.none(), _busy),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.booleans(),
    st.sampled_from(["none", "random", "all"]),
    st.sampled_from(["inf", "zero", "candidate", "between"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_score_moves_agrees_with_its_specification(
    data, avail, nic, seed, n, avoid_noop, tabu_mode, best_mode, draw
):
    """Compiled == Python walker == the delta specification == the rule
    over exact costs, with duplicate moves, any tabu pattern and a
    ``best_known`` that every, none or some tabu move beats."""
    w, s = data
    rng = as_rng(seed)
    moves = [
        random_move(s, w.graph, rng, 0.5, avoid_noop=avoid_noop)
        for _ in range(n)
    ]
    moves += draw.draw(
        st.lists(st.sampled_from(moves), max_size=3), label="duplicates"
    )
    if tabu_mode == "random":
        tabu = draw.draw(
            st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)),
            label="tabu",
        )
    else:
        tabu = [tabu_mode == "all"] * len(moves)
    for cls in (Simulator, ContentionSimulator):
        fast, slow = _tiers(cls, w, avail, nic)
        costs = [slow.string_makespan(applied_copy(s, mv)) for mv in moves]
        best_known = {
            "inf": math.inf,
            "zero": 0.0,
            # ties with a candidate: that candidate does not aspirate
            "candidate": draw.draw(st.sampled_from(costs), label="tie"),
            "between": (min(costs) + max(costs)) / 2,
        }[best_mode]
        _check_all_agree(fast, slow, s, moves, tabu, best_known)


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
@pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
def test_fallback_and_aspiration(cls, busy):
    """The three branches of the rule on one neighbourhood: all tabu
    with nothing aspiring (the fallback commits the overall best, with
    no admissible move), all tabu with ``best_known = inf`` (every move
    aspirates), and a tabu move that aspirates among admissible ones."""
    w = build_workload(WorkloadSpec(num_tasks=30, num_machines=4, seed=3))
    s = random_valid_string(w.graph, w.num_machines, 11)
    rng = as_rng(4)
    moves = [random_move(s, w.graph, rng, 0.5, True) for _ in range(16)]
    state = [7.0, 0.0, 3.5, 1.0] if busy else None
    fast, slow = _tiers(cls, w, state, state)
    n = len(moves)
    got, costs = _check_all_agree(fast, slow, s, moves, [True] * n, 0.0)
    assert got == (min(costs), costs.index(min(costs)), 0)
    got, _ = _check_all_agree(fast, slow, s, moves, [True] * n, math.inf)
    assert got == (min(costs), costs.index(min(costs)), n)
    # the best move is tabu but beats best_known; the rest are admissible
    best = costs.index(min(costs))
    tabu = [i == best for i in range(n)]
    got, _ = _check_all_agree(fast, slow, s, moves, tabu, sorted(costs)[1])
    assert got == (min(costs), best, n)
    got, _ = _check_all_agree(fast, slow, s, moves, tabu, min(costs))
    assert got[2] == n - 1 and got[1] != best


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
def test_long_strings_agree_across_tiers(cls):
    """Past 512 tasks the walker copies the string to the heap; the
    selection stays ``==``."""
    w = build_workload(WorkloadSpec(num_tasks=600, num_machines=4, seed=9))
    s = random_valid_string(w.graph, w.num_machines, 2)
    rng = as_rng(8)
    moves = [random_move(s, w.graph, rng, 0.5, True) for _ in range(24)]
    tabu = [i % 3 == 0 for i in range(24)]
    fast, slow = _tiers(cls, w, [5.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 4.0])
    o, m = s.order, s.machines
    sa, sb = fast.prepare(o, m), slow.prepare(o, m)
    for best_known in (math.inf, sa.makespan):
        got = fast.score_moves(sa, o, m, moves, tabu, best_known)
        assert got == slow.score_moves(sb, o, m, moves, tabu, best_known)


@pytest.mark.parametrize(
    "cls", [Simulator, ContentionSimulator], ids=["plain", "nic"]
)
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_score_moves_rejects_malformed_calls(cls, tier):
    """One error type per malformed input on both tiers: TypeError for
    a state of the other tier; ValueError for a state of the other
    network or workload shape, a string other than the state's, no
    moves, a flag count other than the move count, an unknown kind, or
    a task or machine out of range; IndexError for an insertion index
    out of range; InvalidScheduleError for an order that is not a
    permutation or an insertion index outside its task's window."""
    w = build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=4))
    small = build_workload(WorkloadSpec(num_tasks=8, num_machines=3, seed=4))
    other_cls = ContentionSimulator if cls is Simulator else Simulator
    with walker(tier):
        sim, other, shrunk = cls(w), other_cls(w), cls(small)
    with walker("python" if tier == "compiled" else "compiled"):
        foreign = cls(w)
    if sim.walker_tier != tier or foreign.walker_tier == tier:
        pytest.skip("the compiled walker does not load on this host")
    s = random_valid_string(w.graph, w.num_machines, 5)
    o, m = s.order, s.machines
    ss = random_valid_string(small.graph, small.num_machines, 5)
    good = [Move(REASSIGN, s.order[0], 1), Move(REORDER, s.order[1], 1)]
    # a task whose window excludes some index in [0, k)
    task, outside = next(
        (t, lo - 1 if lo > 0 else hi + 1)
        for t in range(w.num_tasks)
        for lo, hi in [valid_insertion_range(s, w.graph, t)]
        if lo > 0 or hi < w.num_tasks - 1
    )

    def score(state=None, order=o, machine_of=m, moves=good, tabu=None):
        state = sim.prepare(o, m) if state is None else state
        tabu = [False] * len(moves) if tabu is None else tabu
        return sim.score_moves(state, order, machine_of, moves, tabu, 1e9)

    for error, bad in (
        (TypeError, foreign.prepare(o, m)),
        (ValueError, other.prepare(o, m)),
        (ValueError, shrunk.prepare(ss.order, ss.machines)),
    ):
        with pytest.raises(error):
            score(state=bad)
    with pytest.raises(InvalidScheduleError):
        score(order=[o[1]] + o[1:])
    with pytest.raises(ValueError):
        score(machine_of=[(x + 1) % w.num_machines for x in m])
    with pytest.raises(ValueError):
        score(moves=[])
    with pytest.raises(ValueError):
        score(tabu=[False])
    k, l = w.num_tasks, w.num_machines
    for error, move in (
        (ValueError, Move("swap", 0, 0)),
        (ValueError, Move(REASSIGN, k, 0)),
        (ValueError, Move(REORDER, -1, 0)),
        (ValueError, Move(REASSIGN, 0, l)),
        (ValueError, Move(REASSIGN, 0, -1)),
        (IndexError, Move(REORDER, 0, k)),
        (IndexError, Move(REORDER, 0, -1)),
        (InvalidScheduleError, Move(REORDER, task, outside)),
    ):
        with pytest.raises(error):
            score(moves=good + [move])
    cost, index, admissible = score()
    assert index in (0, 1) and admissible == 2


@pytest.mark.parametrize("network", ["contention-free", "nic"])
@pytest.mark.parametrize(
    "evaluation",
    [
        {"platform": "cloud", "objective": "weighted:1:0.5"},
        {"platform": "cloud", "objective": "weighted:1:0.5", "pareto": True},
        {"objective": "cvar:0.9", "scenarios": 4, "distribution": "uniform:0.3"},
    ],
    ids=["weighted", "pareto", "cvar"],
)
def test_wrappers_run_the_specification(network, evaluation):
    """The objective and scenario wrappers pick by the rule over their
    exact scalars, with the same checks of the neighbourhood; with a
    Pareto tracker, every candidate's exact point is offered, in
    order."""
    w = build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=4))
    fields = {k: v for k, v in evaluation.items() if k != "pareto"}
    pareto = ParetoTracker() if evaluation.get("pareto") else None
    # scores the exact scalars without offering them to the tracker
    exact = EvaluationService(w, network, **fields).backend
    service = EvaluationService(w, network, pareto=pareto, **fields)
    s = random_valid_string(w.graph, w.num_machines, 5)
    rng = as_rng(2)
    moves = [random_move(s, w.graph, rng, 0.5, True) for _ in range(10)]
    tabu = [i % 3 == 0 for i in range(10)]
    state = service.prepare(s.order, s.machines)
    copies = [applied_copy(s, mv) for mv in moves]
    costs = [exact.string_makespan(c) for c in copies]
    witness = ParetoTracker()  # offered the points a tracker should see
    if pareto is not None:
        raw, cm = service.backend.base, service.cost_model
        for c in [s] + copies:
            witness.offer(raw.string_makespan(c), cm.cost(c.machines))
    for best_known in (math.inf, sorted(costs)[3], 0.0):
        offers = 0 if pareto is None else pareto.offers
        assert service.score_moves(
            state, s.order, s.machines, moves, tabu, best_known
        ) == select_move(tabu, best_known, lambda i, _cutoff: costs[i])
        if pareto is not None:
            assert pareto.offers == offers + len(moves)
            assert [p.point for p in pareto.front] == [
                p.point for p in witness.front
            ]
    with pytest.raises(ValueError):
        service.score_moves(state, s.order, s.machines, [], [], 1e9)
    with pytest.raises(IndexError):
        service.score_moves(
            state, s.order, s.machines, [Move(REORDER, 0, 99)], [False], 1e9
        )
