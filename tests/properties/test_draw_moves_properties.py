"""Tabu's and SA's moves on the compiled walker.

``draw_moves(order, machine_of, rng, count, reassign_prob, avoid_noop)``
draws *count* random valid moves against one string in one walker call,
straight from *rng*'s bit generator.  Its specification is
:func:`~repro.schedule.neighborhood.random_move`, called *count* times
against the unchanged string, which is also the Python walker's body.
Both tiers must match the specification in two ways: the returned moves
(``==``, each a :class:`~repro.schedule.neighborhood.Move`), and *rng*'s
bit generator state after the call, so every later draw lines up.  This
holds on both networks, for every numpy bit generator, with and without
``avoid_noop``, for reassignment probabilities of 0, 1/2 and 1, for one,
two and more machines, for windows of width 1 (where no index is
drawn), for ``count = 0`` and past the 512-task stack limit.  Both tiers
reject the same malformed calls with the same error types.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.model import ExecutionTimeMatrix, TransferTimeMatrix
from repro.model import Workload, num_pairs
from repro.optim import EvaluationService
from repro.schedule.encoding import ScheduleString
from repro.schedule.neighborhood import Move, check_moves, random_move
from repro.schedule.simulator import InvalidScheduleError, Simulator
from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.generator import chain_dag
from tests.routes import walker
from tests.strategies import workload_strings

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]
REASSIGN_PROBS = [0.0, 0.5, 1.0]


def _tiers(cls, w):
    """``(compiled, python)`` backends of *cls* for *w*."""
    sims = []
    for tier in ("compiled", "python"):
        with walker(tier):
            sims.append(cls(w))
    assert sims[1].walker_tier == "python"
    return sims


def _same_state(a, b) -> bool:
    """Bit generator states are equal (MT19937 keeps an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[x], b[x]) for x in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _spec(w, string, rng, count, reassign_prob, avoid_noop):
    """The specification's moves."""
    return [
        random_move(string, w.graph, rng, reassign_prob, avoid_noop)
        for _ in range(count)
    ]


def _check_agrees(backends, w, string, bits, seed, count, reassign_prob,
                  avoid_noop):
    """Every backend's ``draw_moves`` == the specification: the same
    moves, each a ``Move``, and the same bit generator state after."""
    rng = np.random.Generator(bits(seed))
    want = _spec(w, string, rng, count, reassign_prob, avoid_noop)
    if want:
        check_moves(string, w.graph, want, [False] * len(want))
    state = rng.bit_generator.state
    after = (rng.integers(1 << 40), rng.random())
    for backend in backends:
        other = np.random.Generator(bits(seed))
        order, machines = list(string.order), list(string.machines)
        got = backend.draw_moves(
            order, machines, other, count, reassign_prob, avoid_noop
        )
        assert got == want
        assert all(type(move) is Move for move in got)
        # the inputs are not mutated
        assert (order, machines) == (string.order, string.machines)
        assert _same_state(state, other.bit_generator.state)
        assert (other.integers(1 << 40), other.random()) == after
    return want


@given(
    workload_strings(min_tasks=1, max_tasks=12, max_machines=4),
    st.sampled_from(BIT_GENERATORS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 30),
    st.sampled_from(REASSIGN_PROBS),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_draw_moves_agrees_with_its_specification(
    data, bits, seed, count, reassign_prob, avoid_noop
):
    """Compiled == Python walker == ``random_move`` on random DAGs from
    random valid strings with one to four machines, both networks,
    every bit generator."""
    w, s = data
    for cls in (Simulator, ContentionSimulator):
        _check_agrees(
            _tiers(cls, w), w, s, bits, seed, count, reassign_prob,
            avoid_noop,
        )


@given(
    workload_strings(min_tasks=2, max_tasks=10, min_machines=2,
                     max_machines=4),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_identity_free_moves_change_the_string(data, seed, reassign_prob):
    """With ``avoid_noop`` and two or more machines no move is the
    identity: a reassignment names another machine, a relocation
    another position."""
    w, s = data
    with walker("compiled"):
        sim = Simulator(w)
    rng = np.random.default_rng(seed)
    moves = sim.draw_moves(s.order, s.machines, rng, 20, reassign_prob, True)
    for kind, task, target in moves:
        if kind == "reassign":
            assert target != s.machine_of(task)
        else:
            assert target != s.position_of(task)


def _chain_workload(k: int, l: int) -> Workload:
    graph = chain_dag(k)
    rng = np.random.default_rng(k)
    return Workload(
        graph,
        ExecutionTimeMatrix(rng.uniform(1.0, 5.0, size=(l, k))),
        TransferTimeMatrix(
            rng.uniform(0.0, 2.0, size=(num_pairs(l), graph.num_data_items)),
            num_machines=l,
        ),
    )


@pytest.mark.parametrize("bits", BIT_GENERATORS)
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_width_one_windows_and_no_moves(bits, l, k):
    """On a chain every window has width 1, so a relocation draws no
    index (with one subtask, the subtask is not drawn either); with
    ``avoid_noop`` it falls back to a reassignment, or, on one machine,
    to the identity relocation.  ``count = 0`` draws nothing."""
    w = _chain_workload(k, l)
    s = ScheduleString(list(range(k)), [t % l for t in range(k)], l)
    for cls in (Simulator, ContentionSimulator):
        backends = _tiers(cls, w)
        for count in (0, 1, 25):
            for p in REASSIGN_PROBS:
                for avoid_noop in (False, True):
                    got = _check_agrees(
                        backends, w, s, bits, 3, count, p, avoid_noop
                    )
                    if avoid_noop and l == 1:
                        assert got == [
                            Move("reorder", t, t) for _, t, _ in got
                        ]
        rng = np.random.Generator(bits(3))
        before = rng.bit_generator.state
        assert backends[0].draw_moves(s.order, s.machines, rng, 0) == []
        assert _same_state(before, rng.bit_generator.state)


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
@pytest.mark.parametrize("bits", BIT_GENERATORS)
@pytest.mark.parametrize("avoid_noop", [False, True])
def test_long_strings_agree(cls, bits, avoid_noop):
    """Past 512 subtasks the walker reads the string onto the heap; the
    draws and the moves stay the specification's."""
    w = build_workload(WorkloadSpec(num_tasks=600, num_machines=4, seed=9))
    rng = np.random.default_rng(4)
    s = ScheduleString(
        w.graph.topological_order(),
        rng.integers(4, size=600).tolist(),
        4,
    )
    _check_agrees(_tiers(cls, w), w, s, bits, 11, 500, 0.5, avoid_noop)


@pytest.mark.parametrize("network", ["contention-free", "nic"])
@pytest.mark.parametrize(
    "evaluation",
    [
        {},
        {"platform": "cloud", "objective": "weighted:1:0.5"},
        {"objective": "cvar:0.9", "scenarios": 4, "distribution": "uniform:0.3"},
    ],
    ids=["makespan", "weighted", "cvar"],
)
def test_the_service_draws_uncounted(network, evaluation):
    """The evaluation service draws through its raw backend, whatever
    the objective, and counts no evaluation."""
    w = build_workload(WorkloadSpec(num_tasks=30, num_machines=4, seed=4))
    service = EvaluationService(w, network, **evaluation)
    s = ScheduleString(w.graph.topological_order(), [1] * 30, 4)
    before = service.evaluations
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    got = service.draw_moves(s.order, s.machines, a, 24, 0.5, avoid_noop=True)
    assert got == _spec(w, s, b, 24, 0.5, True)
    assert service.evaluations == before
    assert _same_state(a.bit_generator.state, b.bit_generator.state)


@pytest.mark.parametrize(
    "cls", [Simulator, ContentionSimulator], ids=["plain", "nic"]
)
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_draw_moves_rejects_malformed_calls(cls, tier):
    """One error type per malformed call on both tiers: TypeError for an
    rng that is not a numpy Generator; ValueError for a negative count,
    a string of the wrong length or a machine out of range;
    InvalidScheduleError for an order that is not a permutation, and
    ValueError for a relocation with no valid insertion index."""
    w = _chain_workload(5, 3)
    with walker(tier):
        sim = cls(w)
    if sim.walker_tier != tier:
        pytest.skip("the compiled walker does not load on this host")
    order, machines = [0, 1, 2, 3, 4], [0, 1, 2, 0, 1]

    def draw(order=order, machines=machines, rng=None, count=3):
        rng = np.random.default_rng(0) if rng is None else rng
        return sim.draw_moves(order, machines, rng, count, 0.5, True)

    with pytest.raises(ValueError):
        draw(count=-1)
    with pytest.raises(ValueError):
        draw(order=order[:4])
    with pytest.raises(ValueError):
        draw(machines=machines[:4])
    for bad in ([0, 1, 2, 3, 3], [0, 1, 3, 0, -1]):
        with pytest.raises(ValueError):
            draw(machines=bad)
    for bad in ([0, 0, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, -1]):
        with pytest.raises(InvalidScheduleError):
            draw(order=bad)
    # reversed, subtasks 1..3 have no valid insertion index: a
    # relocation raises ValueError (the spec from ``rng.integers``; the
    # compiled walker raises InvalidScheduleError, a subclass)
    with pytest.raises(ValueError):
        sim.draw_moves(order[::-1], machines, np.random.default_rng(0), 10,
                       0.0, False)
    for rng in (random.Random(0), np.random.RandomState(0),
                np.random.PCG64(0)):
        with pytest.raises(TypeError):
            draw(rng=rng)
    if tier == "compiled":
        # the walker entry checks the generator on its own
        for rng in (random.Random(0), object()):
            with pytest.raises(TypeError):
                sim._c.draw_moves(order, machines, rng, 3, 0.5, True)
    assert len(draw()) == 3
