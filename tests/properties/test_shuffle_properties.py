"""The SE initial string's shuffle on the compiled walker.

``shuffle(order, rng, num_moves)`` runs the paper's §4.2 perturbation in
one walker call that draws straight from *rng*'s bit generator.  Its
specification is :func:`~repro.schedule.operations.shuffle_string`,
which is also the Python walker's body.  Both tiers must match the
specification in two ways: the returned order, and *rng*'s bit
generator state after the call, so every later draw lines up.  This
holds on both networks, for every numpy bit generator, for windows of
width 1 (where no index is drawn), for ``num_moves = 0`` and past the
512-task stack limit.  Both tiers reject the same malformed calls with
the same error types.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.initial import initial_solution
from repro.extensions.contention import ContentionSimulator
from repro.model import ExecutionTimeMatrix, TransferTimeMatrix
from repro.model import Workload, num_pairs
from repro.optim import EvaluationService
from repro.optim.objective import ObjectiveBackend
from repro.schedule.encoding import ScheduleString, is_valid_for
from repro.schedule.operations import shuffle_string
from repro.schedule.simulator import InvalidScheduleError, Simulator
from repro.stochastic.scenarios import ScenarioBackend
from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.generator import chain_dag
from tests.routes import walker
from tests.strategies import workload_strings

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


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


def _spec(w, order, rng, num_moves):
    """The specification's order after *num_moves* moves."""
    s = ScheduleString(order, [0] * len(order), 1)
    shuffle_string(s, w.graph, rng, num_moves)
    return s.order


def _check_agrees(backends, w, order, bits, seed, num_moves):
    """Every backend's ``shuffle`` == the specification: the same order
    and the same bit generator state afterwards."""
    rng = np.random.Generator(bits(seed))
    want = _spec(w, order, rng, num_moves)
    assert is_valid_for(ScheduleString(want, [0] * len(want), 1), w.graph)
    state = rng.bit_generator.state
    after = (rng.integers(1 << 40), rng.random())
    for backend in backends:
        other = np.random.Generator(bits(seed))
        given_order = list(order)
        got = backend.shuffle(given_order, other, num_moves)
        assert got == want
        assert given_order == list(order)  # the input is not mutated
        assert _same_state(state, other.bit_generator.state)
        assert (other.integers(1 << 40), other.random()) == after
    return want


@given(
    workload_strings(min_tasks=1, max_tasks=12, max_machines=4),
    st.sampled_from(BIT_GENERATORS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
)
@settings(max_examples=80, deadline=None)
def test_shuffle_agrees_with_its_specification(data, bits, seed, num_moves):
    """Compiled == Python walker == ``shuffle_string`` on random DAGs
    from random valid strings, both networks, every bit generator."""
    w, s = data
    for cls in (Simulator, ContentionSimulator):
        _check_agrees(_tiers(cls, w), w, s.order, bits, seed, num_moves)


def _chain_workload(k: int) -> Workload:
    graph = chain_dag(k)
    rng = np.random.default_rng(k)
    return Workload(
        graph,
        ExecutionTimeMatrix(rng.uniform(1.0, 5.0, size=(3, k))),
        TransferTimeMatrix(
            rng.uniform(0.0, 2.0, size=(num_pairs(3), graph.num_data_items)),
            num_machines=3,
        ),
    )


@pytest.mark.parametrize("bits", BIT_GENERATORS)
@pytest.mark.parametrize("k", [1, 2, 7])
def test_width_one_windows_and_no_moves(bits, k):
    """On a chain every window has width 1, so a move draws its subtask
    and no index (with one subtask, not even that); the string never
    changes, and the generator advances exactly as the specification's.
    ``num_moves = 0`` draws nothing."""
    w = _chain_workload(k)
    order = list(range(k))
    for cls in (Simulator, ContentionSimulator):
        backends = _tiers(cls, w)
        for num_moves in (0, 1, 25):
            got = _check_agrees(backends, w, order, bits, 3, num_moves)
            assert got == order
        rng = np.random.Generator(bits(3))
        before = rng.bit_generator.state
        assert backends[0].shuffle(order, rng, 0) == order
        assert _same_state(before, rng.bit_generator.state)


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
@pytest.mark.parametrize("bits", BIT_GENERATORS)
def test_long_strings_agree(cls, bits):
    """Past 512 subtasks the walker reads the order onto the heap; the
    draws and the result stay the specification's."""
    w = build_workload(WorkloadSpec(num_tasks=600, num_machines=4, seed=9))
    order = list(w.graph.topological_order())
    _check_agrees(_tiers(cls, w), w, order, bits, 11, 1500)


def test_paper_scale_limit_against_the_specification():
    """At 6400 subtasks (layered, 20 machines) the compiled shuffle
    still makes the specification's draws."""
    w = build_workload(WorkloadSpec(num_tasks=6400, num_machines=20, seed=1))
    with walker("compiled"):
        sim = Simulator(w)
    order = list(w.graph.topological_order())
    _check_agrees([sim], w, order, np.random.PCG64, 5, 2 * 6400)


@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_initial_solution_through_a_backend(tier):
    """The SE initial string is the paper's recipe with the
    specification's moves (machines, then the move count, then
    ``shuffle_string``), and leaves the generator in the same state."""
    w = build_workload(WorkloadSpec(num_tasks=40, num_machines=5, seed=2))
    with walker(tier):
        sim = Simulator(w)
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        machines = a.integers(w.num_machines, size=40).tolist()
        num_moves = int(a.integers(40, 121))  # shuffle_range (1, 3)
        order = _spec(w, w.graph.topological_order(), a, num_moves)
        want = ScheduleString(order, machines, w.num_machines)
        assert initial_solution(sim, b) == want
        assert _same_state(a.bit_generator.state, b.bit_generator.state)


@pytest.mark.parametrize("network", ["contention-free", "nic"])
@pytest.mark.parametrize(
    "evaluation",
    [
        {"platform": "cloud", "objective": "weighted:1:0.5"},
        {"objective": "cvar:0.9", "scenarios": 4, "distribution": "uniform:0.3"},
    ],
    ids=["weighted", "cvar"],
)
def test_wrappers_delegate(network, evaluation):
    """The objective and scenario wrappers shuffle through the scalar
    backend they wrap: the graph is the same."""
    w = build_workload(WorkloadSpec(num_tasks=30, num_machines=4, seed=4))
    service = EvaluationService(w, network, **evaluation)
    assert isinstance(service.backend, (ObjectiveBackend, ScenarioBackend))
    order = list(w.graph.topological_order())
    _check_agrees([service.backend], w, order, np.random.PCG64, 7, 60)


@pytest.mark.parametrize(
    "cls", [Simulator, ContentionSimulator], ids=["plain", "nic"]
)
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_shuffle_rejects_malformed_calls(cls, tier):
    """One error type per malformed call on both tiers: ValueError for a
    negative move count, an order of the wrong length, or an order
    that breaks a dependency (the spec raises it from
    ``rng.integers``; the compiled walker raises InvalidScheduleError,
    a subclass); InvalidScheduleError for an order that is not a
    permutation; TypeError for an rng that is not a numpy Generator."""
    w = _chain_workload(5)
    with walker(tier):
        sim = cls(w)
    if sim.walker_tier != tier:
        pytest.skip("the compiled walker does not load on this host")
    order = [0, 1, 2, 3, 4]

    def shuffle(order=order, rng=None, num_moves=3):
        rng = np.random.default_rng(0) if rng is None else rng
        return sim.shuffle(order, rng, num_moves)

    with pytest.raises(ValueError):
        shuffle(num_moves=-1)
    with pytest.raises(ValueError):
        shuffle(order=order[:4])
    for bad in ([0, 0, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, -1]):
        with pytest.raises(InvalidScheduleError):
            shuffle(order=bad)
    # reversed, subtasks 1..3 have no valid insertion index
    backwards = order[::-1]
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(ValueError):
        _spec(w, backwards, a, 10)
    with pytest.raises(ValueError):
        shuffle(order=backwards, rng=b, num_moves=10)
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    for rng in (random.Random(0), np.random.RandomState(0),
                np.random.PCG64(0)):
        with pytest.raises(TypeError):
            sim.shuffle(order, rng, 3)
    if tier == "compiled":
        # the walker entry checks the generator on its own
        for rng in (random.Random(0), object()):
            with pytest.raises(TypeError):
                sim._c.shuffle(order, rng, 3)
    assert shuffle() == order
