"""SE's allocation phase in one walker call, and the optimistic finish
times from the walker's tables.

The compiled ``allocate`` must equal its specification,
``allocate_by_places`` (one ``place_by_probes`` per selected subtask
over the same backend), and the Python tier on the final string, its
positions, ``trials``, ``moved``, the makespan and ``as_schedule()``:
over both networks, both slot strategies, idle or busy machines and
NICs, and the uniform and non-uniform platforms; and so for a single
subtask, every subtask in turn, over candidates in any order.  The
state it re-prepares in place after each move must be byte-for-byte a
fresh ``prepare`` of the final string.  ``optimal_finish`` must be bit-for-bit
``optimal_finish_times``.  Both tiers, and the objective wrapper, raise
the same errors before the string changes.
"""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import GoodnessEvaluator, optimal_finish_times
from repro.optim import EvaluationService
from repro.schedule.backend import make_simulator
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import InvalidScheduleError
from repro.schedule.valid_range import allocate_by_places, place_by_probes
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import walker
from tests.strategies import workload_strings, workloads

_busy = st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6)
_networks = st.sampled_from(["contention-free", "nic"])
_platforms = st.sampled_from(["uniform", "spot", "cloud"])


def _tiers(w, network, platform="uniform", avail=None, nic=None):
    """``(compiled, python)`` backends of *w*; *avail* / *nic* of
    ``None`` build idle machines / NICs."""
    l = w.num_machines
    kwargs = {"initial_avail": None if avail is None else avail[:l]}
    if network == "nic" and nic is not None:
        kwargs["initial_nic_free"] = nic[:l]
    sims = []
    for tier in ("compiled", "python"):
        with walker(tier):
            sims.append(make_simulator(w, network, platform=platform, **kwargs))
    assert sims[1].walker_tier == "python"
    return sims


def _outcome(run, string, selected, candidates, all_positions):
    """What one allocation leaves: the string, its positions, the counts,
    the makespan and the schedule."""
    string = string.copy()
    state, trials, moved = run(string, selected, candidates, all_positions)
    assert type(trials) is int and type(moved) is int
    return (
        string,
        list(string.positions),
        trials,
        moved,
        state.makespan,
        state.as_schedule(),
    )


@given(
    workload_strings(max_machines=6),
    _networks,
    _platforms,
    st.one_of(st.none(), _busy),
    st.one_of(st.none(), _busy),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_allocate_agrees_with_its_specification(
    data, network, platform, avail, nic, draw
):
    """Compiled ``allocate`` == ``allocate_by_places`` == the Python
    tier, for any selection (repeats and any order included) over the
    top-Y ranking or an arbitrary table with repeated machines, and for
    a one-subtask selection of every subtask over Y machines in any
    order, where ``trials`` counts that subtask's probes."""
    w, s = data
    fast, slow = _tiers(w, network, platform, avail, nic)
    eff = fast.workload
    k, l = eff.num_tasks, eff.num_machines
    y = draw.draw(st.integers(1, l), label="Y")
    if draw.draw(st.booleans(), label="ranking"):
        candidates = eff.exec_times.ranking[:y].T
    else:
        seed = draw.draw(st.integers(0, 2**32 - 1), label="table seed")
        candidates = np.random.default_rng(seed).integers(l, size=(k, y))
    all_positions = draw.draw(st.booleans(), label="all_positions")
    selected = draw.draw(
        st.lists(st.integers(0, k - 1), max_size=2 * k), label="selected"
    )
    machines = draw.draw(st.permutations(range(l)), label="machines")[:y]
    row = np.tile(np.array(machines, dtype=np.int64), (k, 1))
    runs = [(selected, candidates)] + [([t], row) for t in range(k)]
    for chosen, table in runs:
        args = (s, chosen, table, all_positions)
        want = _outcome(partial(allocate_by_places, slow), *args)
        assert _outcome(fast.allocate, *args) == want
        assert _outcome(partial(allocate_by_places, fast), *args) == want
        assert _outcome(slow.allocate, *args) == want
        assert want[2] >= 1 + want[3]  # one prepare, one more per move
    if fast.walker_tier == "compiled":
        string = s.copy()
        state = fast.allocate(string, selected, candidates, all_positions)[0]
        fresh = fast.prepare(string.order, string.machines)
        assert pickle.dumps(state) == pickle.dumps(fresh)


@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_allocate_agrees_on_long_strings(network):
    """Past 512 tasks the walker's buffers live on the heap; a busy
    start, the full ranking and every subtask selected once."""
    w = build_workload(WorkloadSpec(num_tasks=600, num_machines=4, seed=9))
    s = random_valid_string(w.graph, w.num_machines, 2)
    fast, slow = _tiers(w, network, avail=[5.0, 0.0, 2.0, 0.0])
    candidates = w.exec_times.ranking.T
    selected = list(range(0, 600, 3))
    want = _outcome(slow.allocate, s, selected, candidates, False)
    assert want[3] > 0
    assert _outcome(fast.allocate, s, selected, candidates, False) == want


@pytest.mark.parametrize("network", ["contention-free", "nic"])
@given(workload_strings(max_machines=6), st.data())
@settings(max_examples=40, deadline=None)
def test_one_subtask_allocate_is_one_place_by_probes(network, data, draw):
    """A one-subtask ``allocate`` on either tier leaves the subtask at
    ``place_by_probes``'s (index, machine), at its cost, after one
    prepare, its probes and one more prepare if it moved; for every
    subtask, both slot modes and 1 <= Y <= l candidates in any order."""
    w, s = data
    l = w.num_machines
    y = draw.draw(st.integers(1, l), label="Y")
    machines = draw.draw(st.permutations(range(l)), label="machines")[:y]
    all_positions = draw.draw(st.booleans(), label="all_positions")
    row = np.tile(np.array(machines, dtype=np.int64), (w.num_tasks, 1))
    for sim in _tiers(w, network):
        state = sim.prepare(s.order, s.machines)
        for task in range(s.num_tasks):
            cost, index, machine, probes = place_by_probes(
                sim, state, s.order, s.machines, task, machines, all_positions
            )
            string = s.copy()
            got, trials, moved = sim.allocate(
                string, [task], row, all_positions
            )
            placed = (string.position_of(task), string.machine_of(task))
            assert placed == (index, machine)
            assert moved == int(
                placed != (s.position_of(task), s.machine_of(task))
            )
            assert trials == 1 + probes + moved
            assert got.makespan == cost


@given(workloads(max_machines=6), _networks, _platforms)
@settings(max_examples=80, deadline=None)
def test_optimal_finish_is_the_specification_bit_for_bit(w, network, platform):
    for sim in _tiers(w, network, platform):
        eff = sim.workload
        want = optimal_finish_times(eff)
        got = GoodnessEvaluator(sim).optimal
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_optimal_finish_rejects_a_bad_order_or_machine(tier):
    w = build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=4))
    with walker(tier):
        sim = make_simulator(w)
    best = w.exec_times.ranking[0].tolist()
    topo = list(w.graph.topological_order())
    late = next(t for t in topo if w.graph.predecessors(t))
    with pytest.raises(InvalidScheduleError):
        sim.optimal_finish(best, [late] + [t for t in topo if t != late])
    with pytest.raises(InvalidScheduleError):
        sim.optimal_finish(best, [topo[0]] + topo[:-1])
    with pytest.raises(ValueError):
        sim.optimal_finish(best[:-1] + [3], topo)
    with pytest.raises(ValueError):
        sim.optimal_finish(best[:-1], topo)


@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_both_tiers_and_the_wrapper_raise_the_same_errors(network):
    """A bad selected id, a candidate table of the wrong shape or type
    and positions that are not the string's raise one message on every
    backend, and a string that breaks the graph InvalidScheduleError;
    the string is untouched by each."""
    w = build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=4))
    fast, slow = _tiers(w, network)
    if fast.walker_tier != "compiled":
        pytest.skip("the compiled walker does not load on this host")
    weighted = EvaluationService(
        w, network, objective="weighted:1:0.5"
    ).backend
    s = random_valid_string(w.graph, w.num_machines, 5)
    ranking = w.exec_times.ranking
    good = ranking[:2].T
    bad_entry = good.copy()
    bad_entry[4, 1] = 3
    broken = s.copy()
    late = next(t for t in s.order if w.graph.predecessors(t))
    broken.order.remove(late)
    broken.order.insert(0, late)
    for p, t in enumerate(broken.order):
        broken.positions[t] = p
    skewed = s.copy()
    skewed.positions[s.order[0]] = 1
    cases = [
        (ValueError, s, [0, 12], good),
        (ValueError, s, [-1], good),
        (ValueError, s, [0], ranking),  # (l, k): l rows, not k
        (TypeError, s, [0], ranking[0]),  # 1-D
        (TypeError, s, [0], good.tolist()),
        (TypeError, s, [0], good.astype(np.int32)),
        (ValueError, s, [0], bad_entry),
        (ValueError, skewed, [0], good),
        (InvalidScheduleError, broken, [0], good),
    ]
    for error, string, selected, candidates in cases:
        messages = set()
        for backend in (fast, slow, weighted):
            copy = string.copy()
            with pytest.raises(error) as err:
                backend.allocate(copy, selected, candidates, False)
            assert copy.order == string.order
            assert copy.machines == string.machines
            assert copy.positions == string.positions
            messages.add(str(err.value))
        assert len(messages) == 1, messages
    assert fast.allocate(s.copy(), [0], good, False)[1] > 1
