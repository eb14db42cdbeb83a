"""The compiled walker against the Python walker and the reference walk.

Every field a ``prepare`` snapshot exposes, every ``makespan`` and every
``evaluate_delta`` (with cutoff and ``region_end``) must be ``==``
across the two tiers of both scalar backends, and equal to the
reference walk written from the model, from random busy machine and NIC
states.  Probes move one or two subtasks at a time, so the delta walks
cover the rejoin exit, the clean shortcut and the NIC restart floor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.schedule.backend import plain_schedule
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import InvalidScheduleError, Simulator
from repro.schedule.valid_range import place_by_probes, valid_insertion_range
from repro.workloads import WorkloadSpec, build_workload
from tests.properties.test_reference_walk_properties import reference_walk
from tests.routes import walker
from tests.strategies import workload_strings

_busy = st.lists(st.floats(0.0, 100.0), min_size=8, max_size=8)

_FIELDS = ("order", "machine_of", "pos_of", "start", "finish", "span_prefix")


def _pairs(w, avail, nic):
    """``(compiled, python, nic0)`` per network; *avail* / *nic* of
    ``None`` build idle machines / NICs (``nic0`` is then ``None``)."""
    l = w.num_machines
    avail = None if avail is None else avail[:l]
    nic = None if nic is None else nic[:l]
    for cls, kwargs, nic0 in (
        (Simulator, {}, None),
        (ContentionSimulator, {"initial_nic_free": nic}, nic),
    ):
        sims = []
        for tier in ("compiled", "python"):
            with walker(tier):
                sims.append(cls(w, initial_avail=avail, **kwargs))
        assert sims[1].walker_tier == "python"
        yield sims[0], sims[1], nic0


@given(workload_strings(max_machines=6), _busy, _busy)
@settings(max_examples=80)
def test_prepare_fields_agree_across_tiers(data, avail, nic):
    w, s = data
    for fast, slow, nic0 in _pairs(w, avail, nic):
        start, finish, span = reference_walk(
            w, s.order, s.machines, avail[: w.num_machines], nic0
        )
        assert fast.makespan(s.order, s.machines) == span
        assert slow.makespan(s.order, s.machines) == span
        a = fast.prepare(s.order, s.machines)
        b = slow.prepare(s.order, s.machines)
        for field in _FIELDS:
            assert getattr(a, field) == getattr(b, field), field
        assert a.makespan == b.makespan == span
        assert a.start == start and a.finish == finish
        assert a.pos_of == [s.position_of(t) for t in range(s.num_tasks)]
        assert a.as_schedule() == b.as_schedule()
        assert fast.evaluate(s) == slow.evaluate(s)  # NIC: transfers too


@given(workload_strings(max_machines=6), _busy, _busy)
@settings(max_examples=60)
def test_evaluate_and_finish_times_read_one_prepare(data, avail, nic):
    """``finish_times`` is the prepared ``finish`` and ``evaluate``'s
    schedule the prepared ``as_schedule()``, on both tiers of both
    networks, from a busy machine (and NIC) state."""
    w, s = data
    for fast, slow, _nic0 in _pairs(w, avail, nic):
        for sim in (fast, slow):
            evaluated = sim.evaluate(s)
            assert sim.finish_times(s) == list(evaluated.finish)
            assert plain_schedule(evaluated) == (
                sim.prepare(s.order, s.machines).as_schedule()
            )


@given(
    workload_strings(max_machines=6),
    _busy,
    _busy,
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.5, 1.0, 1.05, math.inf)),
    st.booleans(),
)
@settings(max_examples=80)
def test_deltas_agree_across_tiers(data, avail, nic, move_seed, slack, two):
    """One or two relocations per probe, scored from the first changed
    position with ``region_end`` at the last (and without it)."""
    w, s = data
    l = w.num_machines
    rng = np.random.default_rng(move_seed)
    for fast, slow, nic0 in _pairs(w, avail, nic):
        sa = fast.prepare(s.order, s.machines)
        sb = slow.prepare(s.order, s.machines)
        cutoff = sa.makespan * slack
        for _ in range(5):
            base = s.copy()
            lo_pos, hi_pos = s.num_tasks, -1
            for _ in range(2 if two else 1):
                task = int(rng.integers(s.num_tasks))
                old = s.position_of(task)
                lo, hi = valid_insertion_range(s, w.graph, task)
                idx = int(rng.integers(lo, hi + 1))
                s.relocate(task, idx, int(rng.integers(l)))
                lo_pos = min(lo_pos, old, idx)
                hi_pos = max(hi_pos, old, idx)
            want = reference_walk(w, s.order, s.machines, avail[:l], nic0)[2]
            for region_end in (hi_pos, None):
                got = [
                    sim.evaluate_delta(
                        s.order, s.machines, lo_pos, state, cutoff, region_end
                    )
                    for sim, state in ((fast, sa), (slow, sb))
                ]
                assert got[0] == got[1] == (want if want < cutoff else math.inf)
            assert fast.evaluate_delta(s.order, s.machines, 0, sa) == want
            s = base


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
def test_unchanged_string_delta_is_the_base_makespan(cls, tiny_workload):
    """``first_changed >= k`` and an unchanged suffix return the base
    makespan (or ``inf`` at the cutoff) on both tiers."""
    w = tiny_workload
    s = random_valid_string(w.graph, w.num_machines, 4)
    for tier in ("compiled", "python"):
        with walker(tier):
            sim = cls(w)
        state = sim.prepare(s.order, s.machines)
        k = w.num_tasks
        assert sim.evaluate_delta(s.order, s.machines, k, state) == state.makespan
        assert sim.evaluate_delta(
            s.order, s.machines, k + 5, state, state.makespan
        ) == math.inf
        assert sim.evaluate_delta(s.order, s.machines, -3, state) == state.makespan


@pytest.mark.parametrize("cls", [Simulator, ContentionSimulator])
def test_long_strings_agree_across_tiers(cls):
    """Past 512 tasks the compiled walker copies its inputs to the heap
    instead of the stack; ``makespan``, ``prepare``, ``allocate`` and
    ``evaluate_delta`` stay ``==``."""
    w = build_workload(WorkloadSpec(num_tasks=600, num_machines=4, seed=9))
    s = random_valid_string(w.graph, w.num_machines, 2)
    with walker("compiled"):
        fast = cls(w, initial_avail=[5.0, 0.0, 2.0, 0.0])
    with walker("python"):
        slow = cls(w, initial_avail=[5.0, 0.0, 2.0, 0.0])
    assert fast.makespan(s.order, s.machines) == slow.makespan(
        s.order, s.machines
    )
    a, b = fast.prepare(s.order, s.machines), slow.prepare(s.order, s.machines)
    assert a.finish == b.finish and a.span_prefix == b.span_prefix
    candidates = np.tile(np.array([3, 0, 1], dtype=np.int64), (600, 1))
    for task, all_positions in ((s.order[10], False), (s.order[590], True)):
        outcomes = []
        for sim in (fast, slow):
            string = s.copy()
            state, trials, moved = sim.allocate(
                string, [task], candidates, all_positions
            )
            outcomes.append((string, trials, moved, state.makespan))
        assert outcomes[0][1] > 2  # the prepare and more than one probe
        assert outcomes[0] == outcomes[1]
    task = s.order[300]
    idx = valid_insertion_range(s, w.graph, task)[0]
    s.relocate(task, idx, (s.machine_of(task) + 1) % 4)
    first = min(idx, 300)
    assert fast.evaluate_delta(s.order, s.machines, first, a) == (
        slow.evaluate_delta(s.order, s.machines, first, b)
    )


@pytest.mark.parametrize(
    "cls", [Simulator, ContentionSimulator], ids=["plain", "nic"]
)
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_evaluate_delta_rejects_a_state_it_cannot_resume(cls, tier):
    """Both tiers raise one error type per foreign state: TypeError for
    a state of the other tier; ValueError for a state of the other
    network or of another workload shape."""
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
    for error, bad in (
        (TypeError, foreign.prepare(o, m)),
        (ValueError, other.prepare(o, m)),
        (ValueError, shrunk.prepare(ss.order, ss.machines)),
    ):
        with pytest.raises(error):
            sim.evaluate_delta(o, m, 0, bad)
    state = sim.prepare(o, m)
    assert sim.evaluate_delta(o, m, 0, state) == state.makespan


@pytest.mark.parametrize(
    "cls", [Simulator, ContentionSimulator], ids=["plain", "nic"]
)
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_place_by_probes_rejects_a_string_that_breaks_its_graph(cls, tier):
    """A state of another DAG with the same shape passes the shape
    check; when its string leaves the task no valid insertion index,
    the probe loop raises InvalidScheduleError over both tiers rather
    than probe outside the window."""
    rng = np.random.default_rng(0)

    def chain(edges):
        return Workload(
            TaskGraph.from_edges(3, edges),
            ExecutionTimeMatrix(rng.uniform(1.0, 9.0, size=(2, 3))),
            TransferTimeMatrix(rng.uniform(0.0, 5.0, size=(1, 2)), 2),
        )

    forward, backward = chain([(0, 1), (1, 2)]), chain([(2, 1), (1, 0)])
    with walker(tier):
        sim, other = cls(backward), cls(forward)
    state = other.prepare([0, 1, 2], [0, 1, 0])
    for all_positions in (False, True):
        with pytest.raises(InvalidScheduleError):
            place_by_probes(
                sim, state, [0, 1, 2], [0, 1, 0], 1, (0, 1), all_positions
            )
