"""Both scalar simulators against a reference walk written from the model.

The delta-vs-full properties compare two walks of the same simulator,
which read the same machine-pair ``Tr`` table; a wrong table would pass
them.  The walker below shares no code with either simulator: it visits
the string position by position, takes every transfer time from
:meth:`TransferTimeMatrix.time` behind an explicit same-machine branch,
and keeps its own machine-free, NIC-free and arrival bookkeeping.
Results must match exactly (``==``) for ``makespan``, ``evaluate``,
``prepare`` and ``evaluate_delta`` (with cutoff and ``region_end``),
from random busy initial machine and NIC states, on both walker tiers
(the compiled C walker and the Python bodies it is specified by).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.schedule.simulator import Simulator
from repro.schedule.valid_range import valid_insertion_range
from tests.routes import walker
from tests.strategies import workload_strings


def reference_walk(workload, order, machine_of, avail0, nic0=None):
    """``(start, finish, makespan)`` of a string.

    ``nic0 is None`` walks the paper's contention-free network; otherwise
    each machine's outgoing link starts free at ``nic0`` and sends its
    cross-machine outputs in ascending item order after the producer
    finishes.
    """
    graph = workload.graph
    E = workload.exec_times
    Tr = workload.transfer_times
    items = sorted(graph.data_items, key=lambda d: d.index)
    inputs = {t: [d for d in items if d.consumer == t] for t in order}
    outputs = {t: [d for d in items if d.producer == t] for t in order}
    machine_free = list(avail0)
    nic_free = None if nic0 is None else list(nic0)
    arrival = {}
    start, finish = {}, {}
    for task in order:
        m = machine_of[task]
        ready = machine_free[m]
        for d in inputs[task]:
            src = machine_of[d.producer]
            if src == m:
                t_in = finish[d.producer]
            elif nic_free is None:
                t_in = finish[d.producer] + Tr.time(src, m, d.index)
            else:
                t_in = arrival[d.index]
            ready = max(ready, t_in)
        start[task] = ready
        finish[task] = ready + E.time(m, task)
        machine_free[m] = finish[task]
        if nic_free is not None:
            for d in outputs[task]:
                dst = machine_of[d.consumer]
                if dst != m:
                    sent = max(finish[task], nic_free[m])
                    nic_free[m] = sent + Tr.time(m, dst, d.index)
                    arrival[d.index] = nic_free[m]
    span = max([0.0, *finish.values()])
    k = len(order)
    return [start[t] for t in range(k)], [finish[t] for t in range(k)], span


_busy = st.lists(st.floats(0.0, 100.0), min_size=8, max_size=8)


def _simulators(w, avail, nic):
    """The plain and the nic simulator on each walker tier, with their
    reference arguments."""
    l = w.num_machines
    for tier in ("compiled", "python"):
        with walker(tier):
            plain = Simulator(w, initial_avail=avail[:l])
            contended = ContentionSimulator(
                w, initial_avail=avail[:l], initial_nic_free=nic[:l]
            )
        yield plain, None
        yield contended, nic[:l]


@given(workload_strings(max_machines=6), _busy, _busy)
@settings(max_examples=80)
def test_full_walks_match_reference(data, avail, nic):
    w, s = data
    order, machines = s.order, s.machines
    for sim, nic0 in _simulators(w, avail, nic):
        start, finish, span = reference_walk(
            w, order, machines, avail[: w.num_machines], nic0
        )
        assert sim.makespan(order, machines) == span
        sched = sim.evaluate(s)
        assert list(sched.start) == start
        assert list(sched.finish) == finish
        assert sched.makespan == span
        state = sim.prepare(order, machines)
        assert state.makespan == span
        assert state.finish == finish


@given(
    workload_strings(max_machines=6),
    _busy,
    _busy,
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.5, 1.0, 1.05, math.inf)),
)
@settings(max_examples=80)
def test_delta_probes_match_reference(data, avail, nic, move_seed, slack):
    """The allocator's relocate/score/revert cycle: every probe's delta
    equals the reference makespan of the probed string, or ``inf`` once
    that makespan reaches the cutoff."""
    w, s = data
    rng = np.random.default_rng(move_seed)
    for sim, nic0 in _simulators(w, avail, nic):
        state = sim.prepare(s.order, s.machines)
        cutoff = state.makespan * slack
        for _ in range(6):
            task = int(rng.integers(s.num_tasks))
            old_pos, old_machine = s.position_of(task), s.machine_of(task)
            lo, hi = valid_insertion_range(s, w.graph, task)
            idx = int(rng.integers(lo, hi + 1))
            s.relocate(task, idx, int(rng.integers(s.num_machines)))
            want = reference_walk(
                w, s.order, s.machines, avail[: w.num_machines], nic0
            )[2]
            first, last = min(old_pos, idx), max(old_pos, idx)
            got = sim.evaluate_delta(
                s.order, s.machines, first, state, cutoff=cutoff,
                region_end=last,
            )
            assert got == (want if want < cutoff else math.inf)
            assert sim.evaluate_delta(s.order, s.machines, first, state) == want
            s.relocate(task, old_pos, old_machine)
