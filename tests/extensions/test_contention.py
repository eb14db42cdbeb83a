"""Unit and property tests for the link-contention simulator extension."""

import numpy as np
import pytest
from hypothesis import given

from repro.extensions.contention import (
    ContentionSimulator,
    contention_penalty,
)
from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.schedule import InvalidScheduleError, ScheduleString, Simulator
from tests.strategies import workload_strings


def fan_out_workload(comm: float) -> Workload:
    """Hub s0 feeding s1..s3, each branch on its own machine."""
    graph = TaskGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    e = ExecutionTimeMatrix(np.full((4, 4), 10.0))
    tr = TransferTimeMatrix(np.full((6, 3), comm), 4)
    return Workload(graph, e, tr)


class TestAgainstContentionFree:
    def test_zero_comm_identical(self):
        w = fan_out_workload(0.0)
        s = ScheduleString([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert ContentionSimulator(w).string_makespan(s) == pytest.approx(
            Simulator(w).string_makespan(s)
        )

    def test_single_transfer_identical(self):
        """One cross-machine edge: nothing to contend on."""
        graph = TaskGraph.from_edges(2, [(0, 1)])
        e = ExecutionTimeMatrix([[5.0, 5.0], [5.0, 5.0]])
        tr = TransferTimeMatrix([[7.0]], 2)
        w = Workload(graph, e, tr)
        s = ScheduleString([0, 1], [0, 1], 2)
        assert ContentionSimulator(w).string_makespan(s) == pytest.approx(
            Simulator(w).string_makespan(s)
        )

    def test_fanout_serializes_on_nic(self):
        """Three simultaneous sends from the hub must queue: arrivals at
        10+5, 10+10, 10+15 instead of all at 10+5."""
        w = fan_out_workload(5.0)
        s = ScheduleString([0, 1, 2, 3], [0, 1, 2, 3], 4)
        res = ContentionSimulator(w).evaluate(s)
        arrivals = sorted(t.finish for t in res.transfers)
        assert arrivals == [15.0, 20.0, 25.0]
        # last branch starts at 25 and runs 10
        assert res.makespan == pytest.approx(35.0)
        # contention-free baseline: every branch starts at 15
        assert Simulator(w).string_makespan(s) == pytest.approx(25.0)

    def test_same_machine_items_free(self):
        w = fan_out_workload(5.0)
        s = ScheduleString([0, 1, 2, 3], [0, 0, 0, 0], 4)
        res = ContentionSimulator(w).evaluate(s)
        assert res.transfers == ()
        assert res.makespan == pytest.approx(40.0)  # serial on one machine


class TestContentionProperties:
    @given(workload_strings())
    def test_never_faster_than_contention_free(self, data):
        w, s = data
        free = Simulator(w).string_makespan(s)
        contended = ContentionSimulator(w).string_makespan(s)
        assert contended >= free - 1e-9

    @given(workload_strings())
    def test_schedule_structurally_sound(self, data):
        w, s = data
        res = ContentionSimulator(w).evaluate(s)
        sched = res.schedule
        assert sorted(sched.order) == list(range(w.num_tasks))
        assert sched.makespan == max(sched.finish)
        # durations still match E
        for t in range(w.num_tasks):
            m = sched.machine_of[t]
            assert sched.finish[t] - sched.start[t] == pytest.approx(
                w.exec_time(m, t)
            )

    @given(workload_strings())
    def test_nic_transfers_do_not_overlap(self, data):
        w, s = data
        res = ContentionSimulator(w).evaluate(s)
        per_nic: dict[int, list] = {}
        for t in res.transfers:
            per_nic.setdefault(t.src_machine, []).append(t)
        for transfers in per_nic.values():
            transfers.sort(key=lambda t: t.start)
            for a, b in zip(transfers, transfers[1:]):
                assert b.start >= a.finish - 1e-9


class TestAPI:
    def test_invalid_order_raises(self):
        w = fan_out_workload(1.0)
        s = ScheduleString([1, 0, 2, 3], [0, 1, 2, 3], 4)
        with pytest.raises(InvalidScheduleError):
            ContentionSimulator(w).evaluate(s)

    def test_makespan_entrypoints_agree(self):
        w = fan_out_workload(2.0)
        s = ScheduleString([0, 1, 2, 3], [0, 1, 2, 3], 4)
        sim = ContentionSimulator(w)
        assert sim.makespan(s.order, s.machines) == sim.string_makespan(s)

    def test_nic_busy_time(self):
        w = fan_out_workload(5.0)
        s = ScheduleString([0, 1, 2, 3], [0, 1, 2, 3], 4)
        res = ContentionSimulator(w).evaluate(s)
        assert res.nic_busy_time(0) == pytest.approx(15.0)
        assert res.nic_busy_time(1) == 0.0

    def test_contention_penalty(self):
        w = fan_out_workload(5.0)
        s = ScheduleString([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert contention_penalty(w, s) == pytest.approx(35.0 / 25.0 - 1.0)

    def test_penalty_zero_for_local_schedule(self):
        w = fan_out_workload(5.0)
        s = ScheduleString([0, 1, 2, 3], [0, 0, 0, 0], 4)
        assert contention_penalty(w, s) == pytest.approx(0.0)
