"""Unit tests for the schedule simulator (the cost model)."""

import numpy as np
import pytest

from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import InvalidScheduleError, Simulator


def make_workload(edges, e_rows, tr_rows, k=None, l=None):
    k = k if k is not None else len(e_rows[0])
    l = l if l is not None else len(e_rows)
    graph = TaskGraph.from_edges(k, edges)
    e = ExecutionTimeMatrix(e_rows)
    tr = TransferTimeMatrix(tr_rows, l)
    return Workload(graph, e, tr)


class TestHandComputedSchedules:
    def test_two_independent_tasks_two_machines(self):
        w = make_workload([], [[3.0, 4.0], [5.0, 2.0]], np.zeros((1, 0)))
        s = ScheduleString([0, 1], [0, 1], 2)
        sched = Simulator(w).evaluate(s)
        assert sched.start == (0.0, 0.0)
        assert sched.finish == (3.0, 2.0)
        assert sched.makespan == 3.0

    def test_two_tasks_same_machine_serialize(self):
        w = make_workload([], [[3.0, 4.0], [5.0, 2.0]], np.zeros((1, 0)))
        s = ScheduleString([1, 0], [0, 0], 2)
        sched = Simulator(w).evaluate(s)
        assert sched.start[1] == 0.0
        assert sched.finish[1] == 4.0
        assert sched.start[0] == 4.0
        assert sched.makespan == 7.0

    def test_cross_machine_communication_charged(self):
        # s0 -> s1 with transfer 10; machines differ
        w = make_workload([(0, 1)], [[5.0, 5.0], [5.0, 5.0]], [[10.0]])
        s = ScheduleString([0, 1], [0, 1], 2)
        sched = Simulator(w).evaluate(s)
        assert sched.start[1] == pytest.approx(15.0)  # 5 finish + 10 comm
        assert sched.makespan == pytest.approx(20.0)

    def test_same_machine_communication_free(self):
        w = make_workload([(0, 1)], [[5.0, 5.0], [5.0, 5.0]], [[10.0]])
        s = ScheduleString([0, 1], [0, 0], 2)
        sched = Simulator(w).evaluate(s)
        assert sched.start[1] == pytest.approx(5.0)
        assert sched.makespan == pytest.approx(10.0)

    def test_machine_busy_dominates_data_ready(self):
        # s0 -> s2 cross machine; s1 occupies s2's machine until t=20
        w = make_workload(
            [(0, 2)],
            [[5.0, 20.0, 1.0], [5.0, 20.0, 1.0]],
            [[2.0]],
        )
        s = ScheduleString([0, 1, 2], [0, 1, 1], 2)
        sched = Simulator(w).evaluate(s)
        # data ready at 5+2=7, machine 1 free at 20 -> start 20
        assert sched.start[2] == pytest.approx(20.0)

    def test_diamond_join_waits_for_slowest_input(self, diamond_workload):
        s = ScheduleString([0, 1, 2, 3], [0, 0, 0, 0], 2)
        sched = Simulator(diamond_workload).evaluate(s)
        # all on m0: s0=10, s1 at 30, s2 at 60, s3 starts at 60
        assert sched.finish[0] == 10.0
        assert sched.finish[1] == 30.0
        assert sched.finish[2] == 60.0
        assert sched.start[3] == 60.0
        assert sched.makespan == 70.0

    def test_diamond_split_across_machines(self, diamond_workload):
        s = ScheduleString([0, 1, 2, 3], [0, 1, 0, 0], 2)
        sched = Simulator(diamond_workload).evaluate(s)
        # s1 on m1: data ready 10+5=15, runs 10 -> 25; arrival on m0: 25+5=30
        # s2 on m0: starts 10, runs 30 -> 40
        # s3 on m0: max(40 machine, max(30, 45)) -> hmm s2 finish 40, arrival 40
        assert sched.finish[1] == 25.0
        assert sched.finish[2] == 40.0
        assert sched.start[3] == 40.0
        assert sched.makespan == 50.0

    def test_single_machine_chain_sums(self, single_machine_workload):
        s = ScheduleString([0, 1, 2, 3, 4], [0] * 5, 1)
        sched = Simulator(single_machine_workload).evaluate(s)
        assert sched.makespan == pytest.approx(3 + 4 + 5 + 6 + 7)


class TestParallelDataItems:
    def test_both_items_charged(self):
        # two data items on the same edge with different costs
        graph = TaskGraph.from_edges(2, [(0, 1), (0, 1)])
        e = ExecutionTimeMatrix([[1.0, 1.0], [1.0, 1.0]])
        tr = TransferTimeMatrix([[3.0, 8.0]], 2)
        w = Workload(graph, e, tr)
        s = ScheduleString([0, 1], [0, 1], 2)
        sched = Simulator(w).evaluate(s)
        # slower item dominates: 1 + 8 = 9
        assert sched.start[1] == pytest.approx(9.0)


class TestInvalidOrders:
    def test_consumer_before_producer_raises(self):
        w = make_workload([(0, 1)], [[1.0, 1.0]], np.zeros((0, 1)), l=1)
        s = ScheduleString([1, 0], [0, 0], 1)
        with pytest.raises(InvalidScheduleError, match="before its producer"):
            Simulator(w).evaluate(s)

    def test_makespan_raises_too(self):
        w = make_workload([(0, 1)], [[1.0, 1.0]], np.zeros((0, 1)), l=1)
        with pytest.raises(InvalidScheduleError):
            Simulator(w).makespan([1, 0], [0, 0])


class TestAPIs:
    def test_makespan_matches_evaluate(self, sample_workload):
        from repro.model import FIGURE2_PAIRS

        s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
        sim = Simulator(sample_workload)
        assert sim.makespan(s.order, s.machines) == sim.evaluate(s).makespan
        assert sim.string_makespan(s) == sim.evaluate(s).makespan

    def test_finish_times_list(self, sample_workload):
        from repro.model import FIGURE2_PAIRS

        s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
        sim = Simulator(sample_workload)
        fts = sim.finish_times(s)
        assert len(fts) == 7
        assert max(fts) == sim.evaluate(s).makespan

    def test_schedule_machine_sequence(self, diamond_workload):
        s = ScheduleString([0, 1, 2, 3], [0, 1, 0, 1], 2)
        sched = Simulator(diamond_workload).evaluate(s)
        assert sched.machine_sequence(0) == [0, 2]
        assert sched.machine_sequence(1) == [1, 3]

    def test_simulator_reusable_across_strings(self, diamond_workload):
        sim = Simulator(diamond_workload)
        a = ScheduleString([0, 1, 2, 3], [0, 0, 0, 0], 2)
        b = ScheduleString([0, 2, 1, 3], [0, 1, 1, 0], 2)
        ma = sim.string_makespan(a)
        mb = sim.string_makespan(b)
        assert sim.string_makespan(a) == ma  # no cross-call state leakage
        assert sim.string_makespan(b) == mb
