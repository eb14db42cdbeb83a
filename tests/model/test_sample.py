"""Tests pinning the paper's Figure-1/Figure-2 sample instance."""

import pytest

from repro.core.goodness import optimal_finish_times
from repro.model import (
    FIGURE2_PAIRS,
    PAPER_O4,
    paper_sample_graph,
    paper_sample_workload,
)
from repro.schedule import ScheduleString, Simulator, is_valid_for, verify_schedule


class TestSampleStructure:
    def test_seven_subtasks_six_items(self):
        g = paper_sample_graph()
        assert g.num_tasks == 7
        assert g.num_data_items == 6

    def test_two_machines(self):
        assert paper_sample_workload().num_machines == 2

    def test_s4_has_predecessors_s0_s1(self):
        """§4.3: the O4 example assigns s0 and s1 (s4's predecessors)."""
        g = paper_sample_graph()
        assert g.predecessors(4) == (0, 1)

    def test_levels(self):
        g = paper_sample_graph()
        assert g.level(0) == 0
        assert g.level(1) == 0
        assert g.level(4) == 1
        assert g.level(5) == 2

    def test_workload_dimensions_consistent(self):
        w = paper_sample_workload()
        assert w.exec_times.values.shape == (2, 7)
        assert w.transfer_times.values.shape == (1, 6)


class TestFigure2String:
    def test_is_valid(self):
        w = paper_sample_workload()
        s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
        assert is_valid_for(s, w.graph)

    def test_machine_sequences_match_paper(self):
        """§4.1: m0 runs s0, s3, s4 and m1 runs s1, s2, s5, s6."""
        s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
        assert s.machine_sequence(0) == [0, 3, 4]
        assert s.machine_sequence(1) == [1, 2, 5, 6]

    def test_schedule_verifies(self):
        w = paper_sample_workload()
        s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
        verify_schedule(w, Simulator(w).evaluate(s))


class TestO4Anchor:
    def test_o4_equals_paper_value(self):
        """The substitute matrices are engineered so O4 = 1835 (§4.3)."""
        w = paper_sample_workload()
        o = optimal_finish_times(w)
        assert o[4] == pytest.approx(PAPER_O4)

    def test_o4_bound_by_s1_chain(self):
        """The binding predecessor chain goes through s1 as in the paper
        ("including communication time between s1 and s4")."""
        w = paper_sample_workload()
        o = optimal_finish_times(w)
        e = w.exec_times
        # chain through s1: O1 + Tr(d3) + best exec of s4
        via_s1 = o[1] + w.comm_time(0, 1, 3) + e.best_time(4)
        assert o[4] == pytest.approx(via_s1)
