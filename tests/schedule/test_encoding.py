"""Unit tests for the combined matching+scheduling string."""

import copy

import pytest

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString, is_valid_for


@pytest.fixture
def string() -> ScheduleString:
    # order s2, s0, s1 on machines 1, 0, 1
    return ScheduleString([2, 0, 1], [0, 1, 1], num_machines=2)


class TestConstruction:
    def test_basic(self, string):
        assert string.num_tasks == 3
        assert string.num_machines == 2

    def test_pairs_reflect_order(self, string):
        assert string.pairs() == ((2, 1), (0, 0), (1, 1))

    def test_from_pairs_roundtrip(self, string):
        rebuilt = ScheduleString.from_pairs(string.pairs(), 2)
        assert rebuilt == string

    def test_from_pairs_bad_task_id(self):
        with pytest.raises(ValueError, match="out of range"):
            ScheduleString.from_pairs([(0, 0), (5, 1)], 2)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            ScheduleString([0, 0, 1], [0, 0, 0], 1)

    def test_machine_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ScheduleString([0, 1], [0, 5], 2)

    def test_machine_len_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ScheduleString([0, 1], [0], 2)

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            ScheduleString([0], [0], 0)

    @pytest.mark.parametrize(
        "order, machines, l, message",
        [
            ([0, 0, 1], [0, 0, 0], 1, "order must be a permutation of "
             "0..k-1; got a sequence of length 3 that is not"),
            ([0, 2], [0, 0], 1, "order must be a permutation of 0..k-1; "
             "got a sequence of length 2 that is not"),
            ([1, -1, 0], [0, 0, 0], 1, "order must be a permutation of "
             "0..k-1; got a sequence of length 3 that is not"),
            ([0, 1], [0], 2, "machine_of has length 1, expected k=2"),
            ([0, 1], [0, 0, 0], 2, "machine_of has length 3, expected k=2"),
            ([0], [0], 0, "num_machines must be > 0, got 0"),
            ([0], [0], -2, "num_machines must be > 0, got -2"),
            ([0, 1, 2], [1, 5, 7], 2, "machine 5 of subtask 1 out of "
             "range [0, 2)"),
            ([0, 1, 2], [-1, 0, 0], 2, "machine -1 of subtask 0 out of "
             "range [0, 2)"),
            ([0, 1, 2], [0, 1, float("nan")], 2, "machine nan of subtask "
             "2 out of range [0, 2)"),
        ],
    )
    def test_each_check_names_the_fault(self, order, machines, l, message):
        """Every construction check, with its exact message; a bad
        machine is named by its first subtask, whatever the number of
        distinct ids."""
        with pytest.raises(ValueError) as err:
            ScheduleString(order, machines, l)
        assert str(err.value) == message

    def test_an_empty_string_is_valid(self):
        s = ScheduleString([], [], 3)
        assert s.num_tasks == 0 and s.positions == []


class TestAccessors:
    def test_position_of(self, string):
        assert string.position_of(2) == 0
        assert string.position_of(0) == 1
        assert string.position_of(1) == 2

    def test_task_at(self, string):
        assert [string.task_at(i) for i in range(3)] == [2, 0, 1]

    def test_machine_of(self, string):
        assert string.machine_of(0) == 0
        assert string.machine_of(1) == 1
        assert string.machine_of(2) == 1

    def test_machine_sequence(self, string):
        assert string.machine_sequence(1) == [2, 1]
        assert string.machine_sequence(0) == [0]

    def test_len_and_iter(self, string):
        assert len(string) == 3
        assert list(string) == list(string.pairs())


class TestCopy:
    def test_copy_is_independent(self, string):
        c = string.copy()
        c.move(2, 2)
        c.assign(0, 1)
        assert string.position_of(2) == 0
        assert string.machine_of(0) == 0

    def test_copy_equal(self, string):
        assert string.copy() == string

    def test_deepcopy_is_an_independent_copy(self, string):
        # a container holding the string twice gets one copy, twice
        pair = copy.deepcopy([string, string])
        assert pair[0] is pair[1] and pair[0] is not string
        assert pair[0] == string and pair[0].positions == string.positions
        pair[0].move(2, 2)
        assert string.position_of(2) == 0


class TestMutation:
    def test_assign(self, string):
        string.assign(2, 1)
        assert string.machine_of(2) == 1

    def test_assign_out_of_range(self, string):
        with pytest.raises(ValueError, match="out of range"):
            string.assign(0, 9)

    def test_move_forward(self, string):
        string.move(2, 2)  # move s2 from front to end
        assert string.order == [0, 1, 2]
        assert string.position_of(2) == 2

    def test_move_backward(self, string):
        string.move(1, 0)
        assert string.order == [1, 2, 0]

    def test_move_noop(self, string):
        string.move(0, 1)
        assert string.order == [2, 0, 1]

    def test_move_updates_positions(self, string):
        string.move(2, 1)
        for pos, t in enumerate(string.order):
            assert string.position_of(t) == pos

    def test_move_out_of_range(self, string):
        with pytest.raises(IndexError):
            string.move(0, 3)

    def test_relocate_combined(self, string):
        string.relocate(2, 2, 1)
        assert string.order == [0, 1, 2]
        assert string.machine_of(2) == 1

    def test_move_then_back_restores(self, string):
        before = string.pairs()
        string.move(2, 2)
        string.move(2, 0)
        assert string.pairs() == before


class TestValidity:
    def test_is_valid_for(self):
        graph = TaskGraph.from_edges(3, [(0, 1), (1, 2)])
        good = ScheduleString([0, 1, 2], [0, 0, 0], 1)
        bad = ScheduleString([1, 0, 2], [0, 0, 0], 1)
        assert is_valid_for(good, graph)
        assert not is_valid_for(bad, graph)

    def test_is_valid_for_size_mismatch(self):
        graph = TaskGraph.from_edges(3, [])
        s = ScheduleString([0, 1], [0, 0], 1)
        assert not is_valid_for(s, graph)
