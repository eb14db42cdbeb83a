"""Unit tests for valid-range computation and slot enumeration."""

import pytest

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString
from repro.schedule.valid_range import (
    machine_slot_indices,
    valid_insertion_range,
)


@pytest.fixture
def chain():
    return TaskGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def diamond():
    return TaskGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestValidInsertionRange:
    def test_chain_every_task_pinned(self, chain):
        s = ScheduleString([0, 1, 2, 3], [0] * 4, 1)
        for t in range(4):
            lo, hi = valid_insertion_range(s, chain, t)
            assert (lo, hi) == (t, t)

    def test_diamond_middle_tasks_can_swap(self, diamond):
        s = ScheduleString([0, 1, 2, 3], [0] * 4, 1)
        assert valid_insertion_range(s, diamond, 1) == (1, 2)
        assert valid_insertion_range(s, diamond, 2) == (1, 2)

    def test_no_predecessors_lo_zero(self, diamond):
        s = ScheduleString([0, 1, 2, 3], [0] * 4, 1)
        lo, _ = valid_insertion_range(s, diamond, 0)
        assert lo == 0

    def test_no_successors_hi_max(self):
        g = TaskGraph.from_edges(3, [(0, 1)])
        s = ScheduleString([0, 1, 2], [0] * 3, 1)
        _, hi = valid_insertion_range(s, g, 2)
        assert hi == 2

    def test_independent_task_full_range(self):
        g = TaskGraph.from_edges(3, [(0, 1)])
        s = ScheduleString([0, 2, 1], [0] * 3, 1)
        assert valid_insertion_range(s, g, 2) == (0, 2)

    def test_current_position_always_inside(self, diamond):
        s = ScheduleString([0, 2, 1, 3], [0] * 4, 1)
        for t in range(4):
            lo, hi = valid_insertion_range(s, diamond, t)
            assert lo <= s.position_of(t) <= hi

    def test_brute_force_agreement(self, diamond):
        """The analytic window equals the brute-force valid-move set."""
        s = ScheduleString([0, 2, 1, 3], [0] * 4, 1)
        for t in range(4):
            lo, hi = valid_insertion_range(s, diamond, t)
            for idx in range(4):
                probe = s.copy()
                probe.move(t, idx)
                valid = diamond.is_valid_order(probe.order)
                assert valid == (lo <= idx <= hi), (t, idx)


class TestMachineSlotIndices:
    def test_slots_within_valid_range(self, diamond):
        s = ScheduleString([0, 1, 2, 3], [0, 0, 1, 0], 2)
        for t in range(4):
            lo, hi = valid_insertion_range(s, diamond, t)
            for m in range(2):
                for idx in machine_slot_indices(s, diamond, t, m):
                    assert lo <= idx <= hi

    def test_single_slot_when_no_same_machine_neighbours(self, diamond):
        # task 1 moves within [1, 2]; machine 1 has no tasks in the window
        s = ScheduleString([0, 1, 2, 3], [0, 0, 0, 0], 2)
        assert machine_slot_indices(s, diamond, 1, 1) == [1]

    def test_extra_slot_per_same_machine_task(self, diamond):
        # window of task 1 is [1, 2]; task 2 (the only other in-window
        # task) is on machine 0, so machine 0 offers two distinct slots
        s = ScheduleString([0, 2, 1, 3], [0, 0, 0, 0], 2)
        slots = machine_slot_indices(s, diamond, 1, 0)
        assert slots == [1, 2]

    def test_slots_reach_all_distinct_schedules(self):
        """Slot representatives reach the same set of per-machine orders
        as enumerating every valid position (the ABL-SLOT equivalence)."""
        g = TaskGraph.from_edges(5, [(0, 4)])
        s = ScheduleString([0, 1, 2, 3, 4], [0, 1, 0, 1, 0], 2)
        task = 2
        lo, hi = valid_insertion_range(s, g, task)
        for machine in range(2):
            all_orders = set()
            for idx in range(lo, hi + 1):
                probe = s.copy()
                probe.relocate(task, idx, machine)
                all_orders.add(
                    tuple(tuple(probe.machine_sequence(m)) for m in range(2))
                )
            slot_orders = set()
            for idx in machine_slot_indices(s, g, task, machine):
                probe = s.copy()
                probe.relocate(task, idx, machine)
                slot_orders.add(
                    tuple(tuple(probe.machine_sequence(m)) for m in range(2))
                )
            assert slot_orders == all_orders
