"""The pairwise-move neighborhood: validity, inverses, delta anchors."""

import numpy as np
import pytest

from repro.schedule.neighborhood import (
    REASSIGN,
    REORDER,
    Move,
    applied_copy,
    apply_move,
    changed_region,
    inverse_move,
    random_move,
)
from repro.schedule import Simulator, is_valid_for
from repro.schedule.operations import random_valid_string


@pytest.fixture
def string(tiny_workload):
    return random_valid_string(
        tiny_workload.graph, tiny_workload.num_machines, 11
    )


class TestRandomMove:
    def test_moves_preserve_validity(self, tiny_workload, string):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mv = random_move(string, tiny_workload.graph, rng)
            apply_move(string, mv)
            assert is_valid_for(string, tiny_workload.graph)

    def test_reassign_prob_extremes(self, tiny_workload, string):
        rng = np.random.default_rng(0)
        kinds = {
            random_move(string, tiny_workload.graph, rng, 1.0).kind
            for _ in range(20)
        }
        assert kinds == {REASSIGN}
        kinds = {
            random_move(string, tiny_workload.graph, rng, 0.0).kind
            for _ in range(20)
        }
        assert kinds == {REORDER}


class TestInverse:
    def test_inverse_restores_string(self, tiny_workload, string):
        rng = np.random.default_rng(3)
        for _ in range(100):
            before = string.pairs()
            mv = random_move(string, tiny_workload.graph, rng)
            undo = inverse_move(string, mv)
            apply_move(string, mv)
            apply_move(string, undo)
            assert string.pairs() == before


class TestFirstChanged:
    def test_delta_from_first_changed_matches_full(
        self, tiny_workload, string
    ):
        """changed_region's first position is a sound evaluate_delta
        anchor."""
        sim = Simulator(tiny_workload)
        rng = np.random.default_rng(7)
        state = sim.prepare(string.order, string.machines)
        for _ in range(100):
            mv = random_move(string, tiny_workload.graph, rng)
            first, _last = changed_region(string, mv)
            probe = applied_copy(string, mv)
            got = sim.evaluate_delta(
                probe.order, probe.machines, first, state
            )
            assert got == sim.string_makespan(probe)

    def test_reassign_anchor_is_task_position(self, string):
        task = string.task_at(2)
        mv = Move(REASSIGN, task, 0)
        assert changed_region(string, mv) == (2, 2)

    def test_reorder_anchor_is_leftmost_end(self, string):
        task = string.task_at(3)
        assert changed_region(string, Move(REORDER, task, 1)) == (1, 3)
        assert changed_region(string, Move(REORDER, task, 5)) == (3, 5)


class TestAppliedCopy:
    def test_original_untouched(self, tiny_workload, string):
        before = string.pairs()
        rng = np.random.default_rng(5)
        mv = random_move(string, tiny_workload.graph, rng)
        applied_copy(string, mv)
        assert string.pairs() == before

    def test_unknown_kind_rejected(self, string):
        bad = Move("swap", 0, 0)
        with pytest.raises(ValueError, match="unknown move kind"):
            apply_move(string, bad)
        with pytest.raises(ValueError, match="unknown move kind"):
            inverse_move(string, bad)
        with pytest.raises(ValueError, match="unknown move kind"):
            changed_region(string, bad)


class TestAvoidNoop:
    def test_never_yields_identity(self, tiny_workload, string):
        rng = np.random.default_rng(1)
        for _ in range(300):
            mv = random_move(
                string, tiny_workload.graph, rng, avoid_noop=True
            )
            assert applied_copy(string, mv) != string
            assert is_valid_for(
                applied_copy(string, mv), tiny_workload.graph
            )

    def test_reassign_avoids_current_machine(self, tiny_workload, string):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mv = random_move(
                string, tiny_workload.graph, rng, 1.0, avoid_noop=True
            )
            assert mv.kind == REASSIGN
            assert mv.target != string.machine_of(mv.task)

    def test_single_machine_falls_back_to_reorder(self):
        """With l=1 every reassign is a no-op; the draw must switch to a
        (non-identity) reorder whenever one exists."""
        from repro.model import TaskGraph

        graph = TaskGraph.from_edges(3, [])  # independent tasks
        s = random_valid_string(graph, 1, 0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            mv = random_move(s, graph, rng, 1.0, avoid_noop=True)
            assert mv.kind == REORDER
            assert applied_copy(s, mv) != s
