"""Unit tests for SE initial-solution generation (paper §4.2)."""

import numpy as np
import pytest

from repro.core.initial import initial_solution
from repro.schedule import Simulator
from repro.schedule.encoding import is_valid_for
from tests.routes import walker


@pytest.fixture(params=["compiled", "python"])
def sim(request, tiny_workload):
    """The shuffle's backend on each walker tier."""
    with walker(request.param):
        return Simulator(tiny_workload)


class TestInitialSolution:
    def test_valid_for_graph(self, tiny_workload, sim, rng):
        for _ in range(20):
            s = initial_solution(sim, rng)
            assert is_valid_for(s, tiny_workload.graph)

    def test_machines_in_range(self, tiny_workload, sim, rng):
        s = initial_solution(sim, rng)
        assert all(0 <= m < tiny_workload.num_machines for m in s.machines)

    def test_zero_shuffle_is_topological(self, tiny_workload, sim, rng):
        s = initial_solution(sim, rng, shuffle_range=(0.0, 0.0))
        assert tuple(s.order) == tiny_workload.graph.topological_order()

    def test_shuffling_changes_order(self, tiny_workload, sim):
        rng = np.random.default_rng(5)
        s = initial_solution(sim, rng, shuffle_range=(2.0, 4.0))
        # with 40-80 random moves over 20 tasks a change is certain in
        # practice for this seed
        assert tuple(s.order) != tiny_workload.graph.topological_order()

    def test_deterministic_per_rng_state(self, sim):
        a = initial_solution(sim, np.random.default_rng(9))
        b = initial_solution(sim, np.random.default_rng(9))
        assert a == b

    def test_machine_assignment_randomised(self, sim):
        rng = np.random.default_rng(2)
        s = initial_solution(sim, rng)
        assert len(set(s.machines)) > 1  # not everything on one machine

    def test_bad_shuffle_range_rejected(self, sim, rng):
        with pytest.raises(ValueError, match="shuffle_range"):
            initial_solution(sim, rng, shuffle_range=(3.0, 1.0))
