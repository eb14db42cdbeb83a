"""Unit tests for the goodness measure g = O/C (paper §4.3)."""

import numpy as np
import pytest

from repro.core.goodness import (
    GoodnessEvaluator,
    goodness_values,
    optimal_finish_times,
)
from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.schedule import Simulator
from repro.schedule.operations import random_valid_string
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import walker


class TestOptimalFinishTimes:
    def test_entry_task_is_best_time(self, sample_workload):
        o = optimal_finish_times(sample_workload)
        e = sample_workload.exec_times
        assert o[0] == pytest.approx(e.best_time(0))
        assert o[1] == pytest.approx(e.best_time(1))

    def test_recursion_over_chain(self):
        # s0 -> s1, both fastest on m0 => no comm in the optimistic chain
        graph = TaskGraph.from_edges(2, [(0, 1)])
        e = ExecutionTimeMatrix([[2.0, 3.0], [9.0, 9.0]])
        tr = TransferTimeMatrix([[100.0]], 2)
        w = Workload(graph, e, tr)
        o = optimal_finish_times(w)
        assert o[1] == pytest.approx(5.0)

    def test_comm_charged_when_best_machines_differ(self):
        graph = TaskGraph.from_edges(2, [(0, 1)])
        e = ExecutionTimeMatrix([[2.0, 9.0], [9.0, 3.0]])
        tr = TransferTimeMatrix([[4.0]], 2)
        w = Workload(graph, e, tr)
        o = optimal_finish_times(w)
        assert o[1] == pytest.approx(2.0 + 4.0 + 3.0)

    def test_join_takes_slowest_input(self):
        graph = TaskGraph.from_edges(3, [(0, 2), (1, 2)])
        e = ExecutionTimeMatrix([[1.0, 10.0, 2.0]])
        tr = TransferTimeMatrix(np.zeros((0, 2)), 1)
        w = Workload(graph, e, tr)
        o = optimal_finish_times(w)
        assert o[2] == pytest.approx(12.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_recursion_through_comm_time(self, seed):
        """Bit-identical to F evaluated item by item with ``comm_time``."""
        w = build_workload(WorkloadSpec(num_tasks=60, num_machines=6, seed=seed))
        e = w.exec_times
        want = np.zeros(w.num_tasks)
        for t in w.graph.topological_order():
            ready = 0.0
            for d in w.graph.data_items:
                if d.consumer == t:
                    ready = max(ready, want[d.producer] + w.comm_time(
                        e.best_machine(d.producer), e.best_machine(t), d.index
                    ))
            want[t] = ready + e.best_time(t)
        assert np.array_equal(optimal_finish_times(w), want)

    def test_all_positive(self, tiny_workload):
        assert np.all(optimal_finish_times(tiny_workload) > 0)

    def test_stable_across_calls(self, tiny_workload):
        """Oi must not change from one generation to the next (§3)."""
        a = optimal_finish_times(tiny_workload)
        b = optimal_finish_times(tiny_workload)
        assert np.array_equal(a, b)


class TestGoodnessValues:
    def test_range_clamped_to_unit_interval(self, tiny_workload):
        o = optimal_finish_times(tiny_workload)
        sim = Simulator(tiny_workload)
        for seed in range(10):
            s = random_valid_string(
                tiny_workload.graph, tiny_workload.num_machines, seed
            )
            g = goodness_values(o, sim.finish_times(s))
            assert np.all(g >= 0.0)
            assert np.all(g <= 1.0)

    def test_perfect_placement_goodness_one(self):
        # single machine, single task: C == O exactly
        graph = TaskGraph.from_edges(1, [])
        e = ExecutionTimeMatrix([[5.0]])
        tr = TransferTimeMatrix(np.zeros((0, 0)), 1)
        w = Workload(graph, e, tr)
        o = optimal_finish_times(w)
        g = goodness_values(o, [5.0])
        assert g[0] == pytest.approx(1.0)

    def test_bad_placement_low_goodness(self):
        graph = TaskGraph.from_edges(1, [])
        e = ExecutionTimeMatrix([[5.0], [50.0]])
        tr = TransferTimeMatrix(np.zeros((1, 0)), 2)
        w = Workload(graph, e, tr)
        o = optimal_finish_times(w)
        g = goodness_values(o, [50.0])  # task placed on the slow machine
        assert g[0] == pytest.approx(0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            goodness_values(np.ones(3), [1.0, 2.0])

    def test_nonpositive_finish_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            goodness_values(np.ones(1), [0.0])


@pytest.fixture(params=["compiled", "python"])
def sim(request, tiny_workload):
    """The evaluator's backend on each walker tier."""
    with walker(request.param):
        return Simulator(tiny_workload)


class TestGoodnessEvaluator:
    def test_caches_optimal(self, tiny_workload, sim):
        ev = GoodnessEvaluator(sim)
        assert np.array_equal(
            ev.optimal, optimal_finish_times(tiny_workload)
        )

    def test_optimal_read_only(self, sim):
        ev = GoodnessEvaluator(sim)
        with pytest.raises(ValueError):
            ev.optimal[0] = 99.0

    def test_goodness_delegates(self, tiny_workload, sim):
        ev = GoodnessEvaluator(sim)
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 3)
        fts = sim.finish_times(s)
        assert np.array_equal(
            ev.goodness(fts), goodness_values(ev.optimal, fts)
        )
