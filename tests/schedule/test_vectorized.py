"""Unit tests of the contention-free batch kernel.

Covers the edge cases the property tests are unlikely to pin exactly:
empty batches, single-task graphs, duplicate-cost ties, zero-cost
transfers, validation errors, and the kernel plumbing behind the
evaluation service's batch route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import (
    ExecutionTimeMatrix,
    HCSystem,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.optim.evaluation import EvaluationService
from repro.schedule import (
    BatchSimulator,
    InvalidScheduleError,
    Simulator,
    make_simulator,
    random_valid_string,
)


def diamond_workload(transfer: float = 4.0, num_machines: int = 3):
    """0 -> {1, 2} -> 3 with uniform costs (easy to reason about)."""
    graph = TaskGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    e = ExecutionTimeMatrix(
        np.full((num_machines, 4), 2.0)
        + np.arange(num_machines)[:, None]
    )
    tr = TransferTimeMatrix.uniform(num_machines, 4, transfer)
    return Workload(graph, HCSystem.of_size(num_machines), e, tr)


def single_task_workload():
    graph = TaskGraph.from_edges(1, [])
    e = ExecutionTimeMatrix([[3.0], [5.0]])
    tr = TransferTimeMatrix.zeros(2, 0)
    return Workload(graph, HCSystem.of_size(2), e, tr)


class TestBatchSimulatorEdges:
    def test_empty_batch(self):
        kern = BatchSimulator(diamond_workload())
        out = kern.makespans([], [])
        assert out.shape == (0,)
        assert kern.string_makespans([]).shape == (0,)

    def test_single_task_graph(self):
        w = single_task_workload()
        kern = BatchSimulator(w)
        out = kern.makespans([[0], [0]], [[0], [1]])
        assert out.tolist() == [3.0, 5.0]

    def test_single_machine(self):
        w = diamond_workload(num_machines=1)
        kern = BatchSimulator(w)
        sim = Simulator(w)
        s = random_valid_string(w.graph, 1, 5)
        assert kern.string_makespans([s]).tolist() == [
            sim.string_makespan(s)
        ]

    def test_zero_cost_transfers_match_scalar(self):
        w = diamond_workload(transfer=0.0)
        kern = BatchSimulator(w)
        sim = Simulator(w)
        strings = [random_valid_string(w.graph, 3, s) for s in range(20)]
        got = kern.string_makespans(strings)
        assert got.tolist() == [sim.string_makespan(s) for s in strings]

    def test_duplicate_cost_ties_are_bitwise_equal(self):
        """Identical-by-construction costs compare equal across rows, so
        any first-minimum scan picks the same index as a scalar scan."""
        w = diamond_workload()
        kern = BatchSimulator(w)
        s = random_valid_string(w.graph, 3, 1)
        out = kern.string_makespans([s, s, s])
        assert out[0] == out[1] == out[2]
        assert int(np.argmin(out)) == 0  # first occurrence wins

    def test_accepts_arrays_and_lists(self):
        w = diamond_workload()
        kern = BatchSimulator(w)
        s = random_valid_string(w.graph, 3, 2)
        from_lists = kern.makespans([s.order], [s.machines])
        from_arrays = kern.makespans(
            np.array([s.order]), np.array([s.machines])
        )
        assert from_lists.tolist() == from_arrays.tolist()


class TestBatchValidation:
    def test_rejects_non_permutation(self):
        kern = BatchSimulator(diamond_workload())
        with pytest.raises(InvalidScheduleError, match="permutation"):
            kern.makespans([[0, 1, 1, 3]], [[0, 0, 0, 0]])

    def test_rejects_precedence_violation(self):
        kern = BatchSimulator(diamond_workload())
        with pytest.raises(InvalidScheduleError, match="producer"):
            kern.makespans([[1, 0, 2, 3]], [[0, 0, 0, 0]])

    def test_rejects_machine_out_of_range(self):
        kern = BatchSimulator(diamond_workload())
        with pytest.raises(ValueError, match="machine ids"):
            kern.makespans([[0, 1, 2, 3]], [[0, 0, 0, 3]])

    def test_rejects_shape_mismatch(self):
        kern = BatchSimulator(diamond_workload())
        with pytest.raises(ValueError, match="shape"):
            kern.makespans([[0, 1, 2]], [[0, 0, 0, 0]])
        with pytest.raises(ValueError, match="rows"):
            kern.makespans(
                [[0, 1, 2, 3]], [[0, 0, 0, 0], [0, 0, 0, 0]]
            )

    def test_validate_false_skips_checks(self):
        kern = BatchSimulator(diamond_workload())
        # invalid order scores garbage instead of raising — caller's
        # explicit responsibility, exercised by the SE allocator which
        # only builds provably valid relocations
        out = kern.makespans([[1, 0, 2, 3]], [[0, 0, 0, 0]], validate=False)
        assert out.shape == (1,)


class TestKernelPlumbing:
    def test_make_simulator_plain_is_unwrapped(self):
        w = diamond_workload()
        assert isinstance(make_simulator(w), Simulator)

    def test_kernel_tier_is_read_only(self):
        svc = EvaluationService(diamond_workload())
        with pytest.raises(AttributeError):
            svc.kernel_tier = "jit"

    def test_batch_makespans_matches_scalar(self):
        w = diamond_workload()
        svc = EvaluationService(w)
        strings = [random_valid_string(w.graph, 3, s) for s in range(7)]
        got = svc.batch_string_makespans(strings)
        assert got == [svc.string_makespan(x) for x in strings]

    def test_kernel_properties(self):
        w = diamond_workload()
        kern = BatchSimulator(w)
        assert kern.workload is w
        assert kern.num_tasks == 4
        assert kern.num_machines == 3

    def test_varying_batch_sizes_match_scalar(self):
        w = diamond_workload()
        kern = BatchSimulator(w)
        sim = Simulator(w)
        for n in (5, 1, 3, 5):
            strings = [
                random_valid_string(w.graph, 3, 100 + n * 10 + i)
                for i in range(n)
            ]
            got = kern.string_makespans(strings)
            assert got.tolist() == [
                sim.string_makespan(x) for x in strings
            ]


class TestConfigValidation:
    def test_se_probe_evaluation_validated(self):
        # SE scores every probe by delta; it has no route field
        from repro.core import SEConfig

        with pytest.raises(TypeError, match="probe_evaluation"):
            SEConfig(probe_evaluation="batch")

    def test_ga_batch_fitness_default_on(self):
        # the GA always batch-scores; the service, not a config field,
        # picks how a batch runs
        from repro.baselines import GAConfig

        for knob in ("batch_fitness", "incremental_evaluation"):
            with pytest.raises(TypeError, match=knob):
                GAConfig(**{knob: False})

    def test_random_search_batch_size_validated(self):
        from repro.baselines.random_search import random_search

        w = diamond_workload()
        with pytest.raises(ValueError, match="batch_size"):
            random_search(w, samples=2, seed=1, batch_size=0)
