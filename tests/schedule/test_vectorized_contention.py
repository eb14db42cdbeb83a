"""Unit tests of the NIC-contention batch kernel.

Covers the edge cases the property tests are unlikely to pin exactly:
empty batches, single-task graphs, duplicate-cost ties against the
scalar event order, zero-cost and same-machine transfers, validation
errors, the shared :class:`WorkloadPack` plumbing, and the
``evaluations`` accounting the engines rely on when they inherit the
kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.extensions.contention import ContentionSimulator
from repro.model import (
    ExecutionTimeMatrix,
    HCSystem,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.optim import EvaluationService
from repro.schedule import (
    BatchSimulator,
    InvalidScheduleError,
    random_valid_string,
)
from repro.schedule import jit as jit_mod
from repro.schedule.vectorized import ContentionBatchSimulator, WorkloadPack
from tests.routes import no_batch_kernel


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


def fan_out_workload(num_machines: int = 3):
    """0 -> {1, 2, 3, 4}: one producer pushing four items through one NIC.

    The serialisation chain (``nf = max(fin, nf) + Tr`` per item, in
    item order) is the behaviour the kernel must replicate exactly.
    """
    graph = TaskGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    e = ExecutionTimeMatrix(np.full((num_machines, 5), 2.0))
    tr = TransferTimeMatrix.uniform(num_machines, 4, 5.0)
    return Workload(graph, HCSystem.of_size(num_machines), e, tr)


class TestContentionKernelEdges:
    def test_empty_batch(self):
        kern = ContentionBatchSimulator(diamond_workload())
        assert kern.makespans([], []).shape == (0,)
        assert kern.string_makespans([]).shape == (0,)

    def test_single_task_graph(self):
        w = single_task_workload()
        kern = ContentionBatchSimulator(w)
        out = kern.makespans([[0], [0]], [[0], [1]])
        assert out.tolist() == [3.0, 5.0]

    def test_single_machine_has_no_transfers(self):
        w = diamond_workload(num_machines=1)
        kern = ContentionBatchSimulator(w)
        sim = ContentionSimulator(w)
        s = random_valid_string(w.graph, 1, 5)
        assert kern.string_makespans([s]).tolist() == [
            sim.string_makespan(s)
        ]

    def test_nic_serialisation_chain_matches_scalar(self):
        w = fan_out_workload()
        kern = ContentionBatchSimulator(w)
        sim = ContentionSimulator(w)
        strings = [random_valid_string(w.graph, 3, s) for s in range(30)]
        got = kern.string_makespans(strings)
        assert got.tolist() == [sim.string_makespan(s) for s in strings]

    def test_zero_transfers_degrade_to_contention_free_kernel(self):
        w = diamond_workload(transfer=0.0)
        nic = ContentionBatchSimulator(w)
        free = BatchSimulator(w)
        strings = [random_valid_string(w.graph, 3, s) for s in range(20)]
        assert (
            nic.string_makespans(strings).tolist()
            == free.string_makespans(strings).tolist()
        )

    def test_all_tasks_on_one_machine_skips_pushes(self):
        # every push is same-machine: the kernel runs them as stored
        # zero-duration transfers, the scalar walk skips them — the
        # makespans must still agree bit for bit
        w = diamond_workload()
        kern = ContentionBatchSimulator(w)
        sim = ContentionSimulator(w)
        for m in range(3):
            machines = [m] * 4
            got = kern.makespans([[0, 1, 2, 3]], [machines])
            assert got.tolist() == [sim.makespan([0, 1, 2, 3], machines)]

    def test_duplicate_cost_ties_match_scalar_event_order(self):
        """Uniform costs produce equal-availability / equal-arrival
        ties everywhere; the kernel's max-reductions must resolve them
        to the same floats as the scalar walk's sequential event
        order."""
        w = fan_out_workload()
        sim = ContentionSimulator(w)
        kern = ContentionBatchSimulator(w)
        orders, machines = [], []
        for s in range(12):
            x = random_valid_string(w.graph, 3, s)
            orders.append(list(x.order))
            machines.append(list(x.machines))
        got = kern.makespans(orders, machines)
        want = [sim.makespan(o, m) for o, m in zip(orders, machines)]
        assert got.tolist() == want
        # and rows with identical schedules stay bitwise identical
        rep = kern.makespans([orders[0]] * 3, [machines[0]] * 3)
        assert rep[0] == rep[1] == rep[2]
        assert int(np.argmin(rep)) == 0  # first occurrence wins

    def test_accepts_arrays_and_lists(self):
        w = diamond_workload()
        kern = ContentionBatchSimulator(w)
        s = random_valid_string(w.graph, 3, 2)
        from_lists = kern.makespans([s.order], [s.machines])
        from_arrays = kern.makespans(
            np.array([s.order]), np.array([s.machines])
        )
        assert from_lists.tolist() == from_arrays.tolist()


class TestContentionKernelValidation:
    def test_rejects_non_permutation(self):
        kern = ContentionBatchSimulator(diamond_workload())
        with pytest.raises(InvalidScheduleError, match="permutation"):
            kern.makespans([[0, 1, 1, 3]], [[0, 0, 0, 0]])

    def test_rejects_precedence_violation(self):
        kern = ContentionBatchSimulator(diamond_workload())
        with pytest.raises(InvalidScheduleError, match="producer"):
            kern.makespans([[1, 0, 2, 3]], [[0, 0, 0, 0]])

    def test_rejects_machine_out_of_range(self):
        kern = ContentionBatchSimulator(diamond_workload())
        with pytest.raises(ValueError, match="machine ids"):
            kern.makespans([[0, 1, 2, 3]], [[0, 0, 0, 3]])

    def test_rejects_shape_mismatch(self):
        kern = ContentionBatchSimulator(diamond_workload())
        with pytest.raises(ValueError, match="shape"):
            kern.makespans([[0, 1, 2]], [[0, 0, 0, 0]])
        with pytest.raises(ValueError, match="rows"):
            kern.makespans([[0, 1, 2, 3]], [[0, 0, 0, 0], [0, 0, 0, 0]])

    def test_validate_false_skips_checks(self):
        kern = ContentionBatchSimulator(diamond_workload())
        out = kern.makespans(
            [[1, 0, 2, 3]], [[0, 0, 0, 0]], validate=False
        )
        assert out.shape == (1,)


class TestSharedWorkloadPack:
    def test_both_kernels_can_share_one_pack(self):
        w = diamond_workload()
        pack = WorkloadPack(w)
        free = BatchSimulator(w, pack=pack)
        nic = ContentionBatchSimulator(w, pack=pack)
        assert free._pack is pack and nic._pack is pack
        s = random_valid_string(w.graph, 3, 4)
        assert free.string_makespans([s]).shape == (1,)
        assert nic.string_makespans([s]).shape == (1,)

    def test_out_tables_cached(self):
        pack = WorkloadPack(diamond_workload())
        assert pack.out_tables() is pack.out_tables()

    def test_out_tables_item_order_is_ascending(self):
        # the NIC push order contract: per task, ascending item index
        pack = WorkloadPack(fan_out_workload())
        pad_out_item, _, out_deg = pack.out_tables()
        d = int(out_deg[0])
        lanes = pad_out_item[0, :d].tolist()
        assert lanes == sorted(lanes)


class TestServiceAccountingUnderNic:
    def test_batch_counts_one_per_schedule(self):
        w = diamond_workload()
        svc = EvaluationService(w, "nic")
        strings = [random_valid_string(w.graph, 3, s) for s in range(5)]
        costs = svc.batch_string_makespans(strings)
        assert svc.evaluations == len(strings)
        ref = ContentionSimulator(w)
        assert costs == [ref.string_makespan(s) for s in strings]

    def test_accounting_identical_to_scalar_fallback(self, monkeypatch):
        # flipping the kernel on must not change what runners record in
        # their `evaluations` columns
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        w = diamond_workload()
        strings = [random_valid_string(w.graph, 3, s) for s in range(7)]
        fast = EvaluationService(w, "nic")
        assert fast.kernel_tier == "jit"
        fast_costs = fast.batch_string_makespans(strings)
        with no_batch_kernel("nic"):
            slow = EvaluationService(w, "nic")
        assert slow.kernel_tier == "sequential"
        slow_costs = slow.batch_string_makespans(strings)
        assert fast_costs == slow_costs
        assert fast.evaluations == slow.evaluations == len(strings)
