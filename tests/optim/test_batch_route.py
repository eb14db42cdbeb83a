"""The one batch route: ``EvaluationService`` loops its scalar backend.

Every batch, on either network and either walker tier, is a loop of the
scalar walker's ``makespan``, which validates every row.  So the batch
methods raise exactly what a single call raises, count nothing when
they raise, and need no batch-only validation of their own.  No engine
carries a knob that picks a scoring route.
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
    InvalidScheduleError,
    ScheduleString,
    make_simulator,
    random_valid_string,
)
from tests.routes import walker


def diamond_workload(transfer: float = 4.0, num_machines: int = 3):
    """0 -> {1, 2} -> 3 with uniform costs (easy to reason about)."""
    graph = TaskGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    e = ExecutionTimeMatrix(
        np.full((num_machines, 4), 2.0) + np.arange(num_machines)[:, None]
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

    Under ``"nic"`` the pushes serialise (``nf = max(fin, nf) + Tr`` per
    item, in item order); uniform costs tie everywhere.
    """
    graph = TaskGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    e = ExecutionTimeMatrix(np.full((num_machines, 5), 2.0))
    tr = TransferTimeMatrix.uniform(num_machines, 4, 5.0)
    return Workload(graph, HCSystem.of_size(num_machines), e, tr)


#: ``(orders, machines, exception, message)`` of every rejected batch.
INVALID = {
    "non-permutation": (
        [[0, 1, 1, 3]], [[0, 0, 0, 0]], InvalidScheduleError, "permutation"
    ),
    "precedence": (
        [[1, 0, 2, 3]], [[0, 0, 0, 0]], InvalidScheduleError, "producer"
    ),
    "machine-high": (
        [[0, 1, 2, 3]], [[0, 0, 0, 3]], ValueError, "out of range"
    ),
    "machine-negative": (
        [[0, 1, 2, 3]], [[0, 0, 0, -1]], ValueError, "out of range"
    ),
    "short-row": ([[0, 1, 2]], [[0, 0, 0, 0]], ValueError, "entries"),
    "short-machines-row": (
        [[0, 1, 2, 3]], [[0, 0, 0]], ValueError, "machine_of has 3 entries"
    ),
    "row-count": (
        [[0, 1, 2, 3]],
        [[0, 0, 0, 0], [0, 0, 0, 0]],
        ValueError,
        "rows",
    ),
}


def _strings(w: Workload, seeds) -> list[ScheduleString]:
    return [random_valid_string(w.graph, w.num_machines, s) for s in seeds]


@pytest.mark.parametrize("tier", ["compiled", "python"])
@pytest.mark.parametrize("network", ["contention-free", "nic"])
class TestBatchRoute:
    """Both batch methods on every network × walker tier."""

    @staticmethod
    def service(w, network, tier):
        with walker(tier):
            return EvaluationService(w, network)

    @staticmethod
    def scalar(w, network, tier):
        with walker(tier):
            return make_simulator(w, network)

    def test_empty_batch(self, network, tier):
        svc = self.service(diamond_workload(), network, tier)
        assert svc.batch_makespans([], []) == []
        empty = np.empty((0, 4), int)
        assert svc.batch_makespans(empty, empty) == []
        assert svc.batch_string_makespans([]) == []
        assert svc.evaluations == 0  # an empty batch counts nothing

    def test_single_task_workload(self, network, tier):
        # the row's execution time, one count per row
        svc = self.service(single_task_workload(), network, tier)
        assert svc.batch_makespans([[0], [0]], [[0], [1]]) == [3.0, 5.0]
        strings = [ScheduleString([0], [m], 2) for m in (1, 0)]
        assert svc.batch_string_makespans(strings) == [5.0, 3.0]
        assert svc.evaluations == 4

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_rejects_invalid_rows(self, network, tier, case):
        orders, machines, exc, match = INVALID[case]
        svc = self.service(diamond_workload(), network, tier)
        with pytest.raises(exc, match=match):
            svc.batch_makespans(orders, machines)
        with pytest.raises(exc, match=match):
            svc.batch_makespans(np.array(orders), np.array(machines))
        assert svc.evaluations == 0  # a rejected batch counts nothing

    def test_valid_rows_equal_single_calls(self, network, tier):
        w = diamond_workload()
        svc = self.service(w, network, tier)
        ref = self.scalar(w, network, tier)
        rows = ([[0, 1, 2, 3], [0, 2, 1, 3]], [[0, 1, 2, 0], [2, 2, 1, 0]])
        assert svc.batch_makespans(*rows) == [
            ref.makespan(o, m) for o, m in zip(*rows)
        ]

    def test_accepts_arrays_and_lists(self, network, tier):
        w = diamond_workload()
        svc = self.service(w, network, tier)
        (s,) = _strings(w, [2])
        from_lists = svc.batch_makespans([s.order], [s.machines])
        from_arrays = svc.batch_makespans(
            np.array([s.order]), np.array([s.machines])
        )
        assert from_lists == from_arrays
        assert all(type(x) is float for x in from_arrays)

    def test_string_and_row_methods_agree(self, network, tier):
        w = diamond_workload()
        svc = self.service(w, network, tier)
        strings = _strings(w, range(8))
        by_string = svc.batch_string_makespans(strings)
        by_rows = svc.batch_makespans(
            [list(s.order) for s in strings],
            [list(s.machines) for s in strings],
        )
        assert by_string == by_rows
        assert svc.evaluations == 2 * len(strings)

    def test_duplicate_rows_are_bitwise_equal(self, network, tier):
        """Identical rows score identical floats, so any first-minimum
        scan over a batch picks the first occurrence."""
        w = fan_out_workload()
        svc = self.service(w, network, tier)
        (s,) = _strings(w, [1])
        out = svc.batch_string_makespans([s, s, s])
        assert out[0] == out[1] == out[2]
        assert int(np.argmin(out)) == 0

    def test_single_machine(self, network, tier):
        w = diamond_workload(num_machines=1)
        svc = self.service(w, network, tier)
        ref = self.scalar(w, network, tier)
        strings = _strings(w, range(4))
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]

    def test_zero_cost_transfers_equal_the_plain_walk(self, network, tier):
        # with nothing to serialise every network scores the plain walk
        w = diamond_workload(transfer=0.0)
        svc = self.service(w, network, tier)
        plain = self.scalar(w, "contention-free", tier)
        strings = _strings(w, range(20))
        assert svc.batch_string_makespans(strings) == [
            plain.string_makespan(s) for s in strings
        ]

    def test_varying_batch_sizes_match_scalar(self, network, tier):
        w = diamond_workload()
        svc = self.service(w, network, tier)
        ref = self.scalar(w, network, tier)
        for n in (5, 1, 3, 5):
            strings = _strings(w, [100 + n * 10 + i for i in range(n)])
            assert svc.batch_string_makespans(strings) == [
                ref.string_makespan(s) for s in strings
            ]

    def test_fan_out_ties_match_scalar(self, network, tier):
        """Uniform costs tie on machine availability and item arrival
        everywhere; the batch resolves them to the scalar walk's
        floats."""
        w = fan_out_workload()
        svc = self.service(w, network, tier)
        ref = self.scalar(w, network, tier)
        strings = _strings(w, range(30))
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]

    def test_all_tasks_on_one_machine(self, network, tier):
        # every transfer is same-machine, so none costs time
        w = diamond_workload()
        svc = self.service(w, network, tier)
        got = svc.batch_makespans([[0, 1, 2, 3]] * 3, [[m] * 4 for m in range(3)])
        serial = [float(sum(w.exec_times.values[m])) for m in range(3)]
        assert got == serial

    def test_counts_one_per_schedule(self, network, tier):
        w = diamond_workload()
        svc = self.service(w, network, tier)
        strings = _strings(w, range(5))
        svc.batch_string_makespans(strings)
        assert svc.evaluations == len(strings)
        svc.batch_makespans(
            [list(s.order) for s in strings[:2]],
            [list(s.machines) for s in strings[:2]],
        )
        assert svc.evaluations == len(strings) + 2

    def test_walker_tiers_agree(self, network, tier):
        # the other tier's single calls score this tier's batch rows
        other = "python" if tier == "compiled" else "compiled"
        w = fan_out_workload()
        svc = self.service(w, network, tier)
        ref = self.scalar(w, network, other)
        strings = _strings(w, range(12))
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]


class TestNoRouteKnobs:
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

        with pytest.raises(ValueError, match="batch_size"):
            random_search(diamond_workload(), samples=2, seed=1, batch_size=0)
