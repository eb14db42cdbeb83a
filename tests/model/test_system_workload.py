"""Unit tests for Workload and WorkloadClass."""

import numpy as np
import pytest

from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
    WorkloadClass,
)


def _make_parts(k=3, l=2, p=2):
    graph = TaskGraph.from_edges(k, [(0, 1), (1, 2)][:p])
    e = ExecutionTimeMatrix(np.full((l, k), 2.0))
    tr = TransferTimeMatrix(np.full((l * (l - 1) // 2, p), 1.0), l)
    return graph, e, tr


class TestWorkloadValidation:
    def test_valid_construction(self):
        w = Workload(*_make_parts())
        assert w.num_tasks == 3
        assert w.num_machines == 2
        assert w.num_data_items == 2

    def test_machine_count_mismatch(self):
        """``l`` is E's row count; a Tr sized for any other ``l`` (here
        fewer machines than E has rows) is rejected."""
        graph, _, tr = _make_parts()
        e3 = ExecutionTimeMatrix(np.full((3, 3), 2.0))
        with pytest.raises(ValueError, match="Tr is sized for 2 machines"):
            Workload(graph, e3, tr)

    def test_single_machine_with_empty_transfer_matrix(self):
        graph, _, _ = _make_parts()
        e1 = ExecutionTimeMatrix(np.full((1, 3), 2.0))
        w = Workload(graph, e1, TransferTimeMatrix(np.zeros((0, 2)), 1))
        assert w.num_machines == 1
        assert w.comm_time(0, 0, 1) == 0.0

    def test_task_count_mismatch(self):
        graph, _, tr = _make_parts()
        bad_e = ExecutionTimeMatrix(np.full((2, 5), 2.0))
        with pytest.raises(ValueError, match="task columns"):
            Workload(graph, bad_e, tr)

    def test_item_count_mismatch(self):
        graph, e, _ = _make_parts()
        bad_tr = TransferTimeMatrix(np.full((1, 9), 1.0), 2)
        with pytest.raises(ValueError, match="item columns"):
            Workload(graph, e, bad_tr)

    def test_transfer_machine_mismatch(self):
        graph, e, _ = _make_parts()
        bad_tr = TransferTimeMatrix(np.full((3, 2), 1.0), 3)
        with pytest.raises(ValueError, match="sized for"):
            Workload(graph, e, bad_tr)

    def test_default_name(self):
        w = Workload(*_make_parts())
        assert w.name == "workload-k3-l2"

    @pytest.mark.parametrize("l", [1, 2, 3, 6])
    def test_l_is_the_row_count_of_e(self, l):
        graph, e, tr = _make_parts(l=l)
        w = Workload(graph, e, tr)
        assert w.num_machines == l
        assert w.name == f"workload-k3-l{l}"

    @pytest.mark.parametrize(
        "e_rows, tr_machines", [(1, 2), (2, 3), (4, 2), (5, 6)]
    )
    def test_tr_sized_for_another_l_rejected(self, e_rows, tr_machines):
        graph, _, _ = _make_parts()
        e = ExecutionTimeMatrix(np.full((e_rows, 3), 2.0))
        pairs = tr_machines * (tr_machines - 1) // 2
        tr = TransferTimeMatrix(np.full((pairs, 2), 1.0), tr_machines)
        with pytest.raises(
            ValueError,
            match=f"Tr is sized for {tr_machines} machines but E has "
            f"{e_rows} machine rows",
        ):
            Workload(graph, e, tr)

    def test_parts_are_kept_as_given(self):
        graph, e, tr = _make_parts()
        w = Workload(graph, e, tr)
        assert w.graph is graph
        assert w.exec_times is e
        assert w.transfer_times is tr

    def test_explicit_name_and_class_kept(self):
        wc = WorkloadClass(connectivity="low", ccr=0.1)
        w = Workload(*_make_parts(), classification=wc, name="job-7")
        assert w.name == "job-7"
        assert w.classification is wc
        assert w.classification.describe().startswith("size=unspecified")


class TestWorkloadQueries:
    def test_exec_time(self):
        w = Workload(*_make_parts())
        assert w.exec_time(1, 2) == 2.0

    def test_comm_time_cross_machine(self):
        w = Workload(*_make_parts())
        assert w.comm_time(0, 1, 0) == 1.0

    def test_comm_time_same_machine_zero(self):
        w = Workload(*_make_parts())
        assert w.comm_time(1, 1, 0) == 0.0

    def test_serial_time_best(self):
        w = Workload(*_make_parts())
        assert w.serial_time_best() == pytest.approx(6.0)  # 3 tasks x 2.0

    def test_ccr_estimate(self):
        w = Workload(*_make_parts())
        assert w.ccr_estimate() == pytest.approx(0.5)  # 1.0 comm / 2.0 exec

    def test_describe_mentions_counts(self):
        w = Workload(*_make_parts())
        text = w.describe()
        assert "k = 3" in text
        assert "l = 2" in text


class TestWorkloadClass:
    def test_describe(self):
        wc = WorkloadClass(
            connectivity="high", heterogeneity="low", ccr=0.1, size="large"
        )
        assert "connectivity=high" in wc.describe()
        assert "CCR=0.1" in wc.describe()

    def test_describe_unknown_ccr(self):
        assert "CCR=?" in WorkloadClass().describe()
