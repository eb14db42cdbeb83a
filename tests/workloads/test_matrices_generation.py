"""Unit tests for heterogeneity (E) and CCR (Tr) generation."""

import numpy as np
import pytest

from repro.workloads.ccr import CCR_CLASSES, transfer_matrix
from repro.workloads.generator import layered_dag
from repro.workloads.heterogeneity import (
    HETEROGENEITY_FACTOR,
    execution_matrix,
    heterogeneity_factor,
)


class TestExecutionMatrix:
    def test_shape(self):
        e = execution_matrix(4, 10, seed=1)
        assert e.num_machines == 4
        assert e.num_tasks == 10

    def test_all_positive(self):
        e = execution_matrix(4, 10, machine_factor=10.0, seed=1)
        assert np.all(e.values > 0)

    def test_task_range_bounds(self):
        e = execution_matrix(
            3, 20, machine_factor=1.0, task_range=(10.0, 20.0), seed=1
        )
        # factor 1.0 => values equal tau in [10, 20]
        assert np.all(e.values >= 10.0)
        assert np.all(e.values <= 20.0)

    def test_heterogeneity_monotone_in_factor(self):
        low = execution_matrix(8, 40, machine_factor=1.1, seed=2)
        high = execution_matrix(8, 40, machine_factor=10.0, seed=2)
        assert high.heterogeneity() > low.heterogeneity()

    def test_consistent_mode_orders_machines(self):
        e = execution_matrix(
            4, 10, machine_factor=5.0, consistency="consistent", seed=3
        )
        # a consistent matrix has one fastest machine for every task
        best = {e.best_machine(t) for t in range(10)}
        assert len(best) == 1

    def test_inconsistent_mode_varies_best_machine(self):
        e = execution_matrix(
            6, 40, machine_factor=10.0, consistency="inconsistent", seed=4
        )
        best = {e.best_machine(t) for t in range(40)}
        assert len(best) > 1

    def test_deterministic_per_seed(self):
        a = execution_matrix(3, 5, seed=7)
        b = execution_matrix(3, 5, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_machines": 0, "num_tasks": 3}, "at least one"),
            ({"num_machines": 2, "num_tasks": 3, "machine_factor": 0.5}, "machine_factor"),
            ({"num_machines": 2, "num_tasks": 3, "task_range": (0.0, 5.0)}, "task_range"),
            (
                {"num_machines": 2, "num_tasks": 3, "consistency": "odd"},
                "consistency",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            execution_matrix(**kwargs)

    def test_factor_lookup(self):
        assert heterogeneity_factor("low") == HETEROGENEITY_FACTOR["low"]
        with pytest.raises(ValueError, match="unknown"):
            heterogeneity_factor("extreme")


class TestTransferMatrix:
    @pytest.fixture
    def graph(self):
        return layered_dag(30, edges_per_task=2.0, seed=1)

    @pytest.fixture
    def e(self, graph):
        return execution_matrix(4, graph.num_tasks, seed=2)

    def test_shape(self, graph, e):
        tr = transfer_matrix(graph, e, ccr=0.5, seed=3)
        assert tr.num_items == graph.num_data_items
        assert tr.num_machines == 4

    def test_zero_ccr_zero_transfers(self, graph, e):
        tr = transfer_matrix(graph, e, ccr=0.0, seed=3)
        assert tr.mean_time() == 0.0

    def test_achieved_ccr_close_to_target(self, graph, e):
        for target in (0.1, 1.0):
            tr = transfer_matrix(graph, e, ccr=target, seed=4)
            achieved = tr.mean_time() / e.values.mean()
            assert achieved == pytest.approx(target, rel=0.35)

    def test_ccr_monotone(self, graph, e):
        low = transfer_matrix(graph, e, ccr=0.1, seed=5)
        high = transfer_matrix(graph, e, ccr=1.0, seed=5)
        assert high.mean_time() > low.mean_time()

    def test_single_machine_empty(self, graph):
        e1 = execution_matrix(1, graph.num_tasks, seed=6)
        tr = transfer_matrix(graph, e1, ccr=1.0, seed=6)
        assert tr.values.shape == (0, graph.num_data_items)

    def test_negative_ccr_rejected(self, graph, e):
        with pytest.raises(ValueError, match="ccr"):
            transfer_matrix(graph, e, ccr=-0.1)

    def test_bad_jitter_rejected(self, graph, e):
        with pytest.raises(ValueError, match="item_jitter"):
            transfer_matrix(graph, e, ccr=0.5, item_jitter=(2.0, 1.0))

    def test_deterministic_per_seed(self, graph, e):
        a = transfer_matrix(graph, e, ccr=0.5, seed=9)
        b = transfer_matrix(graph, e, ccr=0.5, seed=9)
        assert a == b


class TestCcrClass:
    def test_classes_cover_paper_values(self):
        assert CCR_CLASSES["low"] == 0.1
        assert CCR_CLASSES["high"] == 1.0
