"""Unit tests for the task graph."""

import networkx as nx
import numpy as np
import pytest

from repro.model.graph import TaskGraph
from repro.model.task import DataItem


@pytest.fixture
def diamond() -> TaskGraph:
    # s0 -> s1, s0 -> s2, s1 -> s3, s2 -> s3
    return TaskGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_from_edges_counts(self, diamond):
        assert diamond.num_tasks == 4
        assert diamond.num_data_items == 4

    def test_single_task_no_edges(self):
        g = TaskGraph(1)
        assert g.num_tasks == 1
        assert g.num_data_items == 0
        assert g.topological_order() == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TaskGraph(0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TaskGraph(-3)

    @pytest.mark.parametrize(
        "count", [2.0, True, "2", [0, 1]], ids=["float", "bool", "str", "list"]
    )
    def test_count_must_be_an_int(self, count):
        with pytest.raises(TypeError, match="num_tasks must be an int"):
            TaskGraph(count)

    def test_numpy_int_count_accepted(self):
        assert TaskGraph(np.int64(3)).num_tasks == 3

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph.from_edges(2, [(0, 1), (1, 0)])

    def test_self_loop_rejected_at_item_level(self):
        with pytest.raises(ValueError, match="self-edge"):
            DataItem(0, producer=1, consumer=1)

    def test_duplicate_item_index_rejected(self):
        items = [
            DataItem(0, producer=0, consumer=1),
            DataItem(0, producer=0, consumer=1),
        ]
        with pytest.raises(ValueError, match="dense"):
            TaskGraph(2, items)

    def test_item_referencing_missing_task_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TaskGraph(1, [DataItem(0, producer=0, consumer=5)])

    def test_sizes_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            TaskGraph.from_edges(2, [(0, 1)], sizes=[1.0, 2.0])

    def test_parallel_data_items_allowed(self):
        g = TaskGraph.from_edges(2, [(0, 1), (0, 1)])
        assert g.num_data_items == 2
        assert g.predecessors(1) == (0,)  # distinct predecessor once
        assert g.in_items(1) == (0, 1)


class TestAdjacency:
    def test_predecessors(self, diamond):
        assert diamond.predecessors(3) == (1, 2)
        assert diamond.predecessors(0) == ()

    def test_successors(self, diamond):
        assert diamond.successors(0) == (1, 2)
        assert diamond.successors(3) == ()

    def test_in_out_items(self, diamond):
        assert diamond.in_items(3) == (2, 3)
        assert diamond.out_items(0) == (0, 1)

    def test_entry_and_exit(self, diamond):
        assert diamond.entry_tasks() == (0,)
        assert diamond.exit_tasks() == (3,)

    def test_multiple_entries(self):
        g = TaskGraph.from_edges(3, [(0, 2), (1, 2)])
        assert g.entry_tasks() == (0, 1)


class TestTopology:
    def test_topological_order_valid(self, diamond):
        assert diamond.is_valid_order(diamond.topological_order())

    def test_topological_order_deterministic_smallest_first(self):
        g = TaskGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        assert g.topological_order() == (0, 1, 2, 3)

    def test_levels(self, diamond):
        assert diamond.level(0) == 0
        assert diamond.level(1) == 1
        assert diamond.level(2) == 1
        assert diamond.level(3) == 2
        assert diamond.num_levels == 3

    def test_levels_tuple(self, diamond):
        assert diamond.levels == (0, 1, 1, 2)

    def test_is_valid_order_rejects_non_permutation(self, diamond):
        assert not diamond.is_valid_order([0, 1, 2])
        assert not diamond.is_valid_order([0, 0, 1, 2])

    def test_is_valid_order_rejects_violation(self, diamond):
        assert not diamond.is_valid_order([3, 0, 1, 2])

    def test_is_valid_order_accepts_any_topological(self, diamond):
        assert diamond.is_valid_order([0, 2, 1, 3])


class TestConnectivity:
    def test_edgeless_zero(self):
        g = TaskGraph.from_edges(3, [])
        assert g.connectivity() == 0.0

    def test_total_order_one(self):
        g = TaskGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.connectivity() == pytest.approx(1.0)

    def test_single_task(self):
        assert TaskGraph.from_edges(1, []).connectivity() == 0.0

    def test_parallel_items_counted_once(self):
        g = TaskGraph.from_edges(2, [(0, 1), (0, 1)])
        assert g.connectivity() == pytest.approx(1.0)


class TestNetworkxInterop:
    def test_roundtrip(self, diamond):
        g = diamond.to_networkx()
        back = TaskGraph.from_networkx(g)
        assert back.num_tasks == diamond.num_tasks
        assert {d.edge for d in back.data_items} == {
            d.edge for d in diamond.data_items
        }

    def test_to_networkx_merges_parallel_items(self):
        g = TaskGraph.from_edges(2, [(0, 1), (0, 1)], sizes=[2.0, 3.0])
        nxg = g.to_networkx()
        assert nxg.edges[0, 1]["size"] == pytest.approx(5.0)
        assert nxg.edges[0, 1]["items"] == [0, 1]

    def test_from_networkx_requires_dense_nodes(self):
        g = nx.DiGraph()
        g.add_edge(1, 2)
        with pytest.raises(ValueError, match="dense"):
            TaskGraph.from_networkx(g)

    def test_from_networkx_edge_sizes(self):
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 1, size=7.5)
        tg = TaskGraph.from_networkx(g)
        assert tg.data_item(0).size == 7.5
