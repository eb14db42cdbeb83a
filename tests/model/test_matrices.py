"""Unit tests for the E and Tr matrices and the pair indexing."""

import numpy as np
import pytest

from repro.model.matrices import (
    ExecutionTimeMatrix,
    TransferTimeMatrix,
    num_pairs,
    pair_index,
    pair_table,
)


class TestPairIndex:
    def test_enumeration_order(self):
        # pairs of 4 machines: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3)
        expected = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
        for (a, b), row in expected.items():
            assert pair_index(a, b, 4) == row

    def test_symmetry(self):
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert pair_index(a, b, 5) == pair_index(b, a, 5)

    def test_bijective_over_all_pairs(self):
        l = 7
        rows = {pair_index(a, b, l) for a in range(l) for b in range(a + 1, l)}
        assert rows == set(range(num_pairs(l)))

    def test_same_machine_rejected(self):
        with pytest.raises(ValueError, match="same-machine"):
            pair_index(2, 2, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            pair_index(0, 4, 4)
        with pytest.raises(ValueError, match="out of range"):
            pair_index(-1, 2, 4)

    def test_num_pairs(self):
        assert num_pairs(1) == 0
        assert num_pairs(2) == 1
        assert num_pairs(20) == 190


class TestExecutionTimeMatrix:
    def test_shape_accessors(self):
        e = ExecutionTimeMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert e.num_machines == 2
        assert e.num_tasks == 3

    def test_time_lookup(self):
        e = ExecutionTimeMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert e.time(1, 0) == 3.0

    def test_values_read_only(self):
        e = ExecutionTimeMatrix([[1.0]])
        with pytest.raises(ValueError):
            e.values[0, 0] = 2.0

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            ExecutionTimeMatrix([1.0, 2.0])

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ExecutionTimeMatrix([[0.0, 1.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ExecutionTimeMatrix([[-1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ExecutionTimeMatrix([[float("nan")]])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ExecutionTimeMatrix([[float("inf")]])

    def test_best_machine(self):
        e = ExecutionTimeMatrix([[5.0, 1.0], [2.0, 9.0]])
        assert e.best_machine(0) == 1
        assert e.best_machine(1) == 0

    def test_best_machine_tie_breaks_low_index(self):
        e = ExecutionTimeMatrix([[3.0], [3.0], [3.0]])
        assert e.best_machine(0) == 0

    def test_ranking(self):
        e = ExecutionTimeMatrix([[5.0, 1.0], [2.0, 1.0], [8.0, 0.5]])
        assert e.ranking[:, 0].tolist() == [1, 0, 2]
        assert e.ranking[:, 1].tolist() == [2, 0, 1]  # ties: lowest id
        assert not e.ranking.flags.writeable

    def test_best_time(self):
        e = ExecutionTimeMatrix([[5.0], [2.0]])
        assert e.best_time(0) == 2.0

    def test_average_time(self):
        e = ExecutionTimeMatrix([[2.0], [4.0]])
        assert e.average_time(0) == 3.0

    def test_heterogeneity_zero_when_uniform(self):
        e = ExecutionTimeMatrix([[7.0, 3.0], [7.0, 3.0]])
        assert e.heterogeneity() == pytest.approx(0.0)

    def test_heterogeneity_positive_when_spread(self):
        e = ExecutionTimeMatrix([[1.0], [10.0]])
        assert e.heterogeneity() > 0.5

    def test_equality(self):
        a = ExecutionTimeMatrix([[1.0, 2.0]])
        b = ExecutionTimeMatrix([[1.0, 2.0]])
        c = ExecutionTimeMatrix([[1.0, 3.0]])
        assert a == b
        assert a != c


class TestTransferTimeMatrix:
    def test_basic_lookup(self):
        tr = TransferTimeMatrix([[5.0, 7.0]], num_machines=2)
        assert tr.time(0, 1, 0) == 5.0
        assert tr.time(1, 0, 1) == 7.0

    def test_same_machine_is_free(self):
        tr = TransferTimeMatrix([[5.0]], num_machines=2)
        assert tr.time(0, 0, 0) == 0.0
        assert tr.time(1, 1, 0) == 0.0

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            TransferTimeMatrix([[1.0], [2.0]], num_machines=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TransferTimeMatrix([[-1.0]], num_machines=2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TransferTimeMatrix([[float("nan")]], num_machines=2)

    def test_zeros_constructor(self):
        tr = TransferTimeMatrix.zeros(3, 4)
        assert tr.num_items == 4
        assert tr.time(0, 2, 3) == 0.0

    def test_uniform_constructor(self):
        tr = TransferTimeMatrix.uniform(3, 2, 9.0)
        assert tr.time(1, 2, 0) == 9.0

    def test_uniform_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TransferTimeMatrix.uniform(2, 1, -1.0)

    def test_single_machine_empty(self):
        tr = TransferTimeMatrix(np.zeros((0, 3)), num_machines=1)
        assert tr.time(0, 0, 2) == 0.0
        assert tr.mean_time() == 0.0

    def test_mean_time(self):
        tr = TransferTimeMatrix([[2.0, 4.0]], num_machines=2)
        assert tr.mean_time() == pytest.approx(3.0)

    def test_equality(self):
        a = TransferTimeMatrix([[1.0]], num_machines=2)
        b = TransferTimeMatrix([[1.0]], num_machines=2)
        assert a == b

    @pytest.mark.parametrize("l,p", [(1, 2), (2, 3), (5, 3)])
    def test_times_match_time(self, l, p):
        """One gather over every (a, b, item), same-machine pairs too."""
        rng = np.random.default_rng(l * 10 + p)
        tr = TransferTimeMatrix(
            rng.uniform(0.0, 9.0, size=(num_pairs(l), p)), num_machines=l
        )
        a, b, item = np.indices((l, l, p)).reshape(3, -1)
        want = [tr.time(*t) for t in zip(a.tolist(), b.tolist(), item.tolist())]
        assert tr.times(a, b, item).tolist() == want


class TestPairTable:
    @pytest.mark.parametrize("l,p", [(1, 0), (1, 3), (2, 0), (4, 0), (5, 3)])
    def test_entries_match_time(self, l, p):
        rng = np.random.default_rng(l * 10 + p)
        tr = TransferTimeMatrix(
            rng.uniform(0.0, 9.0, size=(num_pairs(l), p)), num_machines=l
        )
        table = tr.pair_rows()
        assert len(table) == l and all(len(row) == l for row in table)
        for a in range(l):
            for b in range(l):
                assert len(table[a][b]) == p
                for item in range(p):
                    assert table[a][b][item] == tr.time(a, b, item)

    @pytest.mark.parametrize("l,p", [(1, 0), (1, 2), (3, 0), (6, 4)])
    def test_shared_rows(self, l, p):
        table = TransferTimeMatrix(
            np.ones((num_pairs(l), p)), num_machines=l
        ).pair_rows()
        zero = table[0][0]
        assert zero == [0.0] * p
        for a in range(l):
            assert table[a][a] is zero  # one diagonal row object
            for b in range(a + 1, l):
                assert table[a][b] is table[b][a]
                assert table[a][b] is not zero

    def test_generic_rows_give_pair_index(self):
        l = 5
        table = pair_table(range(num_pairs(l)), l, -1)
        for a in range(l):
            for b in range(l):
                want = -1 if a == b else pair_index(a, b, l)
                assert table[a][b] == want

    def test_single_machine(self):
        assert pair_table([], 1, "diag") == [["diag"]]
