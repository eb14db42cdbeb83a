"""Unit tests for data items."""

import pytest

from repro.model.task import DataItem


class TestDataItem:
    def test_edge_property(self):
        assert DataItem(0, producer=3, consumer=7).edge == (3, 7)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            DataItem(0, producer=2, consumer=2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            DataItem(-1, producer=0, consumer=1)

    def test_negative_producer_rejected(self):
        with pytest.raises(ValueError, match="producer/consumer"):
            DataItem(0, producer=-1, consumer=1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            DataItem(0, producer=0, consumer=1, size=-0.5)

    def test_zero_size_allowed(self):
        assert DataItem(0, producer=0, consumer=1, size=0.0).size == 0.0

    def test_default_size_is_one(self):
        assert DataItem(0, producer=0, consumer=1).size == 1.0

    def test_equality_by_index(self):
        a = DataItem(1, producer=0, consumer=2, size=5.0)
        b = DataItem(1, producer=0, consumer=2, size=9.0)
        assert a == b  # size is metadata, identity is the index
