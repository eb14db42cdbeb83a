"""Unit tests for the per-process ``WorkloadPack`` cache.

The cache (``repro.schedule.vectorized``) memoises packed tensors per
process keyed by a content fingerprint, so independently-rebuilt equal
workloads (the runner's worker processes rebuild from declarative
specs) share one pack.  These tests pin the fingerprint semantics, the
LRU bound, and the ``_bind_pack`` hook that routes every kernel
construction through the cache.
"""

import numpy as np
import pytest

from repro.model import TransferTimeMatrix, Workload, num_pairs
from repro.schedule.vectorized import (
    BatchSimulator,
    ContentionBatchSimulator,
    WorkloadPack,
    clear_pack_cache,
    get_workload_pack,
    pack_cache_stats,
    workload_fingerprint,
)
from repro.workloads import WorkloadSpec, small_workload
from repro.workloads.presets import build_workload


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_pack_cache()
    yield
    clear_pack_cache()


class TestFingerprint:
    def test_stable_across_independent_rebuilds(self):
        spec = WorkloadSpec(num_tasks=10, num_machines=3, seed=5, name="w")
        a, b = build_workload(spec), build_workload(spec)
        assert a is not b
        assert workload_fingerprint(a) == workload_fingerprint(b)

    def test_execution_times_are_fingerprinted(self):
        from repro.model import ExecutionTimeMatrix

        w = small_workload(seed=1)
        scaled = Workload(
            w.graph,
            w.system,
            ExecutionTimeMatrix(w.exec_times.values * 2.0),
            w.transfer_times,
        )
        assert workload_fingerprint(w) != workload_fingerprint(scaled)

    def test_transfer_times_are_fingerprinted(self):
        w = small_workload(seed=1)
        tr = TransferTimeMatrix(
            np.zeros((num_pairs(w.num_machines), w.num_data_items)),
            num_machines=w.num_machines,
        )
        wz = Workload(w.graph, w.system, w.exec_times, tr)
        assert workload_fingerprint(w) != workload_fingerprint(wz)


class TestCacheBehaviour:
    def test_hit_returns_the_same_object(self):
        spec = WorkloadSpec(num_tasks=10, num_machines=3, seed=5, name="w")
        a, b = build_workload(spec), build_workload(spec)
        pa = get_workload_pack(a)
        pb = get_workload_pack(b)
        assert pa is pb
        stats = pack_cache_stats()
        assert stats == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_workloads_get_distinct_packs(self):
        pa = get_workload_pack(small_workload(seed=1))
        pb = get_workload_pack(small_workload(seed=2))
        assert pa is not pb
        assert pack_cache_stats()["size"] == 2

    def test_lru_eviction_beyond_capacity(self, monkeypatch):
        from repro.schedule import vectorized as vec

        monkeypatch.setattr(vec, "PACK_CACHE_CAPACITY", 2)
        w1, w2, w3 = (small_workload(seed=s) for s in (1, 2, 3))
        p1 = get_workload_pack(w1)
        get_workload_pack(w2)
        get_workload_pack(w3)  # evicts w1 (least recently used)
        assert pack_cache_stats()["size"] == 2
        assert get_workload_pack(w1) is not p1  # re-packed after eviction

    def test_enabled_by_default(self, monkeypatch):
        # reuse is unconditional: the retired REPRO_PACK_CACHE=0 switch
        # no longer turns it off
        monkeypatch.setenv("REPRO_PACK_CACHE", "0")
        w = small_workload(seed=1)
        assert get_workload_pack(w) is get_workload_pack(w)
        assert pack_cache_stats() == {"hits": 1, "misses": 1, "size": 1}


class TestKernelIntegration:
    def test_kernels_share_the_cached_pack(self):
        """Both networks' kernels bind one pack per workload."""
        w = small_workload(seed=4)
        BatchSimulator(w)
        ContentionBatchSimulator(w)
        stats = pack_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_explicit_pack_bypasses_the_cache(self):
        w = small_workload(seed=4)
        BatchSimulator(w, pack=WorkloadPack(w))
        assert pack_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_cached_and_fresh_packs_score_identically(self):
        from repro.schedule import random_valid_string

        w = small_workload(seed=4)
        strings = [
            random_valid_string(w.graph, w.num_machines, s) for s in range(5)
        ]
        cached = BatchSimulator(w).string_makespans(strings)
        fresh = BatchSimulator(w, pack=WorkloadPack(w)).string_makespans(strings)
        assert cached.tolist() == fresh.tolist()
