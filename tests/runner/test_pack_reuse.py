"""Runner-level tests for cross-cell ``WorkloadPack`` reuse.

The satellite contract: a multi-cell sweep packs each distinct
workload once per worker process (cells rebuild workloads from specs,
but the fingerprint-keyed cache recognises them as equal), and results
are byte-identical for any ``REPRO_WORKERS`` — with the cache on, off,
and across worker counts.
"""

import pytest

from repro.runner import AlgorithmSpec, ExperimentSpec, run_experiment
from repro.schedule.vectorized import clear_pack_cache, pack_cache_stats
from repro.workloads import WorkloadSpec
from tests.routes import jit_kernel


def sweep_spec(networks=("contention-free",), seeds=(0, 1)):
    """Several batch-scoring cells over ONE declarative workload."""
    return ExperimentSpec(
        name="pack-reuse",
        algorithms={
            "GA": AlgorithmSpec.make(
                "ga", max_generations=2, population_size=6
            ),
            "RND": AlgorithmSpec.make("random", max_iterations=12),
        },
        workloads=[
            WorkloadSpec(num_tasks=10, num_machines=3, seed=7, name="w7")
        ],
        seeds=seeds,
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_pack_cache()
    yield
    clear_pack_cache()


class TestPackReuseAcrossCells:
    def test_multi_cell_sweep_packs_once_per_process(self):
        with jit_kernel():  # packs are built for the jit kernel only
            result = run_experiment(sweep_spec(), workers=1)
        assert len(result.cells) == 4  # 2 algos x 2 seeds, one workload
        stats = pack_cache_stats()
        assert stats["misses"] == 1  # one distinct workload -> one pack
        assert stats["hits"] >= 1  # later cells reused it
        assert stats["size"] == 1

    def test_distinct_workloads_pack_separately(self):
        spec = ExperimentSpec(
            name="two-workloads",
            algorithms={
                "RND": AlgorithmSpec.make("random", max_iterations=8)
            },
            workloads=[
                WorkloadSpec(num_tasks=8, num_machines=3, seed=s, name=f"w{s}")
                for s in (1, 2)
            ],
            seeds=(0, 1),
        )
        with jit_kernel():
            run_experiment(spec, workers=1)
        stats = pack_cache_stats()
        assert stats["misses"] == 2
        assert stats["hits"] >= 2


class TestWorkerCountInvariance:
    def _flat(self, result):
        return [(c.cell_id, c.makespan, c.seed) for c in result]

    def test_results_identical_for_any_worker_count(self):
        spec = sweep_spec()
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert self._flat(serial) == self._flat(parallel)

    def test_results_identical_with_cache_disabled(self, monkeypatch):
        from repro.schedule import vectorized as vec

        spec = sweep_spec()
        cached = run_experiment(spec, workers=1)
        clear_pack_cache()
        # every kernel packs its own copy, as with no cache at all
        monkeypatch.setattr(vec, "get_workload_pack", vec.WorkloadPack)
        uncached = run_experiment(spec, workers=1)
        assert self._flat(cached) == self._flat(uncached)
        assert pack_cache_stats()["size"] == 0
