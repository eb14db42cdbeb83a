"""A multi-cell sweep gives identical results for any worker count."""

from repro.runner import AlgorithmSpec, ExperimentSpec, run_experiment
from repro.workloads import WorkloadSpec


def sweep_spec():
    """Several batch-scoring cells over ONE declarative workload."""
    return ExperimentSpec(
        name="worker-invariance",
        algorithms={
            "GA": AlgorithmSpec.make(
                "ga", max_generations=2, population_size=6
            ),
            "RND": AlgorithmSpec.make("random", max_iterations=12),
        },
        workloads=[
            WorkloadSpec(num_tasks=10, num_machines=3, seed=7, name="w7")
        ],
        seeds=(0, 1),
    )


class TestWorkerCountInvariance:
    def _flat(self, result):
        return [(c.cell_id, c.makespan, c.seed) for c in result]

    def test_results_identical_for_any_worker_count(self):
        spec = sweep_spec()
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert self._flat(serial) == self._flat(parallel)
