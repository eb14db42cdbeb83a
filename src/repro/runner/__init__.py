"""Parallel experiment runner: declarative sweeps over algorithms ×
workloads × seeds.

Every figure benchmark and grid study in this repo is, structurally, the
same experiment: run a set of algorithms over a set of workload recipes
with a set of seeds, collect makespans (and convergence traces), and
aggregate.  This package owns that shape:

* :class:`~repro.runner.spec.ExperimentSpec` — the declarative grid,
  picklable end to end, expanded into deterministic cells;
* :func:`~repro.runner.pool.run_experiment` — inline or multi-process
  execution with per-cell resume caching and progress reporting;
* :class:`~repro.runner.results.ExperimentResult` — canonical-order
  results with JSON/CSV persistence.

Determinism contract: for iteration-capped algorithms, results are
bit-identical for any ``workers`` value (per-cell seeds are derived from
cell coordinates, never from execution order).

>>> from repro.runner import (AlgorithmSpec, ExperimentSpec,
...                           run_experiment)
>>> from repro.workloads import WorkloadSpec
>>> spec = ExperimentSpec(
...     name="quick",
...     algorithms={"HEFT": AlgorithmSpec.make("heft"),
...                 "OLB": AlgorithmSpec.make("olb")},
...     workloads=[WorkloadSpec(num_tasks=12, num_machines=3, seed=5,
...                             name="tiny")],
... )
>>> result = run_experiment(spec, workers=1)
>>> [c.algorithm for c in result]
['HEFT', 'OLB']
>>> all(c.makespan > 0 for c in result)
True
"""

from repro.runner.pool import (
    print_progress,
    run_cell,
    run_experiment,
    workers_from_env,
)
from repro.runner.registry import (
    AlgorithmFn,
    CellOutcome,
    algorithm_parameters,
    available_algorithms,
    register_algorithm,
    resolve_algorithm,
)
from repro.runner.results import CellResult, ExperimentResult, merge_results
from repro.runner.spec import (
    AlgorithmSpec,
    ExperimentCell,
    ExperimentSpec,
    derive_seed,
)

__all__ = [
    "AlgorithmFn",
    "AlgorithmSpec",
    "CellOutcome",
    "CellResult",
    "ExperimentCell",
    "ExperimentResult",
    "ExperimentSpec",
    "algorithm_parameters",
    "available_algorithms",
    "derive_seed",
    "merge_results",
    "print_progress",
    "register_algorithm",
    "resolve_algorithm",
    "run_cell",
    "run_experiment",
    "workers_from_env",
]
