"""Random restart search — the sanity floor for the iterative heuristics.

Samples independent uniformly random valid strings and keeps the best.
Any metaheuristic worth publishing must beat this at equal evaluation
budget; the baseline-grid benchmark includes it for exactly that check.

Scoring runs on the shared optim core: samples are drawn in chunks of
``batch_size`` and each chunk is scored in one
:meth:`~repro.optim.evaluation.EvaluationService.batch_string_makespans`
call, a loop over the service's scalar backend.  Samples are drawn in
the usual RNG order whatever the chunk size, so chunking never changes
the result.

A ``time_limit`` is checked **between chunks**, so a run overshoots by
at most one chunk of ``batch_size`` samples and every drawn sample
still counts toward the reported ``evaluations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.trace import ConvergenceTrace, IterationRecord
from repro.baselines.base import BaselineResult
from repro.model.workload import Workload
from repro.optim import BestTracker, StopPolicy
from repro.optim.evaluation import EvaluationFields
from repro.schedule.operations import random_valid_string
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timers import Stopwatch


@dataclass
class RandomSearchConfig(EvaluationFields):
    """Parameters of one random-search run.

    Attributes
    ----------
    samples:
        Number of random strings to draw (>= 1).
    batch_size:
        Samples drawn and scored per batch call (>= 1); results are
        bit-identical whatever the size.
    time_limit:
        Optional wall-clock cap in seconds, checked between scoring
        chunks (so a batched run can overshoot by at most one chunk;
        at least one sample is always scored).
    seed:
        Randomness source.

    The evaluation settings (``network``, ``platform``, ``objective``,
    ``scenarios``, ``distribution``, ``scenario_seed``) are inherited
    from :class:`~repro.optim.evaluation.EvaluationFields`.
    """

    samples: int = 1000
    batch_size: int = 128
    time_limit: Optional[float] = None
    seed: RandomSource = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        super().__post_init__()


def random_search(
    workload: Workload, *, trace: Optional[ConvergenceTrace] = None, **params: Any
) -> BaselineResult:
    """Best of ``samples`` uniformly random valid strings.

    *params* are the :class:`RandomSearchConfig` fields (``samples=``,
    ``seed=``, ``time_limit=``, ``network=``, ...); *trace* is an
    optional :class:`ConvergenceTrace` to append best-so-far records to
    (for time-vs-quality comparisons).
    """
    return run_random_search(workload, RandomSearchConfig(**params), trace)


def run_random_search(
    workload: Workload,
    config: RandomSearchConfig,
    trace: Optional[ConvergenceTrace] = None,
) -> BaselineResult:
    """Run random search as configured by *config* (see module docstring)."""
    samples, batch_size = config.samples, config.batch_size
    rng = as_rng(config.seed)
    service = config.evaluation_service(workload)
    policy = StopPolicy(max_iterations=samples, time_limit=config.time_limit)
    watch = Stopwatch()

    # strings are drawn fresh and never mutated — no copy on improvement
    tracker: BestTracker = BestTracker(copy=lambda s: s)
    drawn = 0
    while not policy.exhausted(drawn):
        if policy.out_of_time(watch.elapsed()) and drawn:
            break
        chunk = [
            random_valid_string(workload.graph, workload.num_machines, rng)
            for _ in range(min(batch_size, samples - drawn))
        ]
        costs = service.batch_string_makespans(chunk)
        for s, cost in zip(chunk, costs):
            drawn += 1
            tracker.update(cost, s)
            if trace is not None:
                trace.append(
                    IterationRecord(
                        iteration=drawn,
                        current_makespan=cost,
                        best_makespan=tracker.best_cost,
                        elapsed_seconds=watch.elapsed(),
                        evaluations=drawn,
                    )
                )

    best_string = tracker.best  # drawn >= 1 by construction
    schedule, makespan = service.best_of(best_string, tracker.best_cost)
    cm = service.cost_model
    return BaselineResult(
        name="random-search",
        string=best_string,
        schedule=schedule,
        makespan=makespan,
        evaluations=drawn,
        network=config.network,
        platform=service.platform,
        cost=cm.cost(best_string.machines) if cm is not None else 0.0,
    )
