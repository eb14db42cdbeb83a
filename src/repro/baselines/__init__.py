"""Baseline schedulers.

* :mod:`repro.baselines.ga` — the GA of Wang et al. (JPDC 1997), the
  comparator used in the paper's §5.3;
* :func:`heft`, :func:`min_min` / :func:`max_min`, :func:`olb`,
  :func:`random_search`, :func:`list_schedule` — classic deterministic /
  sanity baselines from the surrounding literature (extensions beyond
  the paper's own evaluation).
"""

from repro.baselines.base import BaselineResult, IncrementalScheduleBuilder
from repro.baselines.ga import GAConfig, GAResult, GeneticAlgorithm, run_ga
from repro.baselines.heft import heft
from repro.baselines.listsched import (
    downward_ranks,
    list_schedule,
    task_processing_order,
    upward_ranks,
)
from repro.baselines.minmin import max_min, min_min
from repro.baselines.olb import olb
from repro.baselines.random_search import (
    RandomSearchConfig,
    random_search,
    run_random_search,
)

__all__ = [
    "BaselineResult",
    "IncrementalScheduleBuilder",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "run_ga",
    "heft",
    "downward_ranks",
    "list_schedule",
    "task_processing_order",
    "upward_ranks",
    "max_min",
    "min_min",
    "olb",
    "RandomSearchConfig",
    "random_search",
    "run_random_search",
]
