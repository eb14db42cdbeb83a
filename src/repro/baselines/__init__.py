"""Baseline schedulers.

* :mod:`repro.baselines.ga` — the GA of Wang et al. (JPDC 1997), the
  comparator used in the paper's §5.3;
* :func:`heft`, :func:`min_min` / :func:`max_min`, :func:`olb`,
  :func:`random_search`, :func:`list_schedule` — classic deterministic /
  sanity baselines from the surrounding literature (extensions beyond
  the paper's own evaluation).
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.baselines.base": ("BaselineResult", "IncrementalScheduleBuilder"),
        "repro.baselines.ga": ("GAConfig", "GAResult", "GeneticAlgorithm", "run_ga"),
        "repro.baselines.heft": ("heft",),
        "repro.baselines.listsched": (
            "downward_ranks",
            "list_schedule",
            "task_processing_order",
            "upward_ranks",
        ),
        "repro.baselines.minmin": ("max_min", "min_min"),
        "repro.baselines.olb": ("olb",),
        "repro.baselines.random_search": (
            "RandomSearchConfig",
            "random_search",
            "run_random_search",
        ),
    },
)
