"""Simulated Evolution for matching and scheduling (the paper's contribution).

The engine in :mod:`repro.core.engine` runs the three-step SE loop —
evaluation (:mod:`~repro.core.goodness`), selection
(:mod:`~repro.core.selection`), allocation (:mod:`~repro.core.allocation`)
— from the randomised initial solution of :mod:`~repro.core.initial`,
configured by :class:`~repro.core.config.SEConfig`.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.core.allocation": ("AllocationResult", "Allocator"),
        "repro.core.config": ("SEConfig", "default_bias"),
        "repro.core.engine": ("SEResult", "SimulatedEvolution", "run_se"),
        "repro.core.goodness": (
            "GoodnessEvaluator",
            "goodness_values",
            "optimal_finish_times",
        ),
        "repro.core.initial": ("initial_solution",),
        "repro.core.observers": (
            "Observer",
            "ProgressPrinter",
            "StallDetector",
            "StringSnapshots",
        ),
        "repro.core.selection": (
            "bias_for_target_fraction",
            "expected_selection_fraction",
            "select_subtasks",
        ),
    },
)
