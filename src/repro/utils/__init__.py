"""Shared utilities: deterministic RNG handling, validation helpers, timers."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.utils.rng": (
            "RandomSource",
            "as_rng",
            "derive_seed",
            "random_permutation",
            "spawn_rngs",
            "weighted_choice",
        ),
        "repro.utils.timers": ("Stopwatch", "TimeBudget"),
        "repro.utils.validation": (
            "check_fraction_range",
            "check_index",
            "check_nonnegative",
            "check_positive",
            "check_probability",
        ),
    },
)
