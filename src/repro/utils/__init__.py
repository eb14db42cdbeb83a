"""Shared utilities: deterministic RNG handling and a stopwatch."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.utils.rng": (
            "RandomSource",
            "as_rng",
            "derive_seed",
            "spawn_rngs",
        ),
        "repro.utils.timers": ("Stopwatch",),
    },
)
