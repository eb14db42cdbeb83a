"""Genetic-algorithm baseline (Wang et al., JPDC 1997) — the paper's comparator."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.baselines.ga.chromosome": (
            "Chromosome",
            "initial_population",
            "is_valid_chromosome",
            "random_chromosome",
        ),
        "repro.baselines.ga.config": ("GAConfig",),
        "repro.baselines.ga.engine": ("GAResult", "GeneticAlgorithm", "run_ga"),
        "repro.baselines.ga.operators": (
            "matching_crossover",
            "matching_mutation",
            "scheduling_crossover",
            "scheduling_mutation",
        ),
    },
)
