"""Configuration of the Wang-et-al.-style genetic algorithm baseline.

Wang, Siegel, Roychowdhury & Maciejewski (JPDC 1997) — the comparator the
paper uses in §5.3 — evolve a population of (matching string, scheduling
string) chromosomes with roulette-wheel selection, elitism, validity-
preserving crossover/mutation, and a no-improvement stopping rule.  Their
article fixes the *structure* but several rates are reported only as
"tuned"; the defaults below are the common mid-range choices and are
recorded as substitutions in EXPERIMENTS.md.

How offspring are scored is not configured here: the engine asks its
:class:`~repro.optim.evaluation.EvaluationService` (see
:mod:`repro.baselines.ga.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.optim.evaluation import EvaluationFields
from repro.optim.stop import StopPolicy
from repro.utils.rng import RandomSource


@dataclass
class GAConfig(EvaluationFields):
    """Parameters of one :class:`~repro.baselines.ga.engine.GeneticAlgorithm` run.

    Attributes
    ----------
    population_size:
        Number of chromosomes (Wang et al. used 50).
    crossover_prob:
        Per-pair probability of applying crossover (both the matching and
        the scheduling crossover are attempted on a selected pair).
    mutation_prob:
        Per-offspring probability of each mutation kind (matching
        reassignment / scheduling move).
    elite_count:
        Best chromosomes copied unchanged into the next generation
        (Wang et al. guarantee the best individual survives).
    max_generations:
        Generation cap.
    time_limit:
        Optional wall-clock cap in seconds.
    stall_generations:
        Stop after this many generations without improvement of the best
        makespan (Wang et al. used 150); ``None`` disables.
    seed:
        Seed / generator for all stochastic choices.

    The evaluation settings (``network``, ``platform``, ``objective``,
    ``scenarios``, ``distribution``, ``scenario_seed``) are inherited
    from :class:`~repro.optim.evaluation.EvaluationFields`.
    """

    population_size: int = 50
    crossover_prob: float = 0.6
    mutation_prob: float = 0.15
    elite_count: int = 1
    max_generations: int = 1000
    time_limit: Optional[float] = None
    stall_generations: Optional[int] = 150
    seed: RandomSource = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError(
                f"crossover_prob must be in [0, 1], got {self.crossover_prob}"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(
                f"mutation_prob must be in [0, 1], got {self.mutation_prob}"
            )
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError(
                f"elite_count must be in [0, population_size), got "
                f"{self.elite_count}"
            )
        if self.max_generations < 0:
            raise ValueError(
                f"max_generations must be >= 0, got {self.max_generations}"
            )
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError(f"time_limit must be >= 0, got {self.time_limit}")
        if self.stall_generations is not None and self.stall_generations < 1:
            raise ValueError(
                f"stall_generations must be >= 1, got {self.stall_generations}"
            )
        super().__post_init__()

    def stop_policy(self) -> StopPolicy:
        """The run's stopping rules as a shared :class:`StopPolicy`.

        ``max_generations`` / ``stall_generations`` map onto the
        policy's generic iteration fields, so the GA reports the same
        stop-reason strings as every other engine (``"iterations"`` —
        not the historical ``"generations"`` — for an exhausted cap).
        """
        return StopPolicy(
            max_iterations=self.max_generations,
            time_limit=self.time_limit,
            stall_iterations=self.stall_generations,
        )
