"""The genetic-algorithm baseline engine (Wang et al. 1997).

Generation loop: evaluate → elitist copy → roulette-wheel parent
selection → (matching + scheduling) crossover → mutations → next
generation.  Fitness for the roulette wheel is the standard
cost-to-fitness flip ``worst - cost + eps`` so that smaller makespans get
proportionally more wheel area.

The engine emits the same :class:`~repro.analysis.trace.ConvergenceTrace`
records as the SE engine, so the comparison harness and the figure
benchmarks treat both uniformly.

Every unevaluated chromosome of a generation is scored in one
:meth:`~repro.optim.evaluation.EvaluationService.batch_makespans` call,
which counts one evaluation per chromosome; the evaluation service
runs it as a loop over its scalar backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.baselines.ga.chromosome import Chromosome, initial_population
from repro.baselines.ga.config import GAConfig
from repro.baselines.ga.operators import (
    matching_crossover,
    matching_mutation,
    scheduling_crossover,
    scheduling_mutation,
)
from repro.model.workload import Workload
from repro.optim import (
    IncumbentSource,
    Observer,
    SearchLoop,
    SearchResult,
    StepOutcome,
)
from repro.utils.rng import as_rng
from repro.utils.timers import Stopwatch


@dataclass(frozen=True)
class GAResult(SearchResult):
    """Outcome of one GA run: the shared
    :class:`~repro.optim.result.SearchResult` fields, with
    ``generations`` naming the iteration count.

    ``stopped_by`` uses the unified :mod:`repro.optim.stop` reason
    strings — ``"iterations"`` (the generation cap; historically this
    engine said ``"generations"``), ``"time"`` or ``"stall"`` — so SE
    and GA runs report identically.
    """

    @property
    def generations(self) -> int:
        return self.iterations


class GeneticAlgorithm:
    """Wang-et-al.-style GA configured by a :class:`GAConfig`."""

    def __init__(self, config: Optional[GAConfig] = None):
        self.config = config or GAConfig()

    def run(
        self,
        workload: Workload,
        initial: Optional[Sequence[Chromosome]] = None,
        observers: Sequence[Observer] = (),
        exchange: Optional[IncumbentSource] = None,
    ) -> GAResult:
        """Optimise *workload*; returns the best chromosome found.

        Parameters
        ----------
        workload:
            The MSHC problem instance.
        initial:
            Optional seed population (copied); padded with random
            chromosomes / truncated to the configured size.
        observers:
            Callables invoked once per generation with ``(record,
            string)`` — the same protocol as the SE engine's observers;
            the string is the generation's best chromosome decoded to a
            :class:`ScheduleString`.
        exchange:
            Optional portfolio incumbent source (see
            :mod:`repro.optim.exchange`).  A delivered incumbent is
            decoded into a chromosome, evaluated (one counted call) and
            immigrated over the worst member of the current population
            before breeding; ``None`` leaves the run bit-identical to a
            solo run.
        """
        cfg = self.config
        rng = as_rng(cfg.seed)
        graph = workload.graph
        l = workload.num_machines
        # Fitness comes from the configured backend, so "nic" makes the
        # whole evolution optimise under NIC contention.
        service = cfg.evaluation_service(workload)

        population = [c.copy() for c in (initial or [])][: cfg.population_size]
        if len(population) < cfg.population_size:
            population.extend(
                initial_population(
                    graph, l, cfg.population_size - len(population), rng
                )
            )

        def evaluate(pop: list[Chromosome]) -> None:
            """Score every chromosome without a ``cost`` in one batch
            (the service counts one evaluation per chromosome)."""
            pending = [c for c in pop if c.cost is None]
            if not pending:
                return
            costs = service.batch_makespans(
                [c.scheduling for c in pending],
                [c.matching for c in pending],
            )
            for c, cost in zip(pending, costs):
                c.cost = cost

        watch = Stopwatch()
        evaluate(population)
        initial_best = min(population, key=lambda c: c.cost)

        def step(generation: int) -> StepOutcome[Chromosome]:
            nonlocal population
            if exchange is not None:
                inc = exchange.incoming(
                    generation, float(loop.tracker.best_cost)
                )
                if inc is not None:
                    # elite immigration: the incumbent joins the gene
                    # pool over the worst member, so elitism and the
                    # roulette wheel see it like any native chromosome
                    imm = Chromosome(
                        matching=list(inc.machines),
                        scheduling=list(inc.order),
                    )
                    imm.cost = service.makespan(imm.scheduling, imm.matching)
                    worst = max(
                        range(len(population)),
                        key=lambda i: population[i].cost,
                    )
                    if imm.cost < population[worst].cost:
                        population[worst] = imm
            nxt: list[Chromosome] = []
            if cfg.elite_count:
                for c in sorted(population, key=lambda c: c.cost)[
                    : cfg.elite_count
                ]:
                    nxt.append(c.copy())  # the cost survives the copy

            costs = np.array([c.cost for c in population])
            # cost -> fitness flip; +eps keeps the worst individual alive
            fitness = costs.max() - costs + 1e-9
            probs = fitness / fitness.sum()

            while len(nxt) < cfg.population_size:
                ia, ib = rng.choice(len(population), size=2, p=probs)
                pa, pb = population[int(ia)], population[int(ib)]
                if rng.random() < cfg.crossover_prob:
                    ca, cb = matching_crossover(pa, pb, rng)
                    ca, cb = scheduling_crossover(ca, cb, rng)
                else:
                    ca, cb = pa.copy(), pb.copy()
                for child in (ca, cb):
                    if rng.random() < cfg.mutation_prob:
                        matching_mutation(child, l, rng)
                    if rng.random() < cfg.mutation_prob:
                        scheduling_mutation(child, graph, l, rng)
                nxt.append(ca)
                if len(nxt) < cfg.population_size:
                    nxt.append(cb)

            population = nxt
            evaluate(population)
            gen_best = min(population, key=lambda c: c.cost)
            return StepOutcome(
                cost=float(gen_best.cost),
                candidate=gen_best,
                # decode for observers only when someone is listening
                payload=gen_best.to_string(l) if observers else gen_best,
            )

        loop: SearchLoop[Chromosome] = SearchLoop(
            stop=cfg.stop_policy(),
            observers=observers,
            evaluations=lambda: service.evaluations,
        )
        out = loop.run(float(initial_best.cost), initial_best, step, watch=watch)

        # the best chromosome as a schedule string and its scalar cost
        best = replace(
            out, best=out.best.to_string(l), best_cost=float(out.best.cost)
        )
        return GAResult.from_loop(best, service)


def run_ga(
    workload: Workload,
    config: Optional[GAConfig] = None,
    observers: Sequence[Observer] = (),
    exchange: Optional[IncumbentSource] = None,
) -> GAResult:
    """Functional convenience wrapper around :class:`GeneticAlgorithm`."""
    return GeneticAlgorithm(config).run(
        workload, observers=observers, exchange=exchange
    )
