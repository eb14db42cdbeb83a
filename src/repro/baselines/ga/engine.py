"""The genetic-algorithm baseline engine (Wang et al. 1997).

Generation loop: evaluate → elitist copy → roulette-wheel parent
selection → (matching + scheduling) crossover → mutations → next
generation.  Fitness for the roulette wheel is the standard
cost-to-fitness flip ``worst - cost + eps`` so that smaller makespans get
proportionally more wheel area.

The engine emits the same :class:`~repro.analysis.trace.ConvergenceTrace`
records as the SE engine, so the comparison harness and the figure
benchmarks treat both uniformly.

Offspring evaluation takes one of two routes, both bit-identical to a
plain scalar loop, and the evaluation service decides which:

* **batch**, whenever :attr:`EvaluationService.is_vectorized
  <repro.optim.evaluation.EvaluationService.is_vectorized>` is True
  (both network models ship a batch kernel): every unevaluated
  chromosome of a generation is scored in one
  :meth:`~repro.optim.evaluation.EvaluationService.batch_makespans`
  sweep, so the whole population advances through the kernel together;
* **incremental** otherwise (e.g. a residual initial state or a
  platform with boot delays, which no kernel accepts): a child produced
  by crossover/mutation keeps its "first" parent's string prefix up to
  the first divergence position, so children are grouped by parent and
  scored with
  :meth:`~repro.schedule.simulator.Simulator.evaluate_delta` against
  one prepared parent state.  Since a prepare costs about one full
  evaluation and crossover children diverge near the middle of the
  string, the delta path is taken only for parents with three or more
  unevaluated children.
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


def _first_divergence(
    parent: Chromosome, child: Chromosome, parent_pos: Sequence[int]
) -> int:
    """First string position where *child* stops sharing *parent*'s prefix.

    Considers both the scheduling permutation (first index where the
    orders differ) and the matching string (a changed machine dirties the
    task's position in the parent order; positions below the scheduling
    divergence are shared, so the parent position is the child position
    there).  Returns ``k`` for an identical child.
    """
    k = len(parent.scheduling)
    f = k
    ps = parent.scheduling
    cs = child.scheduling
    for p in range(k):
        if ps[p] != cs[p]:
            f = p
            break
    pm = parent.matching
    cm = child.matching
    for t in range(k):
        if pm[t] != cm[t]:
            p = parent_pos[t]
            if p < f:
                f = p
    return f


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
        # whole evolution optimise under NIC contention.  Only a
        # genuinely vectorized kernel replaces the scalar paths.
        service = cfg.evaluation_service(workload)
        use_batch = service.is_vectorized

        population = [c.copy() for c in (initial or [])][: cfg.population_size]
        if len(population) < cfg.population_size:
            population.extend(
                initial_population(
                    graph, l, cfg.population_size - len(population), rng
                )
            )

        def evaluate(
            pop: list[Chromosome],
            parents: Optional[list[Optional[Chromosome]]] = None,
        ) -> None:
            """Fill every missing ``cost`` (the service counts the calls).

            ``parents[i]``, when given, is a chromosome whose string
            shares a prefix with ``pop[i]`` (its crossover/copy source).
            On a vectorized backend all pending chromosomes are scored
            in one batch sweep.  Otherwise children are grouped by
            parent; a parent with >= 3 pending children is prepared
            once and its children scored by suffix-only re-evaluation.
            Both paths are bit-identical to the plain scalar loop.
            """
            if use_batch:
                pending = [c for c in pop if c.cost is None]
                if not pending:
                    return
                costs = service.batch_makespans(
                    [c.scheduling for c in pending],
                    [c.matching for c in pending],
                )
                for c, cost in zip(pending, costs):
                    c.cost = cost
                return
            groups: dict[int, list[Chromosome]] = {}
            by_parent: dict[int, Chromosome] = {}
            for i, c in enumerate(pop):
                if c.cost is not None:
                    continue
                par = parents[i] if parents is not None else None
                if par is not None and par.cost is not None:
                    groups.setdefault(id(par), []).append(c)
                    by_parent[id(par)] = par
                else:
                    c.cost = service.makespan(c.scheduling, c.matching)
            for key, children in groups.items():
                par = by_parent[key]
                if len(children) < 3:
                    # a prepare costs about one full evaluation and a
                    # crossover child diverges at the cut (~k/2 on
                    # average), so fewer than three children per parent
                    # cannot amortise the snapshot
                    for c in children:
                        c.cost = service.makespan(c.scheduling, c.matching)
                    continue
                state = service.prepare(par.scheduling, par.matching)
                parent_pos = state.pos_of
                for c in children:
                    f = _first_divergence(par, c, parent_pos)
                    c.cost = service.evaluate_delta(
                        c.scheduling, c.matching, f, state
                    )

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
            nxt_parents: list[Optional[Chromosome]] = []
            if cfg.elite_count:
                for c in sorted(population, key=lambda c: c.cost)[
                    : cfg.elite_count
                ]:
                    nxt.append(c.copy())
                    nxt_parents.append(None)  # cost survives the copy

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
                # each child keeps a prefix of its "own" parent's strings
                nxt.append(ca)
                nxt_parents.append(pa)
                if len(nxt) < cfg.population_size:
                    nxt.append(cb)
                    nxt_parents.append(pb)

            population = nxt
            evaluate(population, nxt_parents)
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
