"""The Simulated Evolution engine (paper §3-§4).

One SE iteration = **Evaluation** (goodness ``g_i = O_i/C_i``) →
**Selection** (coin flip against ``g_i + B``) → **Allocation**
(constructive greedy re-placement of the selected subtasks).  The loop
repeats until an iteration cap, a wall-clock limit, or an optional
no-improvement stall is hit.

Typical use (executable — CI runs it under ``--doctest-modules``):

    >>> from repro import SEConfig, SimulatedEvolution, workloads
    >>> w = workloads.small_workload(seed=1)
    >>> result = SimulatedEvolution(SEConfig(seed=1, max_iterations=20)).run(w)
    >>> result.iterations
    20
    >>> result.best_makespan == min(result.trace.best_makespans())
    True

Paper-scale runs use ``workloads.figure5_workload(seed=...)`` (100 tasks,
20 machines) with a few hundred iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import Allocator
from repro.core.config import SEConfig
from repro.core.goodness import GoodnessEvaluator
from repro.core.initial import initial_solution
from repro.core.observers import Observer
from repro.core.selection import bias_for_target_fraction, select_subtasks
from repro.model.workload import Workload
from repro.optim import IncumbentSource, SearchLoop, SearchResult, StepOutcome
from repro.schedule.encoding import ScheduleString
from repro.utils.rng import as_rng
from repro.utils.timers import Stopwatch


@dataclass(frozen=True)
class SEResult(SearchResult):
    """Outcome of one SE run: the shared
    :class:`~repro.optim.result.SearchResult` fields (its ``trace``
    feeds Figures 3-7) plus the resolved SE parameters.

    Attributes
    ----------
    bias, y_candidates:
        The resolved parameter values actually used.  With the
        adaptive-bias extension enabled, ``bias`` is the value used in
        the *last* iteration (it changes every iteration).
    """

    bias: float
    y_candidates: int


class SimulatedEvolution:
    """The SE metaheuristic configured by an :class:`SEConfig`."""

    def __init__(self, config: Optional[SEConfig] = None):
        self.config = config or SEConfig()

    def run(
        self,
        workload: Workload,
        observers: Sequence[Observer] = (),
        initial: Optional[ScheduleString] = None,
        exchange: Optional[IncumbentSource] = None,
    ) -> SEResult:
        """Optimise *workload*; see class docstring.

        Parameters
        ----------
        workload:
            The MSHC problem instance.
        observers:
            Callables invoked each iteration with ``(record, string)``.
        initial:
            Optional starting string (copied); defaults to the paper's
            randomised initial solution (§4.2).
        exchange:
            Optional portfolio incumbent source (see
            :mod:`repro.optim.exchange`).  A delivered incumbent
            replaces the working string before the evaluation phase, so
            goodness/selection run against it (one counted evaluation
            to re-anchor); ``None`` leaves the run bit-identical to a
            solo run.
        """
        cfg = self.config
        rng = as_rng(cfg.seed)
        graph = workload.graph
        # The backend is the objective: "nic" makes every probe, commit
        # and best-makespan account for NIC serialisation; a non-default
        # platform/objective makes them cost-aware.
        service = cfg.evaluation_service(workload)
        # Goodness and the allocator's machine ranking read the workload
        # the backend actually scores — the platform's speed-scaled
        # matrix (the original object on "uniform", so nothing moves).
        eff = service.effective_workload
        goodness = GoodnessEvaluator(service.raw_backend)
        bias = cfg.resolved_bias(graph.num_tasks)
        y = cfg.resolved_y(workload.num_machines)
        allocator = Allocator(
            eff,
            service.backend,
            y_candidates=y,
            slots=cfg.allocation_slots,
        )

        if initial is None:
            string = initial_solution(
                service.backend, rng, shuffle_range=cfg.initial_shuffle_range
            )
        else:
            string = initial.copy()

        watch = Stopwatch()
        # prepare() both scores the initial string (counted, exactly as
        # the historical full evaluation was) and yields its schedule;
        # under a weighted objective state.makespan is the scalar the
        # loop compares while the decoded schedule stays real.
        state0 = service.prepare(string.order, string.machines)
        current = state0.as_schedule()
        current_cost = state0.makespan

        def step(iteration: int) -> StepOutcome[ScheduleString]:
            nonlocal bias, current, current_cost, string
            if exchange is not None:
                inc = exchange.incoming(iteration, current_cost)
                if inc is not None:
                    # replace-if-better: evaluation/selection/allocation
                    # run against the foreign incumbent this iteration
                    string = ScheduleString(
                        inc.order, inc.machines, workload.num_machines
                    )
                    st = service.prepare(string.order, string.machines)
                    current = st.as_schedule()
                    current_cost = st.makespan
            # Evaluation (paper §4.3): Ci = finish times of current string.
            g = goodness.goodness(current.finish)

            # Selection (paper §4.4); adaptive-bias extension re-solves
            # for B each iteration to hold the selection fraction steady.
            if cfg.adaptive_target is not None:
                bias = bias_for_target_fraction(g, cfg.adaptive_target)
            selected = select_subtasks(g, graph, bias, rng)

            # Allocation (paper §4.5): greedy constructive re-placement.
            # The allocator's final prepare() already evaluated the new
            # string in full, so its schedule is reused directly.
            alloc = allocator.allocate(string, selected)
            service.count(alloc.trials)
            current = alloc.schedule
            current_cost = alloc.makespan
            return StepOutcome(
                # the backend's scalar: the makespan, or the weighted
                # objective when one is configured
                cost=alloc.makespan,
                candidate=string,
                num_selected=len(selected),
                mean_goodness=float(np.mean(g)),
            )

        loop: SearchLoop[ScheduleString] = SearchLoop(
            stop=cfg.stop_policy(),
            observers=observers,
            evaluations=lambda: service.evaluations,
        )
        out = loop.run(current_cost, string, step, watch=watch)

        return SEResult.from_loop(out, service, bias=bias, y_candidates=y)


def run_se(
    workload: Workload,
    config: Optional[SEConfig] = None,
    observers: Sequence[Observer] = (),
    initial: Optional[ScheduleString] = None,
    exchange: Optional[IncumbentSource] = None,
) -> SEResult:
    """Functional convenience wrapper around :class:`SimulatedEvolution`."""
    return SimulatedEvolution(config).run(
        workload, observers=observers, initial=initial, exchange=exchange
    )
