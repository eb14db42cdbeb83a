"""Simulated annealing over the pairwise-move neighborhood.

A classic single-solution metaheuristic riding the shared optim core:
each iteration proposes one uniformly random valid move
(:func:`~repro.optim.neighborhood.random_move`), scores it through the
:class:`~repro.optim.evaluation.EvaluationService`'s incremental
``evaluate_delta`` tier (only the string suffix from the move's first
changed position re-evaluates, and the walk may stop once it is past
the move's changed region and has rejoined the incumbent's state), and
accepts it if it does not worsen the schedule — or, when it does, with
the Metropolis probability ``exp(-delta / T)``.  The temperature
follows a **geometric cooling schedule**: it starts at ``initial_temp``
(auto-calibrated to 10% of the initial makespan by default), holds for
``steps_per_temp`` proposals, then multiplies by ``cooling``, never
dropping below ``min_temp_factor`` times the start value (so late
iterations keep a whisper of uphill mobility instead of freezing into
pure hill climbing).

Everything around that acceptance rule — stopping, best tracking,
trace records, observers — is the shared
:class:`~repro.optim.loop.SearchLoop`, which is the point: the whole
engine is the ``step`` closure below.

>>> from repro.optim import SAConfig, run_sa
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> res = run_sa(w, SAConfig(seed=1, max_iterations=200))
>>> res.iterations
200
>>> res.best_makespan == min(res.trace.best_makespans())
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.optim.evaluation import EvaluationFields, EvaluationService
from repro.optim.exchange import IncumbentSource
from repro.optim.loop import SearchLoop, StepOutcome
from repro.optim.neighborhood import (
    apply_move,
    changed_region,
    inverse_move,
    random_move,
)
from repro.optim.observers import Observer
from repro.optim.result import SearchResult
from repro.optim.stop import IterationLimits
from repro.schedule.encoding import ScheduleString
from repro.schedule.operations import random_valid_string
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timers import Stopwatch


@dataclass
class SAConfig(EvaluationFields, IterationLimits):
    """Parameters of one :class:`SimulatedAnnealing` run.

    Attributes
    ----------
    initial_temp:
        Starting temperature ``T0``; ``None`` auto-calibrates to 10% of
        the initial solution's makespan (a move worsening the schedule
        by 10% then starts with acceptance probability ``1/e``).
    cooling:
        Geometric factor applied after every ``steps_per_temp``
        proposals (``T <- cooling * T``); must lie in (0, 1].
    steps_per_temp:
        Proposals evaluated per temperature level.
    min_temp_factor:
        Temperature floor as a fraction of ``T0``.
    reassign_prob:
        Probability that a proposal reassigns a machine rather than
        relocating a subtask in the string.
    max_iterations:
        Total proposal cap — one iteration = one proposed move (so
        trace records are per proposal, like random search's
        per-sample records).
    record_every:
        Trace thinning stride: append an
        :class:`~repro.analysis.trace.IterationRecord` (and notify
        observers) only every Nth proposal — plus every proposal that
        improves the global best, so best-so-far curves stay exact.
        The default 1 records everything; wall-clock-budget harnesses
        (``repro sweep --budget``, the race islands) use coarser strides
        because a multi-minute budget means millions of ~25 µs
        proposals, and a per-proposal trace would grow unbounded.
    time_limit:
        Optional wall-clock cap in seconds.
    stall_iterations:
        Stop after this many consecutive proposals without a new global
        best (``None`` disables).
    seed:
        Seed / generator for all stochastic choices.

    The evaluation settings (``network``, ``platform``, ``objective``,
    ``scenarios``, ``distribution``, ``scenario_seed``) are inherited
    from :class:`~repro.optim.evaluation.EvaluationFields`.
    """

    initial_temp: Optional[float] = None
    cooling: float = 0.95
    steps_per_temp: int = 50
    min_temp_factor: float = 1e-3
    reassign_prob: float = 0.5
    max_iterations: int = 5000
    record_every: int = 1
    time_limit: Optional[float] = None
    stall_iterations: Optional[int] = None
    seed: RandomSource = None

    def __post_init__(self) -> None:
        if self.initial_temp is not None and self.initial_temp <= 0:
            raise ValueError(
                f"initial_temp must be > 0, got {self.initial_temp}"
            )
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError(f"cooling must be in (0, 1], got {self.cooling}")
        if self.steps_per_temp < 1:
            raise ValueError(
                f"steps_per_temp must be >= 1, got {self.steps_per_temp}"
            )
        if not 0.0 < self.min_temp_factor <= 1.0:
            raise ValueError(
                f"min_temp_factor must be in (0, 1], got {self.min_temp_factor}"
            )
        if not 0.0 <= self.reassign_prob <= 1.0:
            raise ValueError(
                f"reassign_prob must be in [0, 1], got {self.reassign_prob}"
            )
        if self.record_every < 1:
            raise ValueError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        super().__post_init__()
        self.stop_policy()  # validates the iteration/time/stall bounds


class SimulatedAnnealing:
    """Geometric-cooling annealing configured by an :class:`SAConfig`."""

    def __init__(self, config: Optional[SAConfig] = None):
        self.config = config or SAConfig()

    def run(
        self,
        workload: Workload,
        observers: Sequence[Observer] = (),
        initial: Optional[ScheduleString] = None,
        service: Optional[EvaluationService] = None,
        exchange: Optional[IncumbentSource] = None,
    ) -> SearchResult:
        """Optimise *workload*; see module docstring.

        Parameters
        ----------
        workload:
            The MSHC problem instance.
        observers:
            Callables invoked each proposal with ``(record, string)``.
        initial:
            Optional starting string (copied); defaults to a uniformly
            random valid string.
        service:
            Optional pre-built :class:`EvaluationService` (must wrap
            *workload*).  The online service passes one constructed
            against non-idle machine state, so annealing improves the
            *residual* schedule; omitted, the engine builds its own from
            ``config.network`` exactly as before.
        exchange:
            Optional portfolio incumbent source (see
            :mod:`repro.optim.exchange`).  A delivered incumbent
            replaces the working solution (replace-if-better seeding);
            ``None`` leaves the run bit-identical to a solo run.
        """
        cfg = self.config
        rng = as_rng(cfg.seed)
        graph = workload.graph
        if service is None:
            service = cfg.evaluation_service(workload)
        watch = Stopwatch()

        if initial is None:
            string = random_valid_string(graph, workload.num_machines, rng)
        else:
            string = initial.copy()
        # prepare() both scores the initial string and anchors the
        # delta state every proposal is diffed against
        state = service.prepare(string.order, string.machines)
        current_cost = state.makespan

        t0 = cfg.initial_temp
        if t0 is None:
            t0 = max(0.1 * current_cost, 1e-9)
        t_floor = t0 * cfg.min_temp_factor

        def step(iteration: int) -> StepOutcome[ScheduleString]:
            nonlocal string, state, current_cost
            if exchange is not None:
                inc = exchange.incoming(iteration, current_cost)
                if inc is not None:
                    # replace-if-better: adopt the foreign incumbent and
                    # re-anchor the delta state on it (one counted
                    # evaluation, like any accepted move)
                    string = ScheduleString(
                        inc.order, inc.machines, workload.num_machines
                    )
                    state = service.prepare(string.order, string.machines)
                    current_cost = state.makespan
            level = (iteration - 1) // cfg.steps_per_temp
            temp = max(t_floor, t0 * cfg.cooling**level)

            move = random_move(string, graph, rng, cfg.reassign_prob)
            first, last = changed_region(string, move)
            undo = inverse_move(string, move)
            apply_move(string, move)
            cost = service.evaluate_delta(
                string.order, string.machines, first, state, region_end=last
            )
            delta = cost - current_cost
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                current_cost = cost
                # re-anchor the delta state on the accepted solution
                state = service.prepare(string.order, string.machines)
                accepted = 1
            else:
                apply_move(string, undo)
                accepted = 0
            return StepOutcome(
                cost=current_cost,
                candidate=string,
                num_selected=accepted,
                # thin the trace on coarse strides, but never drop a
                # new global best (keeps best-so-far curves exact)
                record=(
                    iteration % cfg.record_every == 0
                    or current_cost < loop.tracker.best_cost
                ),
            )

        loop: SearchLoop[ScheduleString] = SearchLoop(
            stop=cfg.stop_policy(),
            observers=observers,
            evaluations=lambda: service.evaluations,
        )
        out = loop.run(current_cost, string, step, watch=watch)

        return SearchResult.from_loop(out, service)


def run_sa(
    workload: Workload,
    config: Optional[SAConfig] = None,
    observers: Sequence[Observer] = (),
    initial: Optional[ScheduleString] = None,
    service: Optional[EvaluationService] = None,
    exchange: Optional[IncumbentSource] = None,
) -> SearchResult:
    """Functional convenience wrapper around :class:`SimulatedAnnealing`."""
    return SimulatedAnnealing(config).run(
        workload,
        observers=observers,
        initial=initial,
        service=service,
        exchange=exchange,
    )
