"""Tabu search over the pairwise-move neighborhood.

Each iteration samples a whole candidate neighborhood — ``neighborhood_
size`` random valid *identity-free* moves against the current string
(no-op candidates would tie the incumbent and outrank every worsening
move at a local optimum, see :func:`~repro.schedule.neighborhood.
random_move`) — and scores every candidate.  The best **admissible**
candidate is then committed even if it worsens the schedule (that is
what lets tabu search climb out of local optima):

* **move-attribute tabu list** — committing a move makes its subtask
  tabu for ``tenure`` iterations: no candidate relocating or
  reassigning that subtask is admissible while the tenure holds (this
  blocks the trivial undo move, and near-undos, without storing whole
  solutions);
* **aspiration** — a tabu candidate is admissible anyway when it beats
  the best makespan seen in the whole run (never refuse a new global
  best);
* **fallback** — if every candidate is tabu and none aspirates, the
  overall best candidate is committed regardless (the search must not
  deadlock).

The neighborhood is drawn in one uncounted
:meth:`~repro.optim.evaluation.EvaluationService.draw_moves` call,
which the compiled walker runs in C with the draws of
:func:`~repro.schedule.neighborhood.random_move`, so the random stream
is the same on both walker tiers; it is then scored and selected in one
:meth:`~repro.optim.evaluation.EvaluationService.score_moves` call
against a snapshot of the incumbent, counting one evaluation per
candidate.  The backend decides how:
:func:`~repro.schedule.neighborhood.score_by_deltas` specifies one
delta per candidate, cut off at the smallest bound that still decides
its part in the rule above, which the compiled walker runs in C; the
wrappers of :mod:`repro.optim.objective` score every candidate in full
where a Pareto tracker must see each point, or a risk statistic is one
scenario-major sweep.

Stopping, best tracking, trace records and observers are the shared
:class:`~repro.optim.loop.SearchLoop` — the engine itself is the
``step`` closure plus the admissibility rule.

>>> from repro.optim import TabuConfig, run_tabu
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> res = run_tabu(w, TabuConfig(seed=1, max_iterations=30))
>>> res.iterations
30
>>> res.best_makespan == min(res.trace.best_makespans())
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.model.workload import Workload
from repro.optim.evaluation import EvaluationFields, EvaluationService
from repro.optim.exchange import IncumbentSource
from repro.optim.loop import SearchLoop, StepOutcome
from repro.optim.observers import Observer
from repro.optim.result import SearchResult
from repro.optim.stop import IterationLimits
from repro.schedule.encoding import ScheduleString
from repro.schedule.neighborhood import applied_copy
from repro.schedule.operations import random_valid_string
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timers import Stopwatch


@dataclass
class TabuConfig(EvaluationFields, IterationLimits):
    """Parameters of one :class:`TabuSearch` run.

    Attributes
    ----------
    neighborhood_size:
        Candidate moves sampled and scored per iteration.
    tenure:
        Iterations a committed move's subtask stays tabu.
    reassign_prob:
        Probability that a candidate move reassigns a machine rather
        than relocating a subtask in the string.
    max_iterations:
        Iteration cap — one iteration = one scored neighborhood plus
        one committed move.
    time_limit:
        Optional wall-clock cap in seconds.
    stall_iterations:
        Stop after this many consecutive iterations without a new
        global best (``None`` disables).
    seed:
        Seed / generator for all stochastic choices.

    The evaluation settings (``network``, ``platform``, ``objective``,
    ``scenarios``, ``distribution``, ``scenario_seed``) are inherited
    from :class:`~repro.optim.evaluation.EvaluationFields`.
    """

    neighborhood_size: int = 24
    tenure: int = 8
    reassign_prob: float = 0.5
    max_iterations: int = 300
    time_limit: Optional[float] = None
    stall_iterations: Optional[int] = None
    seed: RandomSource = None

    def __post_init__(self) -> None:
        if self.neighborhood_size < 1:
            raise ValueError(
                f"neighborhood_size must be >= 1, got {self.neighborhood_size}"
            )
        if self.tenure < 0:
            raise ValueError(f"tenure must be >= 0, got {self.tenure}")
        if not 0.0 <= self.reassign_prob <= 1.0:
            raise ValueError(
                f"reassign_prob must be in [0, 1], got {self.reassign_prob}"
            )
        super().__post_init__()
        self.stop_policy()  # validates the iteration/time/stall bounds


class TabuSearch:
    """Move-attribute tabu search configured by a :class:`TabuConfig`."""

    def __init__(self, config: Optional[TabuConfig] = None):
        self.config = config or TabuConfig()

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
            Callables invoked each iteration with ``(record, string)``.
        initial:
            Optional starting string (copied); defaults to a uniformly
            random valid string.
        service:
            Optional pre-built :class:`EvaluationService` (must wrap
            *workload*).  The online service passes one constructed
            against non-idle machine state, so the search optimises the
            *residual* schedule; omitted, the engine builds its own from
            ``config.network`` exactly as before.
        exchange:
            Optional portfolio incumbent source (see
            :mod:`repro.optim.exchange`).  A delivered incumbent
            replaces the working solution and is re-scored (one counted
            evaluation); the tabu tenures persist across the switch.
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

        def rescore(incumbent: ScheduleString) -> tuple[Any, float]:
            """A fresh incumbent's snapshot, which the next neighborhood
            is scored against, and its cost (one counted evaluation)."""
            state = service.snapshot(incumbent.order, incumbent.machines)
            return state, service.string_makespan(incumbent)

        state, current_cost = rescore(string)

        #: task id -> last iteration on which relocating it is tabu
        tabu_until: dict[int, int] = {}

        loop: SearchLoop[ScheduleString] = SearchLoop(
            stop=cfg.stop_policy(),
            observers=observers,
            evaluations=lambda: service.evaluations,
        )

        def step(iteration: int) -> StepOutcome[ScheduleString]:
            nonlocal string, state, current_cost
            if exchange is not None:
                inc = exchange.incoming(iteration, current_cost)
                if inc is not None:
                    # replace-if-better: the next neighborhood samples
                    # around the foreign incumbent instead
                    string = ScheduleString(
                        inc.order, inc.machines, workload.num_machines
                    )
                    state, current_cost = rescore(string)
            # no-op candidates would cost exactly the incumbent and
            # outrank every worsening move at a local optimum, so the
            # neighborhood samples identity-free moves only
            moves = service.draw_moves(
                string.order,
                string.machines,
                rng,
                cfg.neighborhood_size,
                cfg.reassign_prob,
                avoid_noop=True,
            )
            tabu = [tabu_until.get(mv.task, -1) >= iteration for mv in moves]
            cost, i, admissible = service.score_moves(
                state,
                string.order,
                string.machines,
                moves,
                tabu,
                loop.tracker.best_cost,
            )
            string = applied_copy(string, moves[i])
            # re-anchor on the committed candidate; score_moves counted
            # its evaluation
            state = service.snapshot(string.order, string.machines)
            current_cost = cost
            tabu_until[moves[i].task] = iteration + cfg.tenure
            return StepOutcome(
                cost=current_cost,
                candidate=string,
                num_selected=admissible,
            )

        out = loop.run(current_cost, string, step, watch=watch)

        return SearchResult.from_loop(out, service)


def run_tabu(
    workload: Workload,
    config: Optional[TabuConfig] = None,
    observers: Sequence[Observer] = (),
    initial: Optional[ScheduleString] = None,
    service: Optional[EvaluationService] = None,
    exchange: Optional[IncumbentSource] = None,
) -> SearchResult:
    """Functional convenience wrapper around :class:`TabuSearch`."""
    return TabuSearch(config).run(
        workload,
        observers=observers,
        initial=initial,
        service=service,
        exchange=exchange,
    )
