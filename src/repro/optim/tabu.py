"""Tabu search over the pairwise-move neighborhood.

Each iteration samples a whole candidate neighborhood — ``neighborhood_
size`` random valid *identity-free* moves against the current string
(no-op candidates would tie the incumbent and outrank every worsening
move at a local optimum, see :func:`~repro.optim.neighborhood.
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

The moves are drawn in Python, so the random stream is fixed; the
whole neighborhood is then scored and selected in one
:meth:`~repro.optim.evaluation.EvaluationService.score_moves` call
against a ``prepare`` snapshot of the incumbent, which the compiled
walker runs in C.  :func:`score_by_deltas` specifies it: each candidate
is one delta over its move's :func:`~repro.optim.neighborhood.
changed_region`, cut off at the smallest bound that still decides its
part in the rule above (see :func:`select_move`), so a losing candidate
stops walking as soon as it is known to lose; it counts one evaluation
per candidate.  Services whose
:attr:`~repro.optim.evaluation.EvaluationService.prefers_delta` is
False (a scenario objective, an attached Pareto tracker) score the
whole neighborhood in one
:meth:`~repro.optim.evaluation.EvaluationService.
batch_string_makespans` call instead.  Both routes commit the same
move at the same exact cost, with the same trace and evaluation count.

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
from typing import Any, Callable, Optional, Sequence

from repro.model.graph import TaskGraph
from repro.model.workload import Workload
from repro.optim.evaluation import EvaluationFields, EvaluationService
from repro.optim.exchange import IncumbentSource
from repro.optim.loop import SearchLoop, StepOutcome
from repro.optim.neighborhood import (
    REASSIGN,
    REORDER,
    Move,
    applied_copy,
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
from repro.schedule.simulator import InvalidScheduleError
from repro.schedule.valid_range import valid_insertion_range
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


def select_move(
    tabu: Sequence[bool],
    best_known: float,
    score: Callable[[int, float], float],
) -> tuple[float, int, int]:
    """Tabu's selection rule over one neighborhood.

    *tabu* flags each candidate; ``score(i, cutoff)`` returns candidate
    *i*'s exact cost, or any value ``>= cutoff`` (a pruned delta's
    ``inf``) once that cost is known to reach *cutoff*.  Each candidate
    is scored under the smallest cutoff that still decides its part in
    the rule:

    * a non-tabu candidate only matters if it beats the best admissible
      cost so far (``inf`` while there is none);
    * a tabu candidate must be exact below *best_known*, so that the
      aspiration check and the admissible count stay exact;
    * when every candidate is tabu, the fallback needs the overall best
      too: ``max(best_known, fallback so far)``.

    A value at or above its cutoff never wins a strict ``<``, so the
    outcome equals the rule applied to exact costs.  Returns ``(cost,
    index, admissible)`` of the committed candidate.
    """
    inf = float("inf")
    all_tabu = all(tabu)
    chosen = None  # (cost, index) of the best admissible move
    fallback = None  # best overall, in case everything is tabu
    admissible = 0
    for i, is_tabu in enumerate(tabu):
        if not is_tabu:
            cutoff = inf if chosen is None else chosen[0]
        elif not all_tabu:
            cutoff = best_known
        elif fallback is None:
            cutoff = inf
        else:
            cutoff = max(best_known, fallback[0])
        cost = score(i, cutoff)
        if fallback is None or cost < fallback[0]:
            fallback = (cost, i)
        if is_tabu and not cost < best_known:  # no aspiration
            continue
        admissible += 1
        if chosen is None or cost < chosen[0]:
            chosen = (cost, i)
    if chosen is None:
        chosen = fallback
    return chosen[0], chosen[1], admissible


def check_moves(
    string: ScheduleString,
    graph: TaskGraph,
    moves: Sequence[Move],
    tabu: Sequence[bool],
) -> None:
    """Raise unless *moves* / *tabu* form a neighborhood of *string*.

    ``ValueError`` for no moves, a flag count other than the move
    count, an unknown move kind, or a task or machine out of range;
    ``IndexError`` for an insertion index out of range (as
    :meth:`~repro.schedule.encoding.ScheduleString.move`);
    :class:`~repro.schedule.simulator.InvalidScheduleError` for one
    outside the task's valid window, which would break a dependency.
    """
    if not moves:
        raise ValueError("moves is empty")
    if len(tabu) != len(moves):
        raise ValueError(f"tabu has {len(tabu)} flags for {len(moves)} moves")
    k, l = string.num_tasks, string.num_machines
    for kind, task, target in moves:
        if kind != REORDER and kind != REASSIGN:
            raise ValueError(f"unknown move kind {kind!r}")
        if not 0 <= task < k:
            raise ValueError(f"task = {task} is out of range [0, {k})")
        if kind == REASSIGN:
            if not 0 <= target < l:
                raise ValueError(
                    f"machine = {target} is out of range [0, {l})"
                )
            continue
        if not 0 <= target < k:
            raise IndexError(
                f"insertion index = {target} is out of range [0, {k})"
            )
        lo, hi = valid_insertion_range(string, graph, task)
        if not lo <= target <= hi:
            raise InvalidScheduleError(
                f"insertion index {target} for subtask {task} outside its "
                f"valid range [{lo}, {hi}]"
            )


def score_by_deltas(
    backend: Any,
    state: Any,
    order: Sequence[int],
    machine_of: Sequence[int],
    moves: Sequence[Move],
    tabu: Sequence[bool],
    best_known: float,
) -> tuple[float, int, int]:
    """:func:`select_move` over *moves*, one delta per candidate.

    Each candidate is applied to a copy of *order* / *machine_of* (the
    string *state* was prepared from), scored by one
    ``backend.evaluate_delta`` from its :func:`~repro.optim.
    neighborhood.changed_region` under the cutoff :func:`select_move`
    hands it, and undone.  Returns ``(cost, index, admissible)``.

    This loop is the specification of the backends' ``score_moves``
    (the compiled walker's is ``==`` on all three values), and the
    ``score_moves`` itself of the Python walker and of the objective
    and scenario wrappers, which see every candidate through their own
    ``evaluate_delta``.  :func:`check_moves` vets the neighborhood
    first.
    """
    string = ScheduleString(order, machine_of, backend.workload.num_machines)
    check_moves(string, backend.workload.graph, moves, tabu)
    order, machines = string.order, string.machines

    def score(i: int, cutoff: float) -> float:
        move = moves[i]
        first, last = changed_region(string, move)
        undo = inverse_move(string, move)
        apply_move(string, move)
        cost = backend.evaluate_delta(
            order, machines, first, state, cutoff, last
        )
        apply_move(string, undo)
        return cost

    return select_move(tabu, best_known, score)


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
        by_delta = service.prefers_delta
        state = None  # the incumbent's delta snapshot; None: batch route

        def rescore(incumbent: ScheduleString) -> float:
            """Score a fresh incumbent: one counted evaluation."""
            nonlocal state
            if not by_delta:
                return service.string_makespan(incumbent)
            state = service.prepare(incumbent.order, incumbent.machines)
            return state.makespan

        current_cost = rescore(string)

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
                    current_cost = rescore(string)
            # no-op candidates would cost exactly the incumbent and
            # outrank every worsening move at a local optimum, so the
            # neighborhood samples identity-free moves only
            moves = [
                random_move(
                    string, graph, rng, cfg.reassign_prob, avoid_noop=True
                )
                for _ in range(cfg.neighborhood_size)
            ]
            tabu = [tabu_until.get(mv.task, -1) >= iteration for mv in moves]
            best = loop.tracker.best_cost
            if by_delta:
                cost, i, admissible = service.score_moves(
                    state, string.order, string.machines, moves, tabu, best
                )
            else:
                costs = service.batch_string_makespans(
                    [applied_copy(string, mv) for mv in moves]
                )
                cost, i, admissible = select_move(
                    tabu, best, lambda j, _cutoff: costs[j]
                )
            string = applied_copy(string, moves[i])
            if by_delta:
                # re-anchor on the committed candidate; score_moves
                # counted its evaluation, so bypass the counter
                state = service.backend.prepare(
                    string.order, string.machines
                )
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
