"""The pairwise-move neighborhood over schedule strings, and tabu's pick.

Simulated annealing and tabu search explore the same two validity-
preserving move kinds the rest of the library already uses (see
:mod:`repro.schedule.operations`): relocating a subtask to a uniformly
random position inside its valid moving range (**reorder**, the paper's
§4.2 perturbation) and reassigning a subtask to a uniformly random
machine (**reassign**, the GA's matching mutation).  This module
reifies a move as data — so an engine can score, revert, or tabu-list a
move without committing it — and knows the span of string positions
each move rewrites (:func:`changed_region`), which is what routes
proposals through the backends' incremental ``evaluate_delta`` tier.

:func:`random_move` is the specification of the backends'
``draw_moves``, which tabu's step and SA's proposal call: the
compiled walker draws a whole neighborhood in one call, with the same
draws from the generator's bit generator.

Tabu's selection rule over one neighborhood (:func:`select_move`) and
its delta loop (:func:`score_by_deltas`) live here too, next to SE's
:func:`~repro.schedule.valid_range.place_by_probes`: they specify the
backends' ``score_moves``, which every backend imports at module level.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString
from repro.schedule.valid_range import valid_insertion_range

#: Move kinds: relocate in the string vs reassign the machine.
REORDER = "reorder"
REASSIGN = "reassign"


class Move(NamedTuple):
    """One atomic neighborhood move, as data.

    ``target`` is an insertion index (:meth:`ScheduleString.move`
    semantics) for ``"reorder"`` moves and a machine id for
    ``"reassign"`` moves.  A plain tuple underneath, so the compiled
    walker's ``score_moves`` reads each move by index.
    """

    kind: str
    task: int
    target: int


def random_move(
    string: ScheduleString,
    graph: TaskGraph,
    rng: np.random.Generator,
    reassign_prob: float = 0.5,
    avoid_noop: bool = False,
) -> Move:
    """Draw one uniformly random valid move against *string*.

    With probability *reassign_prob* the move reassigns a random
    subtask to a random machine (the new machine may equal the old one,
    matching :func:`repro.schedule.operations.random_reassign`);
    otherwise it relocates a random subtask to a uniform position in
    its valid moving range (matching :func:`~repro.schedule.operations.
    random_valid_move`).

    With *avoid_noop* the draw excludes identity moves (reassigning to
    the current machine, relocating to the current position), drawing
    uniformly from the remaining targets.  Tabu search needs this: a
    no-op candidate costs exactly the incumbent and would outrank every
    worsening move at a local optimum, neutralising the escape
    mechanism.  When the chosen kind has no non-identity target (a
    single machine / a single-position moving range) the other kind is
    tried; a subtask with neither (degenerate one-task-one-machine
    instance) yields the identity reorder as a last resort.
    """
    l = string.num_machines
    task = int(rng.integers(len(string.order)))
    want_reassign = rng.random() < reassign_prob
    if not avoid_noop:
        if want_reassign:
            return Move(REASSIGN, task, int(rng.integers(l)))
        lo, hi = valid_insertion_range(string, graph, task)
        return Move(REORDER, task, int(rng.integers(lo, hi + 1)))
    if not want_reassign or l == 1:
        lo, hi = valid_insertion_range(string, graph, task)
        if hi > lo:
            # uniform over [lo, hi] minus the current position
            pos = string.positions[task]
            idx = int(rng.integers(lo, hi))
            return Move(REORDER, task, idx + 1 if idx >= pos else idx)
        if l == 1:
            return Move(REORDER, task, string.positions[task])
    # uniform over the l-1 other machines via draw-and-shift
    m = int(rng.integers(l - 1))
    return Move(REASSIGN, task, m + 1 if m >= string.machines[task] else m)


def apply_move(string: ScheduleString, move: Move) -> None:
    """Apply *move* to *string* in place."""
    if move.kind == REASSIGN:
        string.assign(move.task, move.target)
    elif move.kind == REORDER:
        string.move(move.task, move.target)
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")


def inverse_move(string: ScheduleString, move: Move) -> Move:
    """The move undoing *move* — computed **before** applying it."""
    if move.kind == REASSIGN:
        return Move(REASSIGN, move.task, string.machine_of(move.task))
    if move.kind == REORDER:
        return Move(REORDER, move.task, string.position_of(move.task))
    raise ValueError(f"unknown move kind {move.kind!r}")


def changed_region(string: ScheduleString, move: Move) -> tuple[int, int]:
    """The span ``(first, last)`` of string positions *move* rewrites.

    Computed **before** applying the move.  A reassignment keeps the
    order and changes only the task's own segment, ``(pos, pos)``; a
    relocation shifts every segment between the old position and the
    insertion index, ``(min(pos, target), max(pos, target))``.  Every
    position past ``last`` keeps its subtask and machine, so *first*
    and *last* are the ``first_changed`` and ``region_end`` arguments
    of the backends' ``evaluate_delta``.
    """
    pos = string.position_of(move.task)
    if move.kind == REASSIGN:
        return pos, pos
    if move.kind == REORDER:
        target = move.target
        return (pos, target) if pos <= target else (target, pos)
    raise ValueError(f"unknown move kind {move.kind!r}")


def applied_copy(string: ScheduleString, move: Move) -> ScheduleString:
    """A copy of *string* with *move* applied (the original untouched)."""
    out = string.copy()
    apply_move(out, move)
    return out


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
            from repro.schedule.simulator import InvalidScheduleError

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
    ``backend.evaluate_delta`` from its :func:`changed_region` under the
    cutoff :func:`select_move` hands it, and undone.  Returns ``(cost,
    index, admissible)``.

    This loop is the specification of the backends' ``score_moves``
    (the compiled walker's is ``==`` on all three values), and the
    ``score_moves`` itself of the Python walker and of the objective
    wrapper with no Pareto tracker, which sees every candidate through
    its own ``evaluate_delta``.  :func:`check_moves` vets the
    neighborhood first.
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
