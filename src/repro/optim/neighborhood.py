"""The pairwise-move neighborhood over schedule strings.

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
"""

from __future__ import annotations

from typing import NamedTuple

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
