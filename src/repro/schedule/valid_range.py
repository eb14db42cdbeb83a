"""Valid moving range of a subtask within a string (paper §4.2, §4.5).

The *valid range* of subtask ``t`` is the set of string positions where
``t`` can be placed without violating any data dependency: strictly after
its last-placed predecessor and no later than its first-placed successor.
Because moving ``t`` inside that window leaves the relative order of all
other subtasks untouched, a valid string stays valid under any such move —
this closure property is what both the SE allocation step and the GA
scheduling mutation rely on, and it is enforced by property tests.

Indexing convention: positions refer to the string *with the subtask
removed* (``0..k-2`` hold the other subtasks; an insertion index ``i``
places the subtask at absolute position ``i`` of the resulting string).
This matches :meth:`repro.schedule.encoding.ScheduleString.move`.

:func:`place_by_probes` is the SE allocation step for one subtask built
on these windows: the specification of every backend's ``place``.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString


def valid_insertion_range(
    string: ScheduleString, graph: TaskGraph, task: int
) -> Tuple[int, int]:
    """Inclusive ``(lo, hi)`` insertion-index bounds for *task*.

    ``lo`` is one past the last predecessor's position in the
    string-without-*task*; ``hi`` is the first successor's position in
    the string-without-*task* (inserting there pushes the successor
    right).  With no predecessors ``lo = 0``; with no successors
    ``hi = k-1``.

    For any valid string, ``lo <= hi`` always holds and the current
    position of *task* lies within the returned window.
    """
    pos_of = string.positions
    own = pos_of[task]

    lo = 0
    for pred in graph.predecessors(task):
        pos = pos_of[pred]
        # remove-shift: predecessors sit left of `task` in a valid string
        if pos > own:
            pos -= 1
        if pos + 1 > lo:
            lo = pos + 1

    hi = len(pos_of) - 1
    for succ in graph.successors(task):
        pos = pos_of[succ]
        if pos > own:
            pos -= 1
        if pos < hi:
            hi = pos

    return lo, hi


def range_width(string: ScheduleString, graph: TaskGraph, task: int) -> int:
    """Number of valid insertion indices for *task* (always >= 1)."""
    lo, hi = valid_insertion_range(string, graph, task)
    return hi - lo + 1


def assert_in_valid_range(
    string: ScheduleString, graph: TaskGraph, task: int, insertion_index: int
) -> None:
    """Raise ``ValueError`` if the proposed move would break a dependency."""
    lo, hi = valid_insertion_range(string, graph, task)
    if not lo <= insertion_index <= hi:
        raise ValueError(
            f"insertion index {insertion_index} for subtask {task} outside "
            f"its valid range [{lo}, {hi}]"
        )


def machine_slot_indices(
    string: ScheduleString,
    graph: TaskGraph,
    task: int,
    machine: int,
) -> list[int]:
    """Representative insertion indices for placing *task* on *machine*.

    Within the valid window, two insertion indices produce the same
    schedule whenever the set of same-machine subtasks to the left is the
    same — the simulator only looks at per-machine order.  This helper
    returns one representative per equivalence class: the window start,
    plus the index just after each subtask of *machine* inside the window.

    Using these instead of every index in ``[lo, hi]`` is the slot
    optimisation discussed in DESIGN.md (ABL-SLOT); the result set of
    reachable schedules is identical.
    """
    lo, hi = valid_insertion_range(string, graph, task)
    own = string.position_of(task)
    machines = string.machines
    order = string.order

    slots = [lo]
    # Walk absolute positions of the string-without-task covering [lo, hi).
    for idx in range(lo, hi):
        abs_pos = idx if idx < own else idx + 1
        other = order[abs_pos]
        if machines[other] == machine:
            slots.append(idx + 1)
    return slots


def place_by_probes(
    backend: Any,
    state: Any,
    order: Sequence[int],
    machine_of: Sequence[int],
    task: int,
    candidates: Sequence[int],
    all_positions: bool = False,
) -> Tuple[float, int, int, int]:
    """The best re-placement of *task* (paper §4.5), one probe at a time.

    For each machine of *candidates*, in the given order, and each of its
    insertion indices (:func:`machine_slot_indices`, or every index of
    :func:`valid_insertion_range` with *all_positions*), the string
    *order* / *machine_of* with *task* relocated there is scored by one
    ``backend.evaluate_delta`` against *state* (prepared from that
    string): from the first changed position, with ``region_end`` at the
    last, and with the best cost so far as cutoff.  A probe wins only
    when strictly better, so the first of equal placements stands.

    Returns ``(best_cost, best_index, best_machine, probes)``; with no
    probe (no candidate) that is ``(inf, position, machine, 0)`` of the
    current placement.  This loop is the specification of the backends'
    ``place`` (the compiled walker's is ``==`` on all four values), and
    the ``place`` itself of the objective and scenario wrappers, which
    see every probe through their own ``evaluate_delta``.

    Raises :class:`~repro.schedule.simulator.InvalidScheduleError` when
    *task* has no valid insertion index, which happens only when the
    string breaks a dependency of *backend*'s graph (a state prepared
    for another DAG of the same shape).
    """
    graph = backend.workload.graph
    string = ScheduleString(order, machine_of, backend.workload.num_machines)
    lo, hi = valid_insertion_range(string, graph, task)
    if lo > hi:
        from repro.schedule.simulator import InvalidScheduleError

        raise InvalidScheduleError(
            f"subtask {task} has no valid insertion index in the state's "
            "string"
        )
    order = string.order
    machines = string.machines
    orig_pos = string.position_of(task)
    orig_machine = string.machine_of(task)
    best_cost = float("inf")
    best_index = orig_pos
    best_machine = orig_machine
    probes = 0
    for machine in candidates:
        if all_positions:
            indices = range(lo, hi + 1)
        else:
            indices = machine_slot_indices(string, graph, task, machine)
        for idx in indices:
            string.relocate(task, idx, machine)
            if orig_pos < idx:
                first, last = orig_pos, idx
            else:
                first, last = idx, orig_pos
            cost = backend.evaluate_delta(
                order, machines, first, state, best_cost, last
            )
            probes += 1
            if cost < best_cost:
                best_cost = cost
                best_index = idx
                best_machine = machine
            string.relocate(task, orig_pos, orig_machine)
    return best_cost, best_index, best_machine, probes
