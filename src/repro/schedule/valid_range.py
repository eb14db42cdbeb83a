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
on these windows, and :func:`allocate_by_places`, one
:func:`place_by_probes` per selected subtask, is the whole allocation
phase of an SE iteration: the specification of every backend's
``allocate``.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

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
    return _slots_in_window(string, task, machine, lo, hi)


def _slots_in_window(
    string: ScheduleString, task: int, machine: int, lo: int, hi: int
) -> list[int]:
    """:func:`machine_slot_indices` within *task*'s window ``[lo, hi]``
    already derived from *string*."""
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
    current placement.  This loop is the specification of the compiled
    walker's probe loop inside ``allocate``, and the probe loop itself of
    the Python tier and of the objective and scenario wrappers, which
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
            indices = _slots_in_window(string, task, machine, lo, hi)
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


def candidate_rows(candidates: Any, num_tasks: int, num_machines: int) -> list:
    """The rows of SE's ``(k, Y)`` candidate table as lists of ints.

    Raises ``TypeError`` unless *candidates* exports a 2-D buffer of
    64-bit ints (a NumPy ``int64`` array, or a view of one), and
    ``ValueError`` for a row count other than *num_tasks* or an entry
    outside ``[0, num_machines)``, as the compiled ``allocate`` does.
    """
    try:
        view = memoryview(candidates)
    except TypeError:
        view = None
    if (
        view is None
        or view.ndim != 2
        or view.itemsize != 8
        or view.format.lstrip("@=") not in ("l", "q")
    ):
        raise TypeError("candidates must be a 2-D table of 64-bit ints")
    if view.shape[0] != num_tasks:
        raise ValueError(
            f"candidates has {view.shape[0]} rows, expected {num_tasks}"
        )
    table = np.asarray(view)
    bad = np.flatnonzero((table < 0) | (table >= num_machines))
    if bad.size:
        t, j = divmod(int(bad[0]), table.shape[1])
        raise ValueError(
            f"candidates[{t}][{j}] = {table[t, j]} is out of range "
            f"[0, {num_machines})"
        )
    return view.tolist()


def allocate_by_places(
    backend: Any,
    string: ScheduleString,
    selected: Sequence[int],
    candidates: Any,
    all_positions: bool = False,
) -> Tuple[Any, int, int]:
    """SE's allocation phase (paper §4.5): re-place every subtask of
    *selected*, in the given order, at its best placement.

    One ``backend.prepare`` of *string*, then per selected subtask one
    :func:`place_by_probes` over *backend* and its row of *candidates*,
    the ``(k, Y)`` table of each subtask's candidate machines
    (:func:`candidate_rows`); a subtask whose best placement differs
    from its own is relocated in *string* and the string prepared
    again.  Returns ``(state, trials, moved)``: the state of
    the final string, the prepares plus probes, and the number of
    subtasks that moved.  This loop is the specification of the
    backends' ``allocate`` (the compiled walker's is ``==`` on all three
    and on *string*), and the ``allocate`` itself of the objective and
    scenario wrappers.

    Everything is checked before *string* changes: ``ValueError`` for a
    selected id outside ``[0, k)``, for a bad candidate table (as
    :func:`candidate_rows`; ``TypeError`` for one that is no int64
    table) or for ``positions`` that are not the inverse of ``order``
    (a string mutated through its live lists); the first ``prepare``
    raises for a string that breaks the graph.
    """
    k = backend.workload.num_tasks
    rows = candidate_rows(candidates, k, backend.workload.num_machines)
    for i, task in enumerate(selected):
        if not 0 <= task < k:
            raise ValueError(
                f"selected[{i}] = {task} is out of range [0, {k})"
            )
    order = string.order
    machines = string.machines
    positions = string.positions
    try:
        inverse = len(positions) == len(order) and (
            list(map(positions.__getitem__, order)) == list(range(len(order)))
        )
    except (IndexError, TypeError):
        inverse = False
    if not inverse:
        raise ValueError("positions are not the inverse of order")
    state = backend.prepare(order, machines)
    trials = 1
    moved = 0
    for task in selected:
        _, index, machine, probes = place_by_probes(
            backend, state, order, machines, task, rows[task], all_positions
        )
        trials += probes
        if index != positions[task] or machine != machines[task]:
            string.relocate(task, index, machine)
            moved += 1
            # re-snapshot only when the string actually changed; an
            # unmoved subtask leaves the prepared state valid
            state = backend.prepare(order, machines)
            trials += 1
    return state, trials, moved
