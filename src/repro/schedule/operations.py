"""Validity-preserving random operations on schedule strings.

These are the shared mutation primitives: the SE initial-solution
generator perturbs a topological string with :func:`random_valid_move`
(paper §4.2), the GA's scheduling mutation uses the same move, and the
random-search baseline composes both move kinds.  Every operation keeps
the string a valid solution — the closure property tested in
``tests/schedule/test_operations.py``.

:func:`shuffle_string` is the specification of the scalar backends'
``shuffle`` and the Python walker's body for it; the SE engine's
initial string goes through the backend, whose compiled walker runs
the whole loop in one call with the same draws from the generator's
bit generator (``tests/properties/test_shuffle_properties.py``).
"""

from __future__ import annotations

import numpy as np

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString
from repro.schedule.valid_range import valid_insertion_range
from repro.utils.rng import RandomSource, as_rng


def random_valid_move(
    string: ScheduleString,
    graph: TaskGraph,
    rng: np.random.Generator,
    task: int | None = None,
) -> int:
    """Move one subtask to a uniformly random position in its valid range.

    Mutates *string* in place and returns the moved subtask's id.  If
    *task* is ``None`` a subtask is picked uniformly at random.
    """
    if task is None:
        task = int(rng.integers(string.num_tasks))
    lo, hi = valid_insertion_range(string, graph, task)
    string.move(task, int(rng.integers(lo, hi + 1)))
    return task


def random_reassign(
    string: ScheduleString,
    rng: np.random.Generator,
    task: int | None = None,
) -> int:
    """Reassign one subtask to a uniformly random machine (in place).

    Returns the reassigned subtask's id.  The new machine may equal the
    old one — matching the uniform reassignment used by the GA's matching
    mutation.
    """
    if task is None:
        task = int(rng.integers(string.num_tasks))
    string.assign(task, int(rng.integers(string.num_machines)))
    return task


def random_topological_order(
    graph: TaskGraph, rng: np.random.Generator
) -> list[int]:
    """A uniformly-randomised (tie-broken) Kahn topological order."""
    k = graph.num_tasks
    indeg = [len(graph.predecessors(t)) for t in range(k)]
    ready = [t for t in range(k) if indeg[t] == 0]
    order: list[int] = []
    while ready:
        idx = int(rng.integers(len(ready)))
        ready[idx], ready[-1] = ready[-1], ready[idx]
        t = ready.pop()
        order.append(t)
        for s in graph.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != k:  # pragma: no cover - graph is validated acyclic
        raise RuntimeError("cycle encountered in a validated DAG")
    return order


def random_valid_string(
    graph: TaskGraph,
    num_machines: int,
    source: RandomSource = None,
) -> ScheduleString:
    """A uniformly random valid string: random topo order, random machines.

    This is the sampling primitive of the random-search baseline and of
    the property-based tests.
    """
    rng = as_rng(source)
    order = random_topological_order(graph, rng)
    machine_of = [int(m) for m in rng.integers(num_machines, size=graph.num_tasks)]
    return ScheduleString(order, machine_of, num_machines)


def shuffle_string(
    string: ScheduleString,
    graph: TaskGraph,
    rng: np.random.Generator,
    num_moves: int,
) -> None:
    """Apply *num_moves* random valid moves in place (paper §4.2).

    The paper's initial-solution generator modifies the topologically
    sorted string "a random number of times"; the SE initialiser calls
    this, or a backend's ``shuffle`` that it specifies, with a
    randomised count.
    """
    if num_moves < 0:
        raise ValueError(f"num_moves must be >= 0, got {num_moves}")
    for _ in range(num_moves):
        random_valid_move(string, graph, rng)
