"""SE initial-solution generation (paper §4.2).

The paper builds the first string in three moves:

1. assign every subtask to a uniformly random machine;
2. place subtasks in topologically sorted order (guaranteeing validity);
3. perturb the string "a random number of times" by moving a random
   subtask to a random position inside its valid range.

The perturbation count is drawn uniformly from
``[lo_factor * k, hi_factor * k]`` (k = number of subtasks); the factors
live in :class:`~repro.core.config.SEConfig.initial_shuffle_range`.

The moves are specified by
:func:`~repro.schedule.operations.shuffle_string`, which runs them when
no backend is given.  The SE engine passes its backend, whose
``shuffle`` makes the same draws in one compiled walker call, so the
string is the same either way.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.model.graph import TaskGraph
from repro.schedule.encoding import ScheduleString
from repro.schedule.operations import shuffle_string


def initial_solution(
    graph: TaskGraph,
    num_machines: int,
    rng: np.random.Generator,
    shuffle_range: tuple[float, float] = (1.0, 3.0),
    backend: Optional[Any] = None,
) -> ScheduleString:
    """Generate a valid initial string per the paper's recipe.

    Parameters
    ----------
    graph:
        The application DAG.
    num_machines:
        ``l``.
    rng:
        Randomness source (machine draws, shuffle count, shuffle moves).
    shuffle_range:
        ``(lo_factor, hi_factor)`` scaling of ``k`` for the perturbation
        count; ``(0, 0)`` yields the plain topological string.
    backend:
        A :class:`~repro.schedule.backend.SimulatorBackend` for *graph*
        whose ``shuffle`` runs the moves, or ``None`` to run
        :func:`~repro.schedule.operations.shuffle_string`; the result
        is the same.
    """
    lo_f, hi_f = shuffle_range
    if lo_f < 0 or hi_f < lo_f:
        raise ValueError(
            f"shuffle_range must satisfy 0 <= lo <= hi, got {shuffle_range}"
        )
    k = graph.num_tasks
    machine_of = rng.integers(num_machines, size=k).tolist()
    lo = int(round(lo_f * k))
    hi = int(round(hi_f * k))
    num_moves = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    order = graph.topological_order()
    if backend is not None:
        return ScheduleString(
            backend.shuffle(order, rng, num_moves), machine_of, num_machines
        )
    string = ScheduleString(order, machine_of, num_machines)
    shuffle_string(string, graph, rng, num_moves)
    return string
