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
:func:`~repro.schedule.operations.shuffle_string`; the backend's
``shuffle`` runs them, in one compiled walker call on the scalar
backends, with the same draws.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.schedule.encoding import ScheduleString


def initial_solution(
    backend: Any,
    rng: np.random.Generator,
    shuffle_range: tuple[float, float] = (1.0, 3.0),
) -> ScheduleString:
    """Generate a valid initial string per the paper's recipe.

    Parameters
    ----------
    backend:
        A :class:`~repro.schedule.backend.SimulatorBackend`; its
        workload gives the graph and ``l``, and its ``shuffle`` runs the
        moves.
    rng:
        Randomness source (machine draws, shuffle count, shuffle moves).
    shuffle_range:
        ``(lo_factor, hi_factor)`` scaling of ``k`` for the perturbation
        count; ``(0, 0)`` yields the plain topological string.
    """
    lo_f, hi_f = shuffle_range
    if lo_f < 0 or hi_f < lo_f:
        raise ValueError(
            f"shuffle_range must satisfy 0 <= lo <= hi, got {shuffle_range}"
        )
    graph = backend.workload.graph
    num_machines = backend.workload.num_machines
    k = graph.num_tasks
    machine_of = rng.integers(num_machines, size=k).tolist()
    lo = int(round(lo_f * k))
    hi = int(round(hi_f * k))
    num_moves = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    order = backend.shuffle(graph.topological_order(), rng, num_moves)
    return ScheduleString(order, machine_of, num_machines)
