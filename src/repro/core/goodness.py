"""The SE evaluation step: goodness ``g_i = O_i / C_i`` (paper §4.3).

``C_i`` is the finishing time of subtask ``s_i`` in the *current*
solution (straight from the simulator).  ``O_i`` is an optimistic
finishing time under the paper's function **F**: ``s_i`` and all its
predecessors sit on their best-matching machines (fastest execution
time).  ``O_i`` depends only on the workload, so it is computed once at
initialisation and reused every generation — exactly as the paper
prescribes ("Oi does not change from one generation to the next").
:class:`GoodnessEvaluator` reads it once per run from a backend's
``optimal_finish``, one walker call on the compiled tier;
:func:`optimal_finish_times` is its specification.

Concretely we evaluate F with a contention-free recursion over the DAG::

    O_i = E[bm(i), i] + max(0, max over items (prod -> i) of
                              O_prod + Tr[pair(bm(prod), bm(i)), item])

where ``bm(t)`` is the best-matching machine of ``t``.  Machine queueing
among predecessors is ignored (the paper's worked example charges s4 only
the chain through s1 even though s0 and s1 share machine m0, which is
consistent with a contention-free reading; see DESIGN.md).  Because F is
optimistic-but-not-a-true-lower-bound, ``O_i/C_i`` can exceed 1 in odd
corners, so goodness is clamped into [0, 1] to honour the paper's "a
number expressible in the range [0,1]".
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.model.workload import Workload


def optimal_finish_times(workload: Workload) -> np.ndarray:
    """The vector ``O`` of optimistic finish times (function F), per subtask.

    Computed once per workload in topological order; ``O[i] > 0`` always.
    """
    graph = workload.graph
    k = graph.num_tasks
    e = workload.exec_times
    best = e.ranking[0]
    best_time = e.values[best, np.arange(k)].tolist()
    # every item's transfer time between the best machines of its two
    # ends, in one gather; then grouped per consumer
    prod, cons, item = np.array(
        [(d.producer, d.consumer, d.index) for d in graph.data_items],
        dtype=np.intp,
    ).reshape(-1, 3).T
    times = workload.transfer_times.times(best[prod], best[cons], item)
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for p, c, tr in zip(prod.tolist(), cons.tolist(), times.tolist()):
        incoming[c].append((p, tr))

    o = [0.0] * k
    for t in graph.topological_order():
        ready = 0.0
        for p, tr in incoming[t]:
            arrival = o[p] + tr
            if arrival > ready:
                ready = arrival
        o[t] = ready + best_time[t]
    return np.array(o)


def goodness_values(
    optimal: np.ndarray, current_finish: list[float] | np.ndarray
) -> np.ndarray:
    """Per-subtask goodness ``min(1, O_i / C_i)``.

    Parameters
    ----------
    optimal:
        The precomputed ``O`` vector from :func:`optimal_finish_times`.
    current_finish:
        The ``C`` vector — per-subtask finish times of the current
        solution (see :meth:`repro.schedule.simulator.Simulator.finish_times`).
    """
    c = np.asarray(current_finish, dtype=float)
    if c.shape != optimal.shape:
        raise ValueError(
            f"finish-time vector has shape {c.shape}, expected {optimal.shape}"
        )
    if np.any(c <= 0):
        raise ValueError("current finish times must be strictly positive")
    return np.minimum(1.0, optimal / c)


class GoodnessEvaluator:
    """Caches ``O`` for a backend's workload and maps solutions to
    goodness vectors.

    *backend* is a scalar backend (e.g. an SE run's raw simulator):
    ``O`` is read from its own tables by its ``optimal_finish``, one
    compiled walker call, ``==`` to :func:`optimal_finish_times` of its
    workload.
    """

    __slots__ = ("_optimal",)

    def __init__(self, backend: Any):
        workload = backend.workload
        self._optimal = np.array(
            backend.optimal_finish(
                workload.exec_times.ranking[0].tolist(),
                workload.graph.topological_order(),
            )
        )
        self._optimal.setflags(write=False)

    @property
    def optimal(self) -> np.ndarray:
        """The (read-only) ``O`` vector."""
        return self._optimal

    def goodness(self, current_finish: list[float] | np.ndarray) -> np.ndarray:
        """Goodness vector for one solution's finish times."""
        return goodness_values(self._optimal, current_finish)
