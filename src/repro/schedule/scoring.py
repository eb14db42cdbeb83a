"""Multi-metric schedule scoring: (makespan, dollar cost, busy time).

Every simulator in this repo historically returned one number — the
makespan.  The platform axis (:mod:`repro.model.platform`) adds a
second objective, dollar cost, and this module owns its arithmetic:

* :class:`ScheduleScore` — one schedule's ``(makespan, cost, busy)``
  triple, returned by ``score`` / ``string_score`` on the scalar
  simulators;
* :class:`CostModel` — the per-task billing table.  Cost is per-task:
  ``sum over tasks of price[machine_of[task]] * E[machine_of[task]][task]``
  — you pay for the busy time your tasks occupy, not for the makespan.
  That makes cost a function of the *matching string alone* (it does
  not depend on the order or on communication waits), which is what
  lets the evaluation service compute a whole batch's costs in a single
  fancy gather + row sum instead of walking schedules.

The zero model (all prices 0) is what uniform-platform simulators carry
implicitly: ``score`` degrades to ``(makespan, 0.0, busy)``.

>>> import numpy as np
>>> E = np.array([[2.0, 4.0], [1.0, 1.0]])
>>> cm = CostModel(E, [0.1, 1.0])
>>> cm.cost([0, 0])  # both tasks on the cheap machine
0.6000000000000001
>>> cm.cost([1, 1])  # both on the expensive one
2.0
>>> cm.batch_costs(np.array([[0, 0], [1, 1]])).tolist()
[0.6000000000000001, 2.0]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ScheduleScore", "CostModel"]


@dataclass(frozen=True)
class ScheduleScore:
    """One schedule's multi-metric score.

    Attributes
    ----------
    makespan:
        The schedule's completion time (the paper's single objective).
    cost:
        Dollar cost under the platform's per-task billing; 0.0 on the
        uniform platform.
    busy:
        Per-machine busy time (sum of execution times placed on each
        machine) — the utilisation column of the cost study.
    """

    makespan: float
    cost: float
    busy: tuple[float, ...]

    @property
    def point(self) -> tuple[float, float]:
        """The ``(makespan, cost)`` objective point, for Pareto fronts."""
        return (self.makespan, self.cost)


class CostModel:
    """Per-task billing table for one (execution times, prices) pair.

    Parameters
    ----------
    exec_times:
        The ``(l, k)`` execution-time matrix cost is billed against —
        the *platform-scaled* matrix when one applies.
    prices:
        Per-machine dollar rate, length ``l``.  All-zero rates give the
        zero model of the uniform platform.
    """

    __slots__ = ("_E", "_task_cost", "_prices", "_l", "_k")

    def __init__(
        self, exec_times: np.ndarray, prices: Sequence[float]
    ):
        E = np.asarray(exec_times, dtype=float)
        if E.ndim != 2:
            raise ValueError(f"exec_times must be 2-D, got {E.ndim}-D")
        p = np.asarray(prices, dtype=float).reshape(-1)
        if p.shape[0] != E.shape[0]:
            raise ValueError(
                f"{p.shape[0]} prices for {E.shape[0]} machines"
            )
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("prices must be finite and >= 0")
        self._l, self._k = E.shape
        self._E = E
        #: (l, k): dollars charged if task t runs on machine m
        self._task_cost = E * p[:, None]
        self._task_cost.setflags(write=False)
        self._prices = p
        self._prices.setflags(write=False)

    @classmethod
    def zero(cls, exec_times: np.ndarray) -> "CostModel":
        """The free model: busy times computed, every cost 0.0."""
        E = np.asarray(exec_times, dtype=float)
        return cls(E, np.zeros(E.shape[0]))

    @property
    def prices(self) -> np.ndarray:
        return self._prices

    @property
    def is_free(self) -> bool:
        """True when every rate is zero (the uniform platform)."""
        return not self._prices.any()

    # ------------------------------------------------------------------
    # scalar tier
    # ------------------------------------------------------------------

    def cost(self, machine_of: Sequence[int]) -> float:
        """Dollar cost of running under assignment *machine_of*."""
        m = np.asarray(machine_of, dtype=np.intp)
        return float(self._task_cost[m, np.arange(self._k)].sum())

    def busy_times(self, machine_of: Sequence[int]) -> tuple[float, ...]:
        """Per-machine busy time under assignment *machine_of*."""
        m = np.asarray(machine_of, dtype=np.intp)
        exec_of = self._E[m, np.arange(self._k)]
        return tuple(
            np.bincount(m, weights=exec_of, minlength=self._l).tolist()
        )

    def score(
        self, machine_of: Sequence[int], makespan: float
    ) -> ScheduleScore:
        """Assemble the full :class:`ScheduleScore` for one schedule."""
        return ScheduleScore(
            makespan=float(makespan),
            cost=self.cost(machine_of),
            busy=self.busy_times(machine_of),
        )

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def batch_costs(self, machines: np.ndarray) -> np.ndarray:
        """Vectorized cost of a ``(B, k)`` machine-assignment batch.

        One fancy gather into the ``(l, k)`` per-task billing table plus
        a row sum — no per-schedule Python loop.
        """
        m = np.asarray(machines, dtype=np.intp)
        if m.ndim != 2 or m.shape[1] != self._k:
            raise ValueError(
                f"machines must be (B, {self._k}), got {m.shape}"
            )
        return self._task_cost[m, np.arange(self._k)].sum(axis=1)
