"""Best-so-far tracking and trajectory recording, shared by all engines.

:class:`BestTracker` owns the improvement rule every engine used to
re-implement: a candidate replaces the incumbent only on a **strict**
cost improvement (ties keep the old best and count toward the stall
streak), and the stored best is a *copy* of the candidate so engines can
keep mutating their working solution in place.

:class:`TrajectoryRecorder` appends each iteration's values straight
into the columns of a :class:`~repro.analysis.trace.ConvergenceTrace` —
the exact trace type the figure benchmarks and the runner already
consume, so a refactored engine's trace is indistinguishable from the
hand-rolled one.

:class:`ParetoTracker` is :class:`BestTracker`'s bi-objective sibling:
instead of one scalar incumbent it maintains the **non-dominated front**
over ``(makespan, cost)`` points — the output of a cost-aware search
(see :mod:`repro.optim.objective`).  The
:class:`~repro.optim.evaluation.EvaluationService` offers every point it
scores to an attached tracker, so one weighted-sum run (or several runs
sharing a tracker, as ``repro pareto`` does) accumulates the whole
front for free.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, Optional, TypeVar

from repro.analysis.trace import ConvergenceTrace
from repro.schedule.encoding import ScheduleString

S = TypeVar("S")


def _default_copy(candidate: Any) -> Any:
    return candidate.copy()


def point_copy(candidate: Any) -> Any:
    """A Pareto point's own copy of *candidate*: :meth:`ScheduleString.
    copy` for a string, two list copies for an ``(order, machine_of)``
    pair of lists (the scoring calls' candidates; their items are ints,
    so the copies are deep), :func:`copy.deepcopy` for anything else."""
    if isinstance(candidate, ScheduleString):
        return candidate.copy()
    if (
        type(candidate) is tuple
        and len(candidate) == 2
        and type(candidate[0]) is list
        and type(candidate[1]) is list
    ):
        return (candidate[0].copy(), candidate[1].copy())
    return _copy.deepcopy(candidate)


class BestTracker(Generic[S]):
    """Tracks the best (cost, solution) pair and the stall streak.

    Parameters
    ----------
    copy:
        How to snapshot a candidate when it becomes the new best
        (defaults to calling its ``.copy()``).  Engines pass their live
        working solution each iteration; only improvements pay the copy.
    """

    __slots__ = ("_copy", "_best", "_best_cost", "_stall")

    def __init__(self, copy: Callable[[S], S] = _default_copy):
        self._copy = copy
        self._best: Optional[S] = None
        self._best_cost = float("inf")
        self._stall = 0

    @property
    def best(self) -> S:
        if self._best is None:
            raise ValueError("tracker has no best yet; call seed() first")
        return self._best

    @property
    def best_cost(self) -> float:
        return self._best_cost

    @property
    def stall(self) -> int:
        """Consecutive non-improving updates since the last improvement."""
        return self._stall

    def seed(self, cost: float, candidate: S) -> None:
        """Install the initial solution without touching the stall count."""
        self._best_cost = cost
        self._best = self._copy(candidate)
        self._stall = 0

    def update(self, cost: float, candidate: S) -> bool:
        """Offer one iteration's outcome; returns True on improvement.

        Strict-less comparison: a tie is *not* an improvement (matching
        every historical engine) and increments the stall streak.
        """
        if cost < self._best_cost:
            self._best_cost = cost
            self._best = self._copy(candidate)
            self._stall = 0
            return True
        self._stall += 1
        return False


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated ``(makespan, cost)`` point and its schedule."""

    makespan: float
    cost: float
    candidate: Any = None

    @property
    def point(self) -> tuple[float, float]:
        return (self.makespan, self.cost)


class ParetoTracker:
    """The non-dominated front over ``(makespan, cost)``.

    Dominance is the standard weak/strict mix: ``a`` dominates ``b``
    when ``a`` is <= on both objectives and strictly < on at least one.
    A point equal to a front member on *both* objectives is already
    represented and is rejected (so duplicates never grow the front);
    a point tied on one objective but better on the other *replaces*
    the dominated member.  The resulting front is a set — independent
    of insertion order (property-tested).

    Parameters
    ----------
    copy:
        How to snapshot a candidate when its point joins the front
        (default: :func:`point_copy`, as deep as :func:`copy.deepcopy`
        and safe for live engine solutions).  Only accepted offers pay
        the copy.

    >>> t = ParetoTracker()
    >>> t.offer(10.0, 5.0), t.offer(12.0, 3.0), t.offer(11.0, 6.0)
    (True, True, False)
    >>> [(p.makespan, p.cost) for p in t.front]
    [(10.0, 5.0), (12.0, 3.0)]
    >>> t.offer(10.0, 3.0)  # dominates both members
    True
    >>> [(p.makespan, p.cost) for p in t.front]
    [(10.0, 3.0)]
    """

    __slots__ = ("_copy", "_points", "_offers")

    def __init__(self, copy: Callable[[Any], Any] = point_copy):
        self._copy = copy
        self._points: list[ParetoPoint] = []
        self._offers = 0

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.front)

    @property
    def offers(self) -> int:
        """Points offered so far (accepted or not)."""
        return self._offers

    @property
    def front(self) -> list[ParetoPoint]:
        """The current front, sorted by makespan (ascending)."""
        return sorted(self._points, key=lambda p: (p.makespan, p.cost))

    def dominated(self, makespan: float, cost: float) -> bool:
        """True if some front member dominates-or-equals the point."""
        return any(
            p.makespan <= makespan and p.cost <= cost
            for p in self._points
        )

    def offer(
        self, makespan: float, cost: float, candidate: Any = None
    ) -> bool:
        """Offer one scored point; returns True if it joined the front.

        The candidate is copied only on acceptance, so offering every
        probe of a search loop is cheap.
        """
        self._offers += 1
        if self.dominated(makespan, cost):
            return False
        self._points = [
            p
            for p in self._points
            if not (makespan <= p.makespan and cost <= p.cost)
        ]
        self._points.append(
            ParetoPoint(
                makespan=float(makespan),
                cost=float(cost),
                candidate=(
                    self._copy(candidate) if candidate is not None else None
                ),
            )
        )
        return True


class TrajectoryRecorder:
    """Accumulates per-iteration records into a :class:`ConvergenceTrace`.

    Each :meth:`record` goes straight into the trace's columns; no
    :class:`~repro.analysis.trace.IterationRecord` is built (read
    ``trace[-1]`` for one).
    """

    __slots__ = ("trace",)

    def __init__(self) -> None:
        self.trace = ConvergenceTrace()

    def record(
        self,
        iteration: int,
        current_cost: float,
        best_cost: float,
        elapsed_seconds: float,
        evaluations: int,
        num_selected: Optional[int] = None,
        mean_goodness: Optional[float] = None,
    ) -> None:
        self.trace.add(
            iteration,
            current_cost,
            best_cost,
            num_selected,
            elapsed_seconds,
            mean_goodness,
            evaluations,
        )
