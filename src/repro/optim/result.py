"""The common result type of the iterative engines.

SA and tabu return a :class:`SearchResult`; SE's
:class:`~repro.core.engine.SEResult` and the GA's
:class:`~repro.baselines.ga.engine.GAResult` extend it, so downstream
code (registry entries, the comparison harness, the figure benchmarks)
treats every engine uniformly.

Results are kept (one per runner cell, per comparison run, per
benchmark episode), so a result holds what it reports and no more: the
best string, a column-wise trace, and the counts; the best schedule is
evaluated only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from repro.analysis.trace import ConvergenceTrace
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one iterative engine run.

    Attributes
    ----------
    best_string:
        The best solution found (a copy; safe to keep).
    best_makespan:
        Its schedule length under the configured ``network`` backend.
    best_schedule:
        The fully evaluated best schedule (start/finish times), a
        property evaluated on first read (and then kept) by
        *schedule_source*, so a kept result costs no schedule until it
        is asked for.  Do not mutate *best_string* before reading it.
    trace:
        Per-iteration convergence records, stored column-wise (see
        :mod:`repro.analysis.trace`): a kept result holds ~40-57 bytes
        per recorded iteration, not one record object each.
    iterations:
        Iterations executed (engine-specific granularity: SE iterations,
        GA generations, SA proposals, tabu steps).
    evaluations:
        Total simulator calls (cost accounting).
    stopped_by:
        ``"iterations"``, ``"time"`` or ``"stall"`` — the unified
        :mod:`repro.optim.stop` reason strings.
    schedule_source:
        Evaluates a string to its real :class:`Schedule` as the run's
        backend did (:meth:`~repro.optim.evaluation.EvaluationService.
        schedule_source`).
    """

    best_string: ScheduleString
    best_makespan: float
    trace: ConvergenceTrace
    iterations: int
    evaluations: int
    stopped_by: str
    schedule_source: Callable[[ScheduleString], Schedule] = field(
        repr=False, compare=False
    )

    @cached_property
    def best_schedule(self) -> Schedule:
        return self.schedule_source(self.best_string)

    @classmethod
    def from_loop(cls, out: Any, service: Any, **extra: Any) -> "SearchResult":
        """The result of a finished :class:`~repro.optim.loop.SearchLoop`
        run (*out*) whose evaluations *service* served; *extra* fills a
        subclass's own fields."""
        return cls(
            best_string=out.best,
            best_makespan=service.reported_makespan(out.best, out.best_cost),
            trace=out.trace,
            iterations=out.iterations,
            evaluations=service.evaluations,
            stopped_by=out.stopped_by,
            schedule_source=service.schedule_source(),
            **extra,
        )
