"""The common result type of the iterative engines.

SA and tabu return a :class:`SearchResult`; SE's
:class:`~repro.core.engine.SEResult` and the GA's
:class:`~repro.baselines.ga.engine.GAResult` extend it, so downstream
code (registry entries, the comparison harness, the figure benchmarks)
treats every engine uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
        The fully evaluated best schedule (start/finish times).
    trace:
        Per-iteration convergence records.
    iterations:
        Iterations executed (engine-specific granularity: SE iterations,
        GA generations, SA proposals, tabu steps).
    evaluations:
        Total simulator calls (cost accounting).
    stopped_by:
        ``"iterations"``, ``"time"`` or ``"stall"`` — the unified
        :mod:`repro.optim.stop` reason strings.
    kernel_tier:
        The batch tier of the evaluation service that served the run
        (``jit`` / ``sequential``).
    """

    best_string: ScheduleString
    best_makespan: float
    best_schedule: Schedule
    trace: ConvergenceTrace
    iterations: int
    evaluations: int
    stopped_by: str
    kernel_tier: str

    @classmethod
    def from_loop(cls, out: Any, service: Any, **extra: Any) -> "SearchResult":
        """The result of a finished :class:`~repro.optim.loop.SearchLoop`
        run (*out*) whose evaluations *service* served; *extra* fills a
        subclass's own fields."""
        schedule, makespan = service.best_of(out.best, out.best_cost)
        return cls(
            best_string=out.best,
            best_makespan=makespan,
            best_schedule=schedule,
            trace=out.trace,
            iterations=out.iterations,
            evaluations=service.evaluations,
            stopped_by=out.stopped_by,
            kernel_tier=service.kernel_tier,
            **extra,
        )
