"""The shared run-loop driver behind every iterative engine.

One engine iteration used to come with ~30 lines of identical scaffold:
the time-limit check, the iteration counter, best tracking, the
:class:`~repro.analysis.trace.IterationRecord`, observer notification,
and the stall check.  :class:`SearchLoop` owns that scaffold; an engine
supplies only a ``step`` callback producing one iteration's outcome.

The loop structure is the exact historical one (pinned by the golden
bit-identity tests in ``tests/test_golden_engines.py``):

.. code-block:: text

    while iterations_done < max_iterations:        # else -> "iterations"
        if elapsed >= time_limit: break            #      -> "time"
        outcome = step(iteration)                  # the engine's work
        update best / stall                        # strict improvement
        append the trace row; notify observers
        if stall >= stall_iterations: break        #      -> "stall"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar

from repro.analysis.trace import ConvergenceTrace, IterationRecord
from repro.optim.observers import Observer, ObserverBus
from repro.optim.stop import (
    STOP_ITERATIONS,
    STOP_STALL,
    STOP_TIME,
    StopPolicy,
)
from repro.optim.tracking import BestTracker, TrajectoryRecorder
from repro.utils.timers import Stopwatch

S = TypeVar("S")


@dataclass
class StepOutcome(Generic[S]):
    """What one engine iteration hands back to the loop.

    Attributes
    ----------
    cost:
        The iteration's current cost (the trace's ``current_makespan``).
    candidate:
        The solution achieving *cost*; best-tracked (copied only on
        improvement), so passing the live working solution is fine.
    payload:
        Second argument to observers; defaults to *candidate*.
    num_selected / mean_goodness:
        Optional extras for the trace record (SE fills both, the GA and
        the optim engines fill what applies).
    record:
        When False, no trace record is appended and observers are not
        notified for this iteration (best tracking and stall counting
        still run).  Engines with very cheap iterations (SA proposals)
        use this to thin multi-million-iteration time-budget traces.
    """

    cost: float
    candidate: S
    payload: Any = None
    num_selected: Optional[int] = None
    mean_goodness: Optional[float] = None
    record: bool = True


@dataclass(frozen=True)
class LoopOutcome(Generic[S]):
    """What a finished :meth:`SearchLoop.run` reports back."""

    best_cost: float
    best: S
    trace: ConvergenceTrace
    iterations: int
    stopped_by: str


class SearchLoop(Generic[S]):
    """Drives an engine's ``step`` under a :class:`StopPolicy`.

    Parameters
    ----------
    stop:
        The stopping rules (iteration cap / wall clock / stall).
    observers:
        Per-iteration callbacks, notified through one
        :class:`~repro.optim.observers.ObserverBus`.
    evaluations:
        Zero-arg callable returning the *cumulative* simulator-call
        count — normally ``lambda: service.evaluations`` — sampled once
        per iteration for the trace record.
    copy:
        Candidate snapshot function for the best tracker.
    """

    def __init__(
        self,
        stop: StopPolicy,
        observers: Sequence[Observer] = (),
        evaluations: Callable[[], int] = lambda: 0,
        copy: Optional[Callable[[S], S]] = None,
    ):
        self._stop = stop
        self._bus = ObserverBus(observers)
        self._evaluations = evaluations
        self._tracker: BestTracker[S] = (
            BestTracker(copy) if copy is not None else BestTracker()
        )

    @property
    def tracker(self) -> BestTracker[S]:
        """The live best tracker (engines may consult it inside ``step``)."""
        return self._tracker

    def run(
        self,
        initial_cost: float,
        initial_candidate: S,
        step: Callable[[int], StepOutcome[S]],
        watch: Optional[Stopwatch] = None,
    ) -> LoopOutcome[S]:
        """Iterate ``step`` until the policy stops it.

        Parameters
        ----------
        initial_cost / initial_candidate:
            The starting solution; seeds the best tracker (copied).
        step:
            ``step(iteration)`` runs one iteration (1-based numbering)
            and returns its :class:`StepOutcome`.
        watch:
            Optional already-running stopwatch.  Engines whose set-up
            work (initial evaluation, population scoring) must count
            toward the time limit start the watch before it and pass it
            in; by default the clock starts here.
        """
        stop = self._stop
        tracker = self._tracker
        # observers get a record; the trace itself keeps only columns
        notify = self._bus.notify if len(self._bus) else None
        recorder = TrajectoryRecorder()
        if watch is None:
            watch = Stopwatch()
        tracker.seed(initial_cost, initial_candidate)

        iteration = 0
        stopped_by = STOP_ITERATIONS
        while not stop.exhausted(iteration):
            if stop.out_of_time(watch.elapsed()):
                stopped_by = STOP_TIME
                break
            iteration += 1
            out = step(iteration)
            tracker.update(out.cost, out.candidate)
            if out.record:
                best_cost = tracker.best_cost
                elapsed = watch.elapsed()
                evaluations = self._evaluations()
                recorder.record(
                    iteration,
                    out.cost,
                    best_cost,
                    elapsed,
                    evaluations,
                    out.num_selected,
                    out.mean_goodness,
                )
                if notify is not None:
                    notify(
                        IterationRecord(
                            iteration,
                            out.cost,
                            best_cost,
                            out.num_selected,
                            elapsed,
                            out.mean_goodness,
                            evaluations,
                        ),
                        out.payload if out.payload is not None else out.candidate,
                    )
            if stop.stalled(tracker.stall):
                stopped_by = STOP_STALL
                break

        return LoopOutcome(
            best_cost=tracker.best_cost,
            best=tracker.best,
            trace=recorder.trace,
            iterations=iteration,
            stopped_by=stopped_by,
        )
