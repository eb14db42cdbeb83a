"""Unified stopping rules for the iterative search engines.

Every engine in the library stops for one of three reasons — an
iteration cap, a wall-clock limit, or a no-improvement stall — and
before this module each engine re-implemented the trio with its own
field names (``SEConfig.stall_iterations`` vs the GA's
``stall_generations``) and its own reason strings.  :class:`StopPolicy`
owns the semantics once; :class:`~repro.optim.loop.SearchLoop` consults
it, so **all** engines report the same reason strings:

* ``"iterations"`` — the iteration/generation cap was exhausted;
* ``"time"``       — the wall-clock limit was reached (checked at the
  *top* of each iteration, before any work, exactly like the historical
  SE/GA loops);
* ``"stall"``      — ``stall_iterations`` consecutive iterations passed
  without a strict improvement of the best cost (checked at the
  *bottom* of each iteration, after trace recording).

The check order matters when several limits trigger on the same
iteration and is pinned by ``tests/optim/test_stop_policy.py``: the
iteration cap is consulted first (a run whose cap is exhausted reports
``"iterations"`` even if the clock also ran out), then time, and stall
only ever fires after a completed iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The three canonical stop reasons every engine reports.
STOP_ITERATIONS = "iterations"
STOP_TIME = "time"
STOP_STALL = "stall"


@dataclass(frozen=True)
class StopPolicy:
    """When an iterative search must stop.

    Attributes
    ----------
    max_iterations:
        Hard cap on completed iterations (SE iterations, GA
        generations, SA sweeps, tabu steps).  ``0`` means the loop body
        never runs.
    time_limit:
        Optional wall-clock cap in seconds.  Checked before starting an
        iteration, so a run may overshoot by at most one iteration's
        duration — the exact historical engine behaviour.
    stall_iterations:
        Optional early stop after this many consecutive iterations
        without a strict best-cost improvement (``None`` disables).
        ``stall_iterations=1`` therefore stops at the first
        non-improving iteration.
    """

    max_iterations: int
    time_limit: Optional[float] = None
    stall_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError(
                f"time_limit must be >= 0, got {self.time_limit}"
            )
        if self.stall_iterations is not None and self.stall_iterations < 1:
            raise ValueError(
                f"stall_iterations must be >= 1, got {self.stall_iterations}"
            )

    def exhausted(self, iterations_done: int) -> bool:
        """True when the iteration cap forbids starting another iteration."""
        return iterations_done >= self.max_iterations

    def out_of_time(self, elapsed_seconds: float) -> bool:
        """True when the wall-clock limit has been reached."""
        return (
            self.time_limit is not None
            and elapsed_seconds >= self.time_limit
        )

    def stalled(self, stall_count: int) -> bool:
        """True when *stall_count* non-improving iterations trip the stop."""
        return (
            self.stall_iterations is not None
            and stall_count >= self.stall_iterations
        )


class IterationLimits:
    """Mixin for configs with ``max_iterations`` / ``time_limit`` /
    ``stall_iterations`` fields (SE, SA, tabu): their stop policy."""

    def stop_policy(self) -> StopPolicy:
        """The run's stopping rules as a shared :class:`StopPolicy`."""
        return StopPolicy(
            self.max_iterations, self.time_limit, self.stall_iterations
        )
