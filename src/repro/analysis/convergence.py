"""Convergence analytics over traces.

Quantifies the *rate* claims the paper makes qualitatively ("SE reaches
good solutions faster", "the rate to reach good solutions improves with
Y"): time/iterations to reach a target, normalised area under the
best-so-far curve, and stagnation statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.trace import ConvergenceTrace


def time_to_target(
    trace: ConvergenceTrace, target_makespan: float
) -> Optional[float]:
    """Wall-clock seconds until the best makespan first reaches *target*.

    ``None`` if the run never got there.
    """
    for r in trace.records:
        if r.best_makespan <= target_makespan:
            return r.elapsed_seconds
    return None


def iterations_to_within(
    trace: ConvergenceTrace, fraction: float
) -> Optional[int]:
    """First iteration whose best is within ``(1 + fraction)`` of the
    run's final best.  ``fraction=0.05`` asks "when was it 5%-close?".
    """
    if fraction < 0:
        raise ValueError(f"fraction must be >= 0, got {fraction}")
    if not len(trace):
        return None
    target = trace.final_best() * (1.0 + fraction)
    for r in trace.records:
        if r.best_makespan <= target:
            return r.iteration
    return None  # pragma: no cover - final record always qualifies


def normalized_auc(trace: ConvergenceTrace) -> float:
    """Area under the best-so-far curve, normalised to [1, inf).

    Computed over the iteration axis and divided by ``final_best * n``:
    exactly 1.0 means the run was at its final quality from iteration
    one; larger values mean quality arrived later.  Lower is better when
    comparing runs of equal length on the same workload.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    final = trace.final_best()
    if final <= 0:
        raise ValueError("final best makespan must be positive")
    total = sum(r.best_makespan for r in trace.records)
    return total / (final * n)


@dataclass(frozen=True)
class StagnationStats:
    """No-improvement streak statistics of one run."""

    longest_streak: int
    final_streak: int
    improvements: int
    total_iterations: int


def stagnation(trace: ConvergenceTrace) -> StagnationStats:
    """Longest / trailing no-improvement streaks and improvement count."""
    best = math.inf
    longest = 0
    streak = 0
    improvements = 0
    for r in trace.records:
        if r.best_makespan < best - 1e-12:
            best = r.best_makespan
            improvements += 1
            streak = 0
        else:
            streak += 1
            longest = max(longest, streak)
    return StagnationStats(
        longest_streak=longest,
        final_streak=streak,
        improvements=improvements,
        total_iterations=len(trace),
    )


def speedup_to_reach(
    fast: ConvergenceTrace, slow: ConvergenceTrace, target_makespan: float
) -> Optional[float]:
    """How many times faster *fast* reached *target* than *slow*.

    ``None`` when either run never reached the target; ``inf`` when the
    slow run took (effectively) zero time is impossible since records
    carry positive elapsed times.
    """
    tf = time_to_target(fast, target_makespan)
    ts = time_to_target(slow, target_makespan)
    if tf is None or ts is None:
        return None
    if tf <= 0:
        return math.inf
    return ts / tf
