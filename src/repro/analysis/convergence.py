"""Convergence analytics over traces.

Quantifies the *rate* claims the paper makes qualitatively ("SE reaches
good solutions faster", "the rate to reach good solutions improves with
Y"): normalised area under the best-so-far curve and stagnation
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.trace import ConvergenceTrace


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
