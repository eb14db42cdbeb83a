"""Small statistics toolkit for aggregating repeated stochastic runs.

Both SE and the GA are randomised, so per-class conclusions ("SE wins on
high-CCR workloads") must aggregate several seeds.  These helpers keep
the aggregation honest: normal-approximation confidence intervals for
means, geometric means for makespan *ratios* (ratios multiply, so the
arithmetic mean would be biased), and win/loss records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SummaryStats:
    """Mean / spread summary of one metric over repeated runs."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def describe(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.3f} ± {self.std:.3f} "
            f"[{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"range=({self.minimum:.3f}, {self.maximum:.3f})"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Normal-approximation summary of *values* (n >= 1).

    With one sample the interval collapses to the point.
    """
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    z = _z_value(confidence)
    half = z * std / math.sqrt(n) if n > 1 else 0.0
    return SummaryStats(
        n=n,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
        ci_low=mean - half,
        ci_high=mean + half,
    )


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile via inverse error function."""
    # erfinv through the math.erf bisection: cheap, dependency-free, and
    # accurate to ~1e-12 which is far more than reporting needs.
    target = confidence
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.erf(mid / math.sqrt(2)) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("cannot take the geometric mean of nothing")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class WinLossRecord:
    """Win/tie/loss tally of algorithm A against algorithm B."""

    wins: int
    ties: int
    losses: int

    @property
    def n(self) -> int:
        return self.wins + self.ties + self.losses

    def win_rate(self) -> float:
        """Wins / decided matches (ties excluded); 0.5 if nothing decided."""
        decided = self.wins + self.losses
        if decided == 0:
            return 0.5
        return self.wins / decided

    def describe(self) -> str:
        return f"{self.wins}W-{self.ties}T-{self.losses}L"


def win_loss(
    a_values: Sequence[float],
    b_values: Sequence[float],
    rel_tol: float = 1e-9,
) -> WinLossRecord:
    """Pairwise win/loss of A vs B on matched runs (lower value wins)."""
    if len(a_values) != len(b_values):
        raise ValueError("paired sequences must have equal length")
    wins = ties = losses = 0
    for a, b in zip(a_values, b_values):
        if math.isclose(a, b, rel_tol=rel_tol):
            ties += 1
        elif a < b:
            wins += 1
        else:
            losses += 1
    return WinLossRecord(wins=wins, ties=ties, losses=losses)
