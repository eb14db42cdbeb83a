"""Time-budget-equalised algorithm comparison (paper §5.3, Figs. 5-7).

The paper plots "the best schedules found by both algorithms as real
time increases": SE and the GA each get the same wall-clock budget on
the same workload, and their best-so-far curves are sampled on a common
time grid.  :func:`compare_named` is that experiment for any of the
iterative engines (``compare_named(w, ["se", "ga"], budget)`` is the
paper's pairing); every caller — ``repro compare``, ``repro figure
5|6|7``, the Figs. 5-7 benchmarks — runs through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.trace import ConvergenceTrace
from repro.model.workload import Workload
from repro.schedule.backend import DEFAULT_NETWORK, DEFAULT_PLATFORM
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class ComparisonSeries:
    """One algorithm's sampled best-so-far curve.

    ``best_at[i]`` is the best makespan found within ``time_grid[i]``
    seconds (``inf`` until the first evaluation lands).  ``iterations``
    is the engine's own count (SA proposals, GA generations), which a
    thinned trace can undercount.
    """

    name: str
    time_grid: tuple[float, ...]
    best_at: tuple[float, ...]
    final_best: float
    iterations: int


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one head-to-head comparison on one workload."""

    workload_name: str
    time_budget: float
    series: tuple[ComparisonSeries, ...]

    def by_name(self, name: str) -> ComparisonSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r}")

    def winner_at(self, grid_index: int) -> Optional[str]:
        """Name of the strictly best algorithm at a grid point (None = tie)."""
        vals = [(s.best_at[grid_index], s.name) for s in self.series]
        vals.sort()
        if len(vals) >= 2 and vals[0][0] == vals[1][0]:
            return None
        if not math.isfinite(vals[0][0]):
            return None
        return vals[0][1]

    def winner_timeline(self) -> list[Optional[str]]:
        """Winner at every grid point — shows lead changes over time."""
        return [
            self.winner_at(i) for i in range(len(self.series[0].time_grid))
        ]

    def advantage(self, name_a: str, name_b: str) -> list[float]:
        """Per-grid-point ratio ``best_b / best_a`` (>1 = *a* is ahead).

        Grid points where either curve is still infinite yield ``nan``.
        """
        a = self.by_name(name_a)
        b = self.by_name(name_b)
        out = []
        for va, vb in zip(a.best_at, b.best_at):
            if math.isfinite(va) and math.isfinite(vb) and va > 0:
                out.append(vb / va)
            else:
                out.append(float("nan"))
        return out


def make_time_grid(budget: float, points: int) -> tuple[float, ...]:
    """*points* sample times from ``budget/points`` up to ``budget``."""
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    return tuple(budget * (i + 1) / points for i in range(points))


#: SE selection bias used by default in head-to-head comparisons.
#:
#: Under a wall-clock budget, sustained selection pressure matters more
#: than cheap iterations: on converged solutions the goodness vector
#: saturates near 1, and with the paper's positive large-problem bias
#: (§4.4) almost nothing gets selected — SE idles while the GA keeps
#: improving.  A mildly negative bias keeps ~10% of subtasks churning and
#: reproduces the paper's Figs. 5-6 outcome (SE ahead of GA); see
#: EXPERIMENTS.md for the calibration data.
COMPARISON_SE_BIAS = -0.1


#: Per-engine config overrides of every head-to-head: SE runs with the
#: calibrated :data:`COMPARISON_SE_BIAS`.
HEAD_TO_HEAD_OVERRIDES = {"se": {"selection_bias": COMPARISON_SE_BIAS}}


def comparison_names(algorithms: Sequence[str]) -> list[str]:
    """The engine kinds *algorithms* names, stripped and lower-cased.

    Raises
    ------
    ValueError
        If no name is given, a name is no iterative engine kind, or a
        name repeats.
    """
    from repro.runner.registry import ENGINE_KINDS

    names = [a.strip().lower() for a in algorithms if a.strip()]
    if not names:
        raise ValueError("need at least one algorithm name")
    unknown = sorted(set(names) - set(ENGINE_KINDS))
    if unknown:
        raise ValueError(
            f"unknown comparison algorithms {unknown}; available: "
            f"{', '.join(sorted(ENGINE_KINDS))}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate algorithm names in {names}")
    return names


def compare_named(
    workload: Workload,
    algorithms: Sequence[str],
    time_budget: float,
    grid_points: int = 20,
    seed: RandomSource = None,
    network: str = DEFAULT_NETWORK,
    platform: str = DEFAULT_PLATFORM,
) -> ComparisonResult:
    """Head-to-head among any of the iterative engines by name.

    Every named engine (``"se"``, ``"ga"``, ``"sa"``, ``"tabu"``) runs
    in turn under the same wall-clock budget, its iteration cap lifted,
    with an independent RNG stream spawned from *seed*; the best-so-far
    curves are sampled on one common grid.  Series are named with the
    upper-cased algorithm names.

    *network* selects the simulator backend every engine optimises
    against (``repro compare --network nic`` races the engines under
    NIC contention; every engine, batch-scoring ones included, scores
    through that network's scalar backend).  *platform* races them on one
    machine catalog (speed-scaled matrix + boot state; the default
    ``"uniform"`` changes nothing).
    """
    from repro.runner.registry import ENGINES
    from repro.utils.rng import spawn_rngs

    names = comparison_names(algorithms)
    grid = make_time_grid(time_budget, grid_points)
    series = []
    for name, rng in zip(names, spawn_rngs(seed, len(names))):
        entry = ENGINES[name]
        config = entry.build(
            network=network,
            platform=platform,
            **HEAD_TO_HEAD_OVERRIDES.get(name, {}),
            **entry.limits(None, time_budget),
            seed=rng,
        )
        res = entry.run(workload, config)
        series.append(
            series_from_trace(
                name.upper(), res.trace, grid, getattr(res, entry.counts)
            )
        )
    return ComparisonResult(
        workload_name=workload.name,
        time_budget=time_budget,
        series=tuple(series),
    )


def series_from_trace(
    name: str,
    trace: ConvergenceTrace,
    time_grid: Sequence[float],
    iterations: int,
) -> ComparisonSeries:
    """Sample one trace's best-so-far curve on *time_grid*; *iterations*
    is the run's own count."""
    grid = tuple(time_grid)
    return ComparisonSeries(
        name=name,
        time_grid=grid,
        best_at=tuple(trace.best_at_time(t) for t in grid),
        final_best=trace.final_best() if len(trace) else float("inf"),
        iterations=iterations,
    )
