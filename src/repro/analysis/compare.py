"""Time-budget-equalised algorithm comparison (paper §5.3, Figs. 5-7).

The paper plots "the best schedules found by both algorithms as real
time increases": SE and the GA each get the same wall-clock budget on
the same workload, and their best-so-far curves are sampled on a common
time grid.  :func:`compare_algorithms` is that harness, generalised to
any number of trace-producing runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

from repro.analysis.trace import ConvergenceTrace
from repro.baselines.ga import GAConfig
from repro.core.config import SEConfig
from repro.model.workload import Workload
from repro.schedule.backend import DEFAULT_NETWORK, DEFAULT_PLATFORM
from repro.utils.rng import RandomSource

#: A runner takes (workload, time_limit_seconds) and returns a trace.
Runner = Callable[[Workload, float], ConvergenceTrace]


@dataclass(frozen=True)
class ComparisonSeries:
    """One algorithm's sampled best-so-far curve.

    ``best_at[i]`` is the best makespan found within ``time_grid[i]``
    seconds (``inf`` until the first evaluation lands).
    """

    name: str
    time_grid: tuple[float, ...]
    best_at: tuple[float, ...]
    final_best: float
    iterations: int

    def first_finite_index(self) -> int:
        """Index of the first grid point with a real value."""
        for i, v in enumerate(self.best_at):
            if math.isfinite(v):
                return i
        return len(self.best_at)


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

    def final_winner(self) -> Optional[str]:
        """Winner at the end of the budget."""
        return self.winner_at(len(self.series[0].time_grid) - 1)

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


def engine_runner(
    kind: str, base=None, seed: RandomSource = None
) -> Runner:
    """A :func:`compare_algorithms` runner for engine-table *kind*.

    *base* is the engine's config (its defaults when omitted); the
    runner lifts the iteration cap and applies the table's wall-clock
    overrides, so the budget is the binding limit.  *seed*, when given,
    replaces the base config's seed.
    """
    from repro.runner.registry import ENGINES

    entry = ENGINES[kind]

    def run(workload: Workload, time_limit: float) -> ConvergenceTrace:
        cfg = base if base is not None else entry.build()
        cfg = replace(
            cfg,
            **entry.limits(None, time_limit),
            seed=seed if seed is not None else cfg.seed,
        )
        return entry.run(workload, cfg).trace

    return run


def se_runner(
    base: Optional[SEConfig] = None, seed: RandomSource = None
) -> Runner:
    """An SE runner for :func:`compare_algorithms` (see :func:`engine_runner`)."""
    return engine_runner("se", base, seed)


def ga_runner(
    base: Optional[GAConfig] = None, seed: RandomSource = None
) -> Runner:
    """A GA runner for :func:`compare_algorithms`; the runner also lifts
    Wang's stall rule (see :func:`engine_runner`)."""
    return engine_runner("ga", base, seed)


def compare_algorithms(
    workload: Workload,
    runners: Mapping[str, Runner],
    time_budget: float,
    grid_points: int = 20,
) -> ComparisonResult:
    """Run every runner under *time_budget* seconds; sample on one grid.

    Runners execute sequentially (each gets the full budget to itself),
    exactly like the paper's per-algorithm wall-clock measurement.
    """
    if not runners:
        raise ValueError("need at least one runner")
    grid = make_time_grid(time_budget, grid_points)
    return ComparisonResult(
        workload_name=workload.name,
        time_budget=time_budget,
        series=tuple(
            series_from_trace(name, runner(workload, time_budget), grid)
            for name, runner in runners.items()
        ),
    )


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


def se_vs_ga(
    workload: Workload,
    time_budget: float,
    se_config: Optional[SEConfig] = None,
    ga_config: Optional[GAConfig] = None,
    grid_points: int = 20,
    seed: RandomSource = None,
) -> ComparisonResult:
    """The paper's head-to-head: SE vs GA on one workload (Figs. 5-7).

    Unless *se_config* overrides it, SE runs with
    ``selection_bias=COMPARISON_SE_BIAS`` (see that constant's docstring).
    """
    from repro.utils.rng import spawn_rngs

    if se_config is None:
        se_config = SEConfig(selection_bias=COMPARISON_SE_BIAS)
    rng_se, rng_ga = spawn_rngs(seed, 2)
    return compare_algorithms(
        workload,
        {
            "SE": se_runner(se_config, seed=rng_se),
            "GA": ga_runner(ga_config, seed=rng_ga),
        },
        time_budget=time_budget,
        grid_points=grid_points,
    )


#: Per-engine config overrides of every head-to-head: SE runs with the
#: calibrated :data:`COMPARISON_SE_BIAS`, like :func:`se_vs_ga` does.
HEAD_TO_HEAD_OVERRIDES = {"se": {"selection_bias": COMPARISON_SE_BIAS}}


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

    Generalises :func:`se_vs_ga` to the full engine roster (``"se"``,
    ``"ga"``, ``"sa"``, ``"tabu"``): every named engine runs under the
    same wall-clock budget with an independent RNG stream spawned from
    *seed*, and the best-so-far curves are sampled on one common grid.
    Series are named with the upper-cased algorithm names.

    *network* selects the simulator backend every engine optimises
    against (``repro compare --network nic`` races the engines under
    NIC contention; every engine, batch-scoring ones included, scores
    through that network's scalar backend).  *platform* races them on one
    machine catalog (speed-scaled matrix + boot state; the default
    ``"uniform"`` changes nothing).
    """
    from repro.runner.registry import ENGINE_KINDS, ENGINES
    from repro.utils.rng import spawn_rngs

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
    rngs = spawn_rngs(seed, len(names))
    runners = {
        name.upper(): engine_runner(
            name,
            ENGINES[name].build(
                network=network,
                platform=platform,
                **HEAD_TO_HEAD_OVERRIDES.get(name, {}),
            ),
            seed=rng,
        )
        for name, rng in zip(names, rngs)
    }
    return compare_algorithms(
        workload, runners, time_budget=time_budget, grid_points=grid_points
    )


def series_from_trace(
    name: str,
    trace: ConvergenceTrace,
    time_grid: Sequence[float],
) -> ComparisonSeries:
    """Sample one trace's best-so-far curve on *time_grid*."""
    grid = tuple(time_grid)
    return ComparisonSeries(
        name=name,
        time_grid=grid,
        best_at=tuple(trace.best_at_time(t) for t in grid),
        final_best=trace.final_best() if len(trace) else float("inf"),
        iterations=len(trace),
    )


def head_to_head_experiment(
    workload,
    time_budget: float,
    algorithms: Optional[Mapping[str, Mapping]] = None,
    grid_points: int = 20,
    seed: int = 0,
    workers: int = 1,
    cache_dir=None,
    progress=None,
    network: str = DEFAULT_NETWORK,
) -> ComparisonResult:
    """The runner-backed head-to-head (Figs. 5-7 through :mod:`repro.runner`).

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.presets.WorkloadSpec` *recipe* — the
        workload is rebuilt inside each worker process.
    algorithms:
        Display name → extra registry params; defaults to the paper's
        pairing ``{"SE": ..., "GA": ...}`` with the calibrated
        ``COMPARISON_SE_BIAS``.  Every engine-table algorithm gets the
        table's limits for ``time_budget`` with caps lifted, exactly
        like :func:`engine_runner`.
    workers:
        With ``workers > 1`` the contenders run concurrently in separate
        processes.  RNG streams stay deterministic; note that for
        *wall-clock-budget* runs the stopping instant is physical time,
        so co-scheduling can shift how far each contender gets — use the
        default serial mode for paper-grade timing comparisons.
    network:
        Simulator backend every contender optimises against (explicit
        per-algorithm ``network`` entries in *algorithms* win; entries
        whose registry declaration does not accept a ``network``
        parameter are left untouched).
    """
    from repro.runner import (
        AlgorithmSpec,
        ExperimentSpec,
        algorithm_parameters,
        run_experiment,
    )
    from repro.runner.registry import ENGINES

    if algorithms is None:
        algorithms = {"SE": {}, "GA": {}}
    algo_specs = {}
    for name, extra in algorithms.items():
        params = dict(extra)
        kind = params.pop("kind", name.lower())
        entry = ENGINES.get(kind)
        base = dict(HEAD_TO_HEAD_OVERRIDES.get(kind, {}))
        if entry is not None:
            base.update(entry.limits(None, time_budget))
        # only algorithms that declare the parameter get the selector —
        # custom-registered entries without one must keep working
        if "network" in algorithm_parameters(kind):
            base["network"] = network
        base.update(params)
        algo_specs[name] = AlgorithmSpec.make(kind, **base)

    spec = ExperimentSpec(
        name=f"head-to-head-{workload.name or 'workload'}",
        algorithms=algo_specs,
        workloads=[workload],
        seeds=(seed,),
        base_seed=seed,
    )
    result = run_experiment(
        spec,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        keep_traces=True,
    )
    grid = make_time_grid(time_budget, grid_points)

    def cell_series(cell) -> ComparisonSeries:
        if cell.trace is None:
            # deterministic heuristic: done before the first sample point
            return ComparisonSeries(
                name=cell.algorithm,
                time_grid=grid,
                best_at=tuple(cell.makespan for _ in grid),
                final_best=cell.makespan,
                iterations=max(cell.iterations, 1),
            )
        return series_from_trace(cell.algorithm, cell.convergence_trace(), grid)

    series = tuple(cell_series(cell) for cell in result)
    return ComparisonResult(
        workload_name=workload.name or "workload",
        time_budget=time_budget,
        series=series,
    )
