"""Grid experiments: algorithms × workload suite → per-class conclusions.

The paper's §5.3 verdict is phrased per workload *class*: "SE produced
better solutions than GA ... for workloads with relatively high
connectivity, and/or high heterogeneity, and/or high CCR".  This module
turns that kind of claim into a computed object: run a set of algorithms
over a :class:`~repro.workloads.suite.WorkloadSuite`, aggregate
normalized makespans per classification axis, and report win/loss
records between any two algorithms conditioned on a class value.

Execution goes through :mod:`repro.runner`: pass algorithms as
:class:`~repro.runner.spec.AlgorithmSpec` values and :func:`run_grid`
fans the whole grid out over ``workers`` processes with optional
resume-from-cache.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.analysis.report import markdown_table
from repro.analysis.stats import WinLossRecord, geometric_mean, win_loss
from repro.runner.pool import ProgressFn, run_experiment
from repro.runner.results import CellResult, ExperimentResult
from repro.runner.spec import AlgorithmSpec, ExperimentSpec
from repro.workloads.suite import WorkloadSuite


@dataclass
class GridResult:
    """All measurements of one grid run, with aggregation helpers: one
    :class:`~repro.runner.results.CellResult` per (workload, algorithm,
    seed) cell."""

    cells: list[CellResult] = field(default_factory=list)

    @property
    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.algorithm, None)
        return list(seen)

    def _pairs(
        self, algo_a: str, algo_b: str, predicate=None
    ) -> tuple[list[float], list[float]]:
        # A workload may carry several replicates per algorithm (one per
        # experiment seed, in canonical seed order); pair them index-wise
        # so every replicate contributes one comparison.  Workloads where
        # the two algorithms have different replicate counts (e.g. a
        # partially merged shard) cannot be paired reliably and are
        # skipped, matching the old incomplete-workload behaviour.
        by_workload: dict[str, dict[str, list[CellResult]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        for c in self.cells:
            by_workload[c.workload][c.algorithm].append(c)
        a_vals, b_vals = [], []
        for cells in by_workload.values():
            if algo_a not in cells or algo_b not in cells:
                continue
            if len(cells[algo_a]) != len(cells[algo_b]):
                continue
            for ca, cb in zip(cells[algo_a], cells[algo_b]):
                if predicate is not None and not predicate(ca):
                    continue
                a_vals.append(ca.makespan)
                b_vals.append(cb.makespan)
        return a_vals, b_vals

    def win_loss(
        self,
        algo_a: str,
        algo_b: str,
        connectivity: str | None = None,
        heterogeneity: str | None = None,
        ccr: float | None = None,
        network: str | None = None,
        platform: str | None = None,
        rel_tol: float = 1e-3,
    ) -> WinLossRecord:
        """Win/loss of *algo_a* vs *algo_b*, optionally class-restricted.

        ``rel_tol`` treats makespans within 0.1% as ties by default —
        stochastic heuristics routinely land that close.  ``network``
        restricts the record to cells scored under one simulator
        backend, ``platform`` to one machine catalog (makespans from
        different cost models are not comparable head-to-head).
        """

        def predicate(cell: CellResult) -> bool:
            if connectivity is not None and cell.connectivity != connectivity:
                return False
            if heterogeneity is not None and cell.heterogeneity != heterogeneity:
                return False
            if ccr is not None and cell.ccr != ccr:
                return False
            if network is not None and cell.network != network:
                return False
            if platform is not None and cell.platform != platform:
                return False
            return True

        a_vals, b_vals = self._pairs(algo_a, algo_b, predicate)
        return win_loss(a_vals, b_vals, rel_tol=rel_tol)

    def geomean_normalized(self, algorithm: str) -> float:
        """Geometric-mean normalized makespan of one algorithm."""
        vals = [c.normalized for c in self.cells if c.algorithm == algorithm]
        if not vals:
            raise KeyError(f"no measurements for algorithm {algorithm!r}")
        return geometric_mean(vals)

    def league_table(self) -> list[tuple[str, float]]:
        """Algorithms sorted by geometric-mean normalized makespan."""
        return sorted(
            ((a, self.geomean_normalized(a)) for a in self.algorithms),
            key=lambda kv: kv[1],
        )

    def axis_report(self, algo_a: str, algo_b: str) -> str:
        """Markdown: win/loss of A vs B conditioned on every class value.

        This is the §5.3 conclusion as a table: one row per
        (axis, value), with A's record against B on that slice.
        """
        rows: list[Sequence[object]] = []
        conns = sorted({c.connectivity for c in self.cells})
        hets = sorted({c.heterogeneity for c in self.cells})
        ccrs = sorted({c.ccr for c in self.cells})
        for value in conns:
            rec = self.win_loss(algo_a, algo_b, connectivity=value)
            rows.append(("connectivity", value, rec.describe(), f"{rec.win_rate():.2f}"))
        for value in hets:
            rec = self.win_loss(algo_a, algo_b, heterogeneity=value)
            rows.append(("heterogeneity", value, rec.describe(), f"{rec.win_rate():.2f}"))
        for value in ccrs:
            rec = self.win_loss(algo_a, algo_b, ccr=value)
            rows.append(("CCR", value, rec.describe(), f"{rec.win_rate():.2f}"))
        return markdown_table(
            ["axis", "value", f"{algo_a} vs {algo_b}", "win rate"], rows
        )


def grid_from_experiment(result: ExperimentResult) -> GridResult:
    """Project an :class:`ExperimentResult` onto the grid view."""
    return GridResult(cells=list(result))


def run_grid(
    suite: WorkloadSuite,
    algorithms: Mapping[str, AlgorithmSpec],
    workers: int = 1,
    cache_dir: Optional[str | Path] = None,
    progress: Optional[ProgressFn] = None,
    name: str = "grid",
    base_seed: int = 0,
) -> GridResult:
    """Run every algorithm on every suite cell; returns all measurements.

    The grid runs through :func:`repro.runner.run_experiment`, so sweeps
    shard across *workers* processes and finished cells resume from
    *cache_dir*.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    experiment = ExperimentSpec(
        name=name,
        algorithms=algorithms,
        workloads=[cell.spec for cell in suite],
        seeds=(0,),
        base_seed=base_seed,
    )
    return grid_from_experiment(
        run_experiment(
            experiment,
            workers=workers,
            cache_dir=cache_dir,
            progress=progress,
            keep_traces=False,
        )
    )
