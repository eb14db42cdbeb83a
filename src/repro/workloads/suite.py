"""Workload suites: grids over the paper's classification axes.

The paper's conclusions are phrased per workload *class* ("SE wins for
high connectivity and/or high heterogeneity and/or high CCR").  A
:class:`WorkloadSuite` materialises a grid of specs — optionally with
several seeds per cell — so experiments can aggregate over classes
instead of cherry-picking single instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.model.workload import Workload
from repro.utils.rng import RandomSource, as_rng
from repro.workloads.presets import WorkloadSpec, build_workload


@dataclass(frozen=True)
class SuiteCell:
    """One grid cell: the spec plus its replicate index."""

    spec: WorkloadSpec
    replicate: int

    def build(self) -> Workload:
        return build_workload(self.spec)


class WorkloadSuite:
    """A grid of workload specs over the three classification axes."""

    def __init__(
        self,
        num_tasks: int = 100,
        num_machines: int = 20,
        connectivities: Sequence[str] = ("low", "medium", "high"),
        heterogeneities: Sequence[str] = ("low", "medium", "high"),
        ccrs: Sequence[float] = (0.1, 0.5, 1.0),
        replicates: int = 1,
        seed: RandomSource = None,
    ):
        if replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {replicates}")
        if not connectivities or not heterogeneities or not ccrs:
            raise ValueError("every axis needs at least one value")
        self._cells: list[SuiteCell] = []
        rng = as_rng(seed)
        for conn in connectivities:
            for het in heterogeneities:
                for ccr in ccrs:
                    for rep in range(replicates):
                        child_seed = int(rng.integers(0, 2**63 - 1))
                        spec = WorkloadSpec(
                            num_tasks=num_tasks,
                            num_machines=num_machines,
                            connectivity=conn,
                            heterogeneity=het,
                            ccr=ccr,
                            seed=child_seed,
                            name=(
                                f"suite-{conn}conn-{het}het-ccr{ccr:g}-r{rep}"
                            ),
                        )
                        self._cells.append(SuiteCell(spec, rep))

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[SuiteCell]:
        return iter(self._cells)

    @property
    def cells(self) -> tuple[SuiteCell, ...]:
        return tuple(self._cells)


def smoke_suite(seed: RandomSource = None) -> WorkloadSuite:
    """A tiny 2x2x2 grid of small workloads for tests and quick checks."""
    return WorkloadSuite(
        num_tasks=20,
        num_machines=4,
        connectivities=("low", "high"),
        heterogeneities=("low", "high"),
        ccrs=(0.1, 1.0),
        replicates=1,
        seed=seed,
    )
