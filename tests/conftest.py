"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
    paper_sample_workload,
)
from repro.workloads import build_workload, WorkloadSpec


@pytest.fixture(scope="session", autouse=True)
def _compiled_walker() -> None:
    """Build (or load) the compiled walker once, before any test runs.

    A first build takes about a second; inside whichever Hypothesis test
    happened to construct the first simulator it would trip the
    per-example deadline.
    """
    from repro.schedule import walker

    walker.load()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sample_workload() -> Workload:
    """The paper's Figure-1 instance (7 tasks, 2 machines)."""
    return paper_sample_workload()


@pytest.fixture
def diamond_workload() -> Workload:
    """A hand-built 4-task diamond on 2 machines with round numbers.

    DAG: s0 -> {s1, s2} -> s3, data items d0..d3.  E and Tr are chosen so
    expected schedule values are easy to compute by hand in tests.
    """
    graph = TaskGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    e = ExecutionTimeMatrix(
        [
            # s0   s1   s2   s3
            [10.0, 20.0, 30.0, 10.0],  # m0
            [15.0, 10.0, 20.0, 25.0],  # m1
        ]
    )
    tr = TransferTimeMatrix([[5.0, 5.0, 5.0, 5.0]], num_machines=2)
    return Workload(graph, e, tr, name="diamond")


@pytest.fixture
def tiny_workload() -> Workload:
    """A 20-task / 4-machine random workload for engine tests."""
    return build_workload(
        WorkloadSpec(
            num_tasks=20,
            num_machines=4,
            connectivity="medium",
            heterogeneity="medium",
            ccr=0.5,
            seed=777,
            name="tiny",
        )
    )


@pytest.fixture
def single_machine_workload() -> Workload:
    """Degenerate system with one machine — all comm is free."""
    graph = TaskGraph.from_edges(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    e = ExecutionTimeMatrix([[3.0, 4.0, 5.0, 6.0, 7.0]])
    tr = TransferTimeMatrix(np.zeros((0, 4)), num_machines=1)
    return Workload(graph, e, tr, name="uni")
