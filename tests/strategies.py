"""Hypothesis strategies for the property-based tests.

DAGs are generated directly (edges only between ``i < j``) so every
drawn graph is acyclic by construction; matrices are derived from a
drawn seed through the library's own generators, keeping draw sizes
small while still covering the full value space.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.model import (
    ExecutionTimeMatrix,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
    num_pairs,
)
from repro.schedule import random_valid_string


@st.composite
def task_graphs(draw, min_tasks: int = 1, max_tasks: int = 10):
    """A random DAG with up to ``k(k-1)/2`` edges (i -> j only for i < j)."""
    k = draw(st.integers(min_tasks, max_tasks))
    all_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if all_pairs:
        edges = draw(
            st.lists(
                st.sampled_from(all_pairs),
                unique=True,
                max_size=min(len(all_pairs), 3 * k),
            )
        )
    else:
        edges = []
    return TaskGraph.from_edges(k, sorted(edges))


@st.composite
def workloads(
    draw,
    min_tasks: int = 1,
    max_tasks: int = 8,
    min_machines: int = 1,
    max_machines: int = 4,
):
    """A random workload: drawn DAG + seeded random E and Tr."""
    graph = draw(task_graphs(min_tasks=min_tasks, max_tasks=max_tasks))
    l = draw(st.integers(min_machines, max_machines))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    e = ExecutionTimeMatrix(
        rng.uniform(1.0, 50.0, size=(l, graph.num_tasks))
    )
    tr = TransferTimeMatrix(
        rng.uniform(0.0, 20.0, size=(num_pairs(l), graph.num_data_items)),
        num_machines=l,
    )
    return Workload(graph, e, tr)


@st.composite
def workload_strings(draw, **kwargs):
    """A workload together with a uniformly random valid string for it."""
    w = draw(workloads(**kwargs))
    seed = draw(st.integers(0, 2**32 - 1))
    s = random_valid_string(w.graph, w.num_machines, seed)
    return w, s


@st.composite
def graph_strings(draw, **kwargs):
    """A graph, a machine count and a valid string over them."""
    graph = draw(task_graphs(**kwargs))
    l = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    s = random_valid_string(graph, l, seed)
    return graph, l, s


#: Arrival instants mix a small shared grid with free floats so exact
#: ties (simultaneous arrivals) are drawn often, not almost never.
_ARRIVAL_GRID = (0.0, 1.0, 2.5, 10.0, 50.0)


@st.composite
def arrival_traces(
    draw,
    min_jobs: int = 0,
    max_jobs: int = 4,
    max_tasks: int = 6,
    max_machines: int = 3,
):
    """A small :class:`repro.online.JobStream` over one machine pool.

    Jobs are declarative :class:`~repro.workloads.presets.WorkloadSpec`
    recipes (distinct seeded DAGs of varying size/class) with arrival
    times that frequently coincide, exercising the service's
    same-instant tie-breaks.
    """
    from repro.online import JobArrival, JobStream
    from repro.workloads.presets import WorkloadSpec

    l = draw(st.integers(1, max_machines))
    n = draw(st.integers(min_jobs, max_jobs))
    arrivals = []
    for i in range(n):
        t = draw(
            st.one_of(
                st.sampled_from(_ARRIVAL_GRID),
                st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
            )
        )
        spec = WorkloadSpec(
            num_tasks=draw(st.integers(1, max_tasks)),
            num_machines=l,
            connectivity=draw(st.sampled_from(("low", "medium", "high"))),
            heterogeneity=draw(st.sampled_from(("low", "medium", "high"))),
            ccr=draw(st.sampled_from((0.1, 0.5, 1.0))),
            seed=draw(st.integers(0, 2**31 - 1)),
            t_arrival=t,
        )
        arrivals.append(JobArrival(job_id=f"job-{i}", spec=spec))
    return JobStream(arrivals)
