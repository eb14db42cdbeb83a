"""Random DAG generation (paper §5).

The paper evaluates on randomly generated workloads because "a generally
accepted set of HC benchmarks does not exist".  Its DAGs are classified
by **connectivity** — the number of data items relative to the number of
subtasks.  Two generators are provided:

* :func:`layered_dag` — the common layer-by-layer construction: subtasks
  are partitioned into levels and data items connect earlier levels to
  later ones, with the expected number of items per consumer set by the
  connectivity knob.  This mirrors the coarse-grained decomposition of a
  real application (stages feeding stages).
* :func:`gnp_dag` — an Erdős–Rényi-style DAG (each forward pair gets an
  edge independently), useful for property tests and stress tests.

Every edge is materialised as one :class:`~repro.model.task.DataItem`
whose size is drawn here and later monetised into transfer times by
:mod:`repro.workloads.ccr`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.graph import TaskGraph
from repro.model.task import DataItem
from repro.utils.rng import RandomSource, as_rng

#: Mapping of the paper's qualitative connectivity classes to the mean
#: number of data items per non-entry subtask.
CONNECTIVITY_EDGES_PER_TASK = {"low": 1.0, "medium": 2.0, "high": 4.0}


def _partition_levels(
    rng: np.random.Generator, num_tasks: int, num_levels: int
) -> list[list[int]]:
    """Split tasks 0..k-1 into *num_levels* non-empty ordered levels."""
    if num_levels > num_tasks:
        raise ValueError(
            f"num_levels ({num_levels}) cannot exceed num_tasks ({num_tasks})"
        )
    # one guaranteed member per level, remaining tasks spread at random
    counts = np.ones(num_levels, dtype=int)
    extra = rng.multinomial(num_tasks - num_levels, [1 / num_levels] * num_levels)
    counts += extra
    levels: list[list[int]] = []
    start = 0
    for c in counts:
        levels.append(list(range(start, start + int(c))))
        start += int(c)
    return levels


def layered_dag(
    num_tasks: int,
    num_levels: Optional[int] = None,
    edges_per_task: float = 2.0,
    size_range: tuple[float, float] = (0.5, 1.5),
    locality: float = 0.6,
    seed: RandomSource = None,
) -> TaskGraph:
    """Generate a layered random DAG.

    Parameters
    ----------
    num_tasks:
        ``k`` (>= 1).
    num_levels:
        Number of layers; defaults to ``round(sqrt(k))`` clamped to
        [2, k] which gives the balanced diamond shape typical of
        coarse-grained applications.
    edges_per_task:
        Expected number of *incoming* data items per non-first-level
        subtask — the connectivity knob (see
        :data:`CONNECTIVITY_EDGES_PER_TASK`).
    size_range:
        Data item sizes are drawn uniformly from this range.
    locality:
        Probability that an item's producer comes from the immediately
        preceding level (otherwise a uniformly random earlier level);
        higher locality = chain-ier graphs.
    seed:
        Randomness source.

    Every non-first-level subtask receives at least one incoming item, so
    the graph has a single "wave" structure with no isolated islands
    beyond the first level.
    """
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    if edges_per_task < 0:
        raise ValueError(f"edges_per_task must be >= 0, got {edges_per_task}")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    lo, hi = size_range
    if lo < 0 or hi < lo:
        raise ValueError(f"size_range must satisfy 0 <= lo <= hi, got {size_range}")
    rng = as_rng(seed)

    if num_tasks == 1:
        return TaskGraph(1)

    if num_levels is None:
        num_levels = int(round(num_tasks**0.5))
    num_levels = max(2, min(num_levels, num_tasks))
    levels = _partition_levels(rng, num_tasks, num_levels)

    edges: set[tuple[int, int]] = set()
    for li in range(1, num_levels):
        earlier = [t for lvl in levels[:li] for t in lvl]
        prev = levels[li - 1]
        for consumer in levels[li]:
            # at least one incoming item; Poisson around the target rate
            n_in = max(1, int(rng.poisson(edges_per_task)))
            n_in = min(n_in, len(earlier))
            producers: set[int] = set()
            while len(producers) < n_in:
                if rng.random() < locality or len(earlier) == len(prev):
                    producers.add(prev[int(rng.integers(len(prev)))])
                else:
                    producers.add(earlier[int(rng.integers(len(earlier)))])
            for producer in producers:
                edges.add((producer, consumer))

    items = [
        DataItem(
            i,
            producer=u,
            consumer=v,
            size=float(rng.uniform(lo, hi)),
        )
        for i, (u, v) in enumerate(sorted(edges))
    ]
    return TaskGraph(num_tasks, items)


def gnp_dag(
    num_tasks: int,
    edge_probability: float,
    size_range: tuple[float, float] = (0.5, 1.5),
    seed: RandomSource = None,
) -> TaskGraph:
    """Erdős–Rényi-style DAG: forward edge ``(i, j)``, ``i < j``, w.p. *p*.

    Node labels are randomly permuted *positions*, so the topological
    order is not simply ``0..k-1`` (important for not letting tests pass
    by accident).
    """
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    lo, hi = size_range
    if lo < 0 or hi < lo:
        raise ValueError(f"size_range must satisfy 0 <= lo <= hi, got {size_range}")
    rng = as_rng(seed)

    position_of = rng.permutation(num_tasks)  # task id -> precedence rank
    edges: list[tuple[int, int]] = []
    for u in range(num_tasks):
        for v in range(num_tasks):
            if position_of[u] < position_of[v] and rng.random() < edge_probability:
                edges.append((u, v))
    items = [
        DataItem(i, producer=u, consumer=v, size=float(rng.uniform(lo, hi)))
        for i, (u, v) in enumerate(sorted(edges))
    ]
    return TaskGraph(num_tasks, items)


def chain_dag(num_tasks: int, size: float = 1.0) -> TaskGraph:
    """A deterministic linear pipeline s0 -> s1 -> ... (tests/examples)."""
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    items = [
        DataItem(i, producer=i, consumer=i + 1, size=size)
        for i in range(num_tasks - 1)
    ]
    return TaskGraph(num_tasks, items)


def fork_join_dag(num_branches: int, size: float = 1.0) -> TaskGraph:
    """A deterministic fork-join: source -> branches -> sink (tests/examples)."""
    if num_branches < 1:
        raise ValueError(f"num_branches must be >= 1, got {num_branches}")
    k = num_branches + 2
    sink = k - 1
    items = []
    idx = 0
    for b in range(1, num_branches + 1):
        items.append(DataItem(idx, producer=0, consumer=b, size=size))
        idx += 1
    for b in range(1, num_branches + 1):
        items.append(DataItem(idx, producer=b, consumer=sink, size=size))
        idx += 1
    return TaskGraph(k, items)
