"""The application DAG: subtask indices as vertices, data items as edges.

``TaskGraph`` is the immutable structural backbone of the library.  It is
built once per workload and then queried millions of times from the SE /
GA inner loops, so all adjacency is precomputed into tuples of dense ints
at construction time.  :mod:`networkx` (the optional ``graph`` extra) is
used only by the :meth:`TaskGraph.from_networkx` /
:meth:`TaskGraph.to_networkx` interop methods, and the latter imports it
on call, so ``import repro`` does not need it.
"""

from __future__ import annotations

from numbers import Integral
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from repro.model.task import DataItem

if TYPE_CHECKING:
    import networkx as nx


class TaskGraph:
    """A directed acyclic graph of ``k`` subtasks linked by :class:`DataItem`.

    Parameters
    ----------
    num_tasks:
        ``k``, an int ``>= 1``; the subtasks are ``0..k-1``.
    data_items:
        The ``p`` data items; indices must be dense ``0..p-1`` (any order).
        Each item contributes one edge ``producer -> consumer``.  Parallel
        items between the same pair of subtasks are allowed.

    Raises
    ------
    TypeError
        If *num_tasks* is not an int (a bool or a float is refused).
    ValueError
        If *num_tasks* is below 1, item indices are not dense, an item
        references a missing subtask, or the resulting directed graph has
        a cycle.
    """

    __slots__ = (
        "_k",
        "_items",
        "_pred",
        "_succ",
        "_in_items",
        "_out_items",
        "_topo",
        "_levels",
        "_num_levels",
    )

    def __init__(self, num_tasks: int, data_items: Iterable[DataItem] = ()):
        if isinstance(num_tasks, bool) or not isinstance(num_tasks, Integral):
            raise TypeError(
                f"num_tasks must be an int, got {type(num_tasks).__name__}"
            )
        k = int(num_tasks)
        if k < 1:
            raise ValueError(
                f"a task graph needs at least one subtask, got num_tasks={k}"
            )
        items = sorted(data_items)
        for expect, d in enumerate(items):
            if d.index != expect:
                raise ValueError(
                    f"data item indices must be dense 0..{len(items) - 1}; "
                    f"missing or duplicate index near {expect}"
                )
            if d.producer >= k or d.consumer >= k:
                raise ValueError(
                    f"data item {d.index} references subtask "
                    f"({d.producer} -> {d.consumer}) outside 0..{k - 1}"
                )
        self._k = k
        self._items: Tuple[DataItem, ...] = tuple(items)

        pred: list[list[int]] = [[] for _ in range(k)]
        succ: list[list[int]] = [[] for _ in range(k)]
        in_items: list[list[int]] = [[] for _ in range(k)]
        out_items: list[list[int]] = [[] for _ in range(k)]
        for d in self._items:
            if d.producer not in pred[d.consumer]:
                pred[d.consumer].append(d.producer)
            if d.consumer not in succ[d.producer]:
                succ[d.producer].append(d.consumer)
            in_items[d.consumer].append(d.index)
            out_items[d.producer].append(d.index)
        self._pred = tuple(tuple(sorted(xs)) for xs in pred)
        self._succ = tuple(tuple(sorted(xs)) for xs in succ)
        self._in_items = tuple(tuple(xs) for xs in in_items)
        self._out_items = tuple(tuple(xs) for xs in out_items)

        topo = self._kahn_topological_order()
        if topo is None:
            raise ValueError("task graph contains a cycle; it must be a DAG")
        self._topo: Tuple[int, ...] = topo

        levels = [0] * k
        for t in topo:
            if self._pred[t]:
                levels[t] = 1 + max(levels[q] for q in self._pred[t])
        self._levels: Tuple[int, ...] = tuple(levels)
        self._num_levels = (max(levels) + 1) if k else 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_tasks: int,
        edges: Sequence[Tuple[int, int]],
        sizes: Optional[Sequence[float]] = None,
    ) -> "TaskGraph":
        """Build a graph from ``(producer, consumer)`` pairs.

        Data item ``i`` is created for ``edges[i]`` with size
        ``sizes[i]`` (default 1.0).  Convenient for tests and examples.
        """
        if sizes is not None and len(sizes) != len(edges):
            raise ValueError("sizes must match edges in length")
        items = [
            DataItem(
                i,
                producer=u,
                consumer=v,
                size=1.0 if sizes is None else float(sizes[i]),
            )
            for i, (u, v) in enumerate(edges)
        ]
        return cls(num_tasks, items)

    @classmethod
    def from_networkx(cls, g: "nx.DiGraph") -> "TaskGraph":
        """Build from a networkx DiGraph whose nodes are ``0..k-1``.

        Edge attribute ``size`` (default 1.0) becomes the data item size.
        """
        nodes = sorted(g.nodes())
        if nodes != list(range(len(nodes))):
            raise ValueError("networkx graph nodes must be dense 0..k-1 ints")
        edges = sorted(g.edges())
        sizes = [float(g.edges[u, v].get("size", 1.0)) for u, v in edges]
        return cls.from_edges(len(nodes), edges, sizes)

    def to_networkx(self) -> "nx.DiGraph":
        """Export to a networkx DiGraph (one edge per data item pair).

        Parallel data items are merged into a single edge whose ``items``
        attribute lists their indices and whose ``size`` sums their sizes.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_tasks))
        for d in self._items:
            if g.has_edge(d.producer, d.consumer):
                g.edges[d.producer, d.consumer]["items"].append(d.index)
                g.edges[d.producer, d.consumer]["size"] += d.size
            else:
                g.add_edge(d.producer, d.consumer, items=[d.index], size=d.size)
        return g

    def _kahn_topological_order(self) -> Optional[Tuple[int, ...]]:
        """Deterministic (smallest-index-first) Kahn topological sort.

        Returns ``None`` if a cycle is detected.
        """
        import heapq

        k = self.num_tasks
        indeg = [len(self._pred[t]) for t in range(k)]
        heap = [t for t in range(k) if indeg[t] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            t = heapq.heappop(heap)
            order.append(t)
            for s in self._succ[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, s)
        if len(order) != k:
            return None
        return tuple(order)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """``k`` — the number of subtasks."""
        return self._k

    @property
    def num_data_items(self) -> int:
        """``p`` — the number of data items (edges)."""
        return len(self._items)

    @property
    def data_items(self) -> Tuple[DataItem, ...]:
        return self._items

    def data_item(self, index: int) -> DataItem:
        return self._items[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(k={self.num_tasks}, p={self.num_data_items}, "
            f"levels={self.num_levels})"
        )

    # ------------------------------------------------------------------
    # structure queries (hot paths: all return precomputed tuples)
    # ------------------------------------------------------------------

    def predecessors(self, task: int) -> Tuple[int, ...]:
        """Distinct direct predecessors of *task*, sorted ascending."""
        return self._pred[task]

    def successors(self, task: int) -> Tuple[int, ...]:
        """Distinct direct successors of *task*, sorted ascending."""
        return self._succ[task]

    def in_items(self, task: int) -> Tuple[int, ...]:
        """Data items consumed by *task*."""
        return self._in_items[task]

    def out_items(self, task: int) -> Tuple[int, ...]:
        """Data items produced by *task*."""
        return self._out_items[task]

    def topological_order(self) -> Tuple[int, ...]:
        """Deterministic topological order (smallest index first)."""
        return self._topo

    def level(self, task: int) -> int:
        """DAG level: 0 for entry tasks, else 1 + max level of predecessors.

        The paper's selection step (§4.4) orders selected subtasks by this
        level so producers are re-allocated before their consumers.
        """
        return self._levels[task]

    @property
    def levels(self) -> Tuple[int, ...]:
        """All task levels as a tuple indexed by task id."""
        return self._levels

    @property
    def num_levels(self) -> int:
        """Number of distinct levels (height of the DAG + 1)."""
        return self._num_levels

    def entry_tasks(self) -> Tuple[int, ...]:
        """Tasks with no predecessors."""
        return tuple(t for t in range(self.num_tasks) if not self._pred[t])

    def exit_tasks(self) -> Tuple[int, ...]:
        """Tasks with no successors."""
        return tuple(t for t in range(self.num_tasks) if not self._succ[t])

    def is_valid_order(self, order: Sequence[int]) -> bool:
        """True iff *order* is a permutation of all tasks respecting edges."""
        if sorted(order) != list(range(self.num_tasks)):
            return False
        pos: Dict[int, int] = {t: i for i, t in enumerate(order)}
        return all(
            pos[d.producer] < pos[d.consumer] for d in self._items
        )

    def connectivity(self) -> float:
        """Edge density: distinct edges / possible forward edges.

        The paper classifies workloads by "connectivity" — the number of
        data items relative to graph size.  We report the fraction of the
        ``k(k-1)/2`` possible DAG edges that are present (parallel data
        items counted once), which is 0 for an edgeless graph and 1 for a
        total order.
        """
        k = self.num_tasks
        if k < 2:
            return 0.0
        distinct = {(d.producer, d.consumer) for d in self._items}
        return len(distinct) / (k * (k - 1) / 2)
