"""Batch kernels: score many schedules in one compiled walk.

Every search algorithm in the library asks the same question many times
per iteration: *what is the makespan of this candidate string?*  The GA
scores a whole population per generation and random search a stream of
independent samples.  The scalar
:class:`~repro.schedule.simulator.Simulator` answers one string at a
time; :class:`BatchSimulator` (contention-free) and
:class:`ContentionBatchSimulator` (``"nic"``) answer a whole batch in
one call of the network's walk in :mod:`repro.schedule.jit`, which
numba compiles into a row-parallel loop nest.  They are the ``jit``
tier of the :class:`~repro.optim.evaluation.EvaluationService`, chosen
when numba imports; without numba the service loops its scalar backend
instead (the ``sequential`` tier), and the walks here run as plain
Python.

Kernel layout (packed once per workload)
----------------------------------------

* ``E``   — the ``(l, k)`` execution-time matrix, C-contiguous float64;
* ``tr``  — the ``(l(l-1)/2, p)`` transfer-time matrix, padded with one
  all-zero row (the "row" of a same-machine pair) and one all-zero
  column;
* the DAG's in-edges in **padded CSR** form: ``deg[t]`` (in-degree) and
  ``pad_prod[t, j]`` / ``pad_item[t, j]`` (producer and data-item of
  task ``t``'s ``j``-th input) — shape ``(k, D)`` with ``D`` the
  maximum in-degree;
* ``pair_row[a, b]`` — an ``(l, l)`` lookup table for the
  upper-triangular ``tr`` row of a machine pair; its diagonal points at
  the all-zero padding row, so a same-machine transfer reads a stored
  0.0 instead of branching;
* ``edge_prod`` / ``edge_cons`` — flat producer/consumer arrays used by
  the vectorized precedence validation.

The walks perform the same float operations, with the same operands and
in the same order, as the scalar simulators, so results are
**bit-identical** to :meth:`Simulator.makespan` — a property enforced by
``tests/properties/test_jit_properties.py``.

>>> from repro.schedule.operations import random_valid_string
>>> from repro.schedule.simulator import Simulator
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=3)
>>> batch = [random_valid_string(w.graph, w.num_machines, s) for s in range(4)]
>>> kernel = BatchSimulator(w)
>>> got = kernel.string_makespans(batch)
>>> scalar = Simulator(w)
>>> got.tolist() == [scalar.string_makespan(s) for s in batch]
True
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Optional, Sequence

import numpy as np

from repro.model.matrices import pair_table
from repro.model.workload import Workload
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import InvalidScheduleError


def _as_index_matrix(rows: Any, k: int, name: str) -> np.ndarray:
    """*rows* as a C-contiguous ``(B, k)`` integer array."""
    arr = np.ascontiguousarray(rows, dtype=np.intp)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, k)
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ValueError(
            f"{name} must have shape (batch, {k}), got {arr.shape}"
        )
    return arr


class WorkloadPack:
    """Per-workload tensors shared by the batch kernels.

    Both :class:`BatchSimulator` (contention-free) and
    :class:`ContentionBatchSimulator` ("nic") walk schedules with the
    same gather tables: the ``(l, k)`` execution matrix, the zero-padded
    transfer matrix, the padded-CSR in-edge lanes and the machine-pair
    row lookup described in the module docstring.  Packing them lives
    here, once, so the kernels cannot drift apart on layout.

    The NIC kernel additionally needs the *out*-edge side of the DAG
    (which items each task pushes, in ascending item-index order — the
    documented NIC serialisation order); those tables are built lazily
    by :meth:`out_tables` so contention-free packing does not pay for
    them.  Lanes past a task's degree hold a sentinel (producer or
    consumer ``k``, item ``num_items``) that the walks never read.

    ``like`` shares structure across packs of the *same DAG* with
    different matrices (the scenario tier builds one pack per sampled
    scenario): the graph-derived tables (CSR lanes, pair rows, edge
    arrays, out-edge lanes) are reused by reference from the donor pack
    and only the value tables (``E``, ``tr``) are recomputed — they are
    what actually differ between scenarios.
    """

    __slots__ = (
        "workload",
        "k",
        "l",
        "num_items",
        "E",
        "tr",
        "pair_row",
        "deg",
        "pad_prod",
        "pad_item",
        "edge_prod",
        "edge_cons",
        "_out_tables",
    )

    def __init__(
        self, workload: Workload, like: Optional["WorkloadPack"] = None
    ):
        self.workload = workload
        graph = workload.graph
        k = self.k = graph.num_tasks
        l = self.l = workload.num_machines
        self.E = np.ascontiguousarray(workload.exec_times.values)

        # Tr padded with one all-zero row (the "row" of a same-machine
        # pair) and one all-zero column (the sentinel data item).
        tr = workload.transfer_times.values
        num_rows, num_items = tr.shape
        self.num_items = num_items
        tr_pad = np.zeros((num_rows + 1, num_items + 1))
        if tr.size:
            tr_pad[:num_rows, :num_items] = tr
        self.tr = tr_pad

        if like is not None:
            if like.workload.graph is not graph or like.l != l:
                raise ValueError(
                    "like= requires a pack of the same DAG and machine "
                    "count (structure tables are shared by reference)"
                )
            self.pair_row = like.pair_row
            self.deg = like.deg
            self.pad_prod = like.pad_prod
            self.pad_item = like.pad_item
            self.edge_prod = like.edge_prod
            self.edge_cons = like.edge_cons
            # lazily-built out-edge lanes are structural too: adopt the
            # donor's if present, else build (and cache) independently
            self._out_tables = like._out_tables
            return

        # (l, l) lookup table: upper-triangular Tr row of a machine
        # pair; the diagonal points at the all-zero padding row.
        self.pair_row = np.array(
            pair_table(range(num_rows), l, num_rows), dtype=np.intp
        )

        items = graph.data_items
        in_edges: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for d in items:
            in_edges[d.consumer].append((d.producer, d.index))
        deg = np.array([len(es) for es in in_edges], dtype=np.intp)
        D = int(deg.max()) if k else 0
        pad_prod = np.full((k, max(D, 1)), k, dtype=np.intp)
        pad_item = np.full((k, max(D, 1)), num_items, dtype=np.intp)
        for t, es in enumerate(in_edges):
            for j, (prod, item) in enumerate(es):
                pad_prod[t, j] = prod
                pad_item[t, j] = item
        self.deg = deg
        self.pad_prod = pad_prod
        self.pad_item = pad_item
        self.edge_prod = np.array(
            [d.producer for d in items], dtype=np.intp
        )
        self.edge_cons = np.array(
            [d.consumer for d in items], dtype=np.intp
        )
        self._out_tables: Optional[tuple] = None

    def out_tables(self) -> tuple:
        """Padded out-edge lane tables, built on first request.

        Returns ``(pad_out_item, pad_out_cons, out_deg)``:

        * ``out_deg[t]`` — number of items task ``t`` produces;
        * ``pad_out_item[t, j]`` — the ``j``-th pushed item, ascending
          item index (the NIC serialisation order);
        * ``pad_out_cons[t, j]`` — the item's consumer task.
        """
        if self._out_tables is not None:
            return self._out_tables
        graph = self.workload.graph
        k = self.k
        out_edges = [
            [(i, graph.data_item(i).consumer) for i in sorted(graph.out_items(t))]
            for t in range(k)
        ]
        out_deg = np.array([len(es) for es in out_edges], dtype=np.intp)
        Do = int(out_deg.max()) if k else 0
        pad_out_item = np.full((k, max(Do, 1)), self.num_items, dtype=np.intp)
        pad_out_cons = np.full((k, max(Do, 1)), k, dtype=np.intp)
        for t, es in enumerate(out_edges):
            for j, (item, cons) in enumerate(es):
                pad_out_item[t, j] = item
                pad_out_cons[t, j] = cons
        self._out_tables = (pad_out_item, pad_out_cons, out_deg)
        return self._out_tables

    def validate_batch(self, orders: np.ndarray, machines: np.ndarray) -> None:
        """Raise unless every row encodes a valid schedule.

        Checks (all vectorized): each order is a permutation of
        ``0..k-1``, every machine id is in range, and every data item's
        producer precedes its consumer.  Raises what the scalar walkers
        raise: :class:`~repro.schedule.simulator.InvalidScheduleError`
        for a non-permutation or a precedence violation, ``ValueError``
        for an out-of-range machine id.
        """
        k = self.k
        if not (
            np.sort(orders, axis=1) == np.arange(k, dtype=np.intp)
        ).all():
            raise InvalidScheduleError(
                "batch contains an order that is not a permutation of "
                f"0..{k - 1}"
            )
        if machines.size and (
            machines.min() < 0 or machines.max() >= self.l
        ):
            raise ValueError(
                f"batch contains machine ids outside [0, {self.l})"
            )
        if self.edge_prod.size:
            pos = np.empty_like(orders)
            np.put_along_axis(
                pos, orders, np.arange(k, dtype=np.intp)[None, :], axis=1
            )
            ok = pos[:, self.edge_prod] < pos[:, self.edge_cons]
            if not ok.all():
                b, e = np.argwhere(~ok)[0]
                raise InvalidScheduleError(
                    f"schedule {b}: subtask {self.edge_cons[e]} scheduled "
                    f"before its producer {self.edge_prod[e]}"
                )


# ----------------------------------------------------------------------
# the per-process WorkloadPack cache
# ----------------------------------------------------------------------
#
# Packing is a Python-loop pass over the DAG plus an O(l^2) pair-row
# build — cheap once, but the experiment runner used to pay it for
# *every cell*: each `run_cell` rebuilds the Workload from its spec and
# every kernel construction re-derived the same tensors.  The cache
# below memoises packs per process, keyed by a content fingerprint of
# exactly the inputs the pack is derived from (dimensions, E, Tr, edge
# list), so a multi-cell sweep packs each distinct workload once per
# worker process and platform-scaled matrices (different E bytes) get
# their own entry.  Packs are immutable after construction, so sharing
# cannot change results.

#: Upper bound on cached packs per process (LRU eviction beyond it).
PACK_CACHE_CAPACITY = 32

_pack_cache: "OrderedDict[str, WorkloadPack]" = OrderedDict()
_pack_cache_lock = threading.Lock()
_pack_stats = {"hits": 0, "misses": 0}


def workload_fingerprint(workload: Workload) -> str:
    """Content fingerprint of everything a :class:`WorkloadPack` reads.

    Two workload objects with equal dimensions, matrices and edge lists
    fingerprint identically even when built independently (the runner's
    worker processes rebuild workloads from declarative specs), which
    is what makes cross-cell pack reuse possible at all.
    """
    graph = workload.graph
    h = hashlib.blake2b(digest_size=16)
    h.update(
        np.array(
            [workload.num_tasks, workload.num_machines, graph.num_data_items],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(np.ascontiguousarray(workload.exec_times.values).tobytes())
    h.update(np.ascontiguousarray(workload.transfer_times.values).tobytes())
    edges = np.array(
        [(d.producer, d.consumer, d.index) for d in graph.data_items],
        dtype=np.int64,
    )
    h.update(edges.tobytes())
    return h.hexdigest()


def get_workload_pack(workload: Workload) -> WorkloadPack:
    """The (per-process, LRU-bounded) shared pack of *workload*.

    Bit-for-bit equivalent to ``WorkloadPack(workload)`` — packing is a
    deterministic function of the fingerprinted inputs — but cells,
    services and kernels evaluating the same workload in one process
    share a single set of tensors instead of re-deriving them.
    """
    key = workload_fingerprint(workload)
    with _pack_cache_lock:
        pack = _pack_cache.get(key)
        if pack is not None:
            _pack_cache.move_to_end(key)
            _pack_stats["hits"] += 1
            return pack
    # build outside the lock: packing is the slow part, and a duplicate
    # build on a race is harmless (last writer wins, both packs valid)
    pack = WorkloadPack(workload)
    with _pack_cache_lock:
        _pack_stats["misses"] += 1
        _pack_cache[key] = pack
        _pack_cache.move_to_end(key)
        while len(_pack_cache) > PACK_CACHE_CAPACITY:
            _pack_cache.popitem(last=False)
    return pack


def pack_cache_stats() -> dict:
    """``{"hits": ..., "misses": ..., "size": ...}`` of this process."""
    with _pack_cache_lock:
        return {
            "hits": _pack_stats["hits"],
            "misses": _pack_stats["misses"],
            "size": len(_pack_cache),
        }


def clear_pack_cache() -> None:
    """Drop every cached pack and zero the counters (tests)."""
    with _pack_cache_lock:
        _pack_cache.clear()
        _pack_stats["hits"] = 0
        _pack_stats["misses"] = 0


class BatchKernel:
    """The batch API shared by the two kernel classes.

    Subclasses (:class:`BatchSimulator`, :class:`ContentionBatchSimulator`)
    supply only ``_score``, one call of their network's compiled walk
    over the whole batch; everything batch-contract-shaped lives here
    once — packing, input coercion, validation, the empty-batch
    shortcut, the :class:`ScheduleString` front end and the identity
    properties.

    Without an explicit *pack* the per-process cache supplies one (see
    :func:`get_workload_pack`), so every kernel built for the same
    workload content in a process shares a single tensor set.
    """

    #: The tier name surfaced by ``repro algorithms`` / ``repro run
    #: --verbose`` and reported as ``EvaluationService.kernel_tier``.
    kernel_tier = "jit"

    __slots__ = ("_workload", "_pack")

    def __init__(
        self,
        workload: Workload,
        pack: Optional[WorkloadPack] = None,
    ):
        if pack is None:
            pack = get_workload_pack(workload)
        self._workload = workload
        self._pack = pack

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def num_tasks(self) -> int:
        return self._pack.k

    @property
    def num_machines(self) -> int:
        return self._pack.l

    def makespans(
        self,
        orders: Any,
        machines: Any,
        validate: bool = True,
    ) -> np.ndarray:
        """Makespan of every schedule in the batch, as a ``(B,)`` array.

        Parameters
        ----------
        orders:
            ``(B, k)`` array-like; row ``b`` is schedule ``b``'s subtask
            permutation (string left to right).
        machines:
            ``(B, k)`` array-like; ``machines[b, t]`` is the machine
            assigned to subtask ``t`` in schedule ``b`` (indexed by
            subtask id, exactly like ``ScheduleString.machines``).
        validate:
            Check permutations / machine ranges / precedence first.
            Callers that construct provably valid batches may pass
            ``False``.

        Returns the same floats, bit for bit, as a sequential loop of
        the kernel's scalar backend over the rows (property-tested).
        """
        k = self._pack.k
        orders = _as_index_matrix(orders, k, "orders")
        machines = _as_index_matrix(machines, k, "machines")
        if machines.shape[0] != orders.shape[0]:
            raise ValueError(
                f"orders has {orders.shape[0]} rows but machines has "
                f"{machines.shape[0]}"
            )
        B = orders.shape[0]
        if B == 0:
            return np.empty(0, dtype=float)
        if validate:
            self._pack.validate_batch(orders, machines)
        return self._score(orders, machines)

    def string_makespans(
        self, strings: Sequence[ScheduleString], validate: bool = True
    ) -> np.ndarray:
        """:meth:`makespans` over :class:`ScheduleString` objects."""
        if not strings:
            return np.empty(0, dtype=float)
        orders = np.array([s.order for s in strings], dtype=np.intp)
        machines = np.array([s.machines for s in strings], dtype=np.intp)
        return self.makespans(orders, machines, validate=validate)


class BatchSimulator(BatchKernel):
    """Batch kernel for the contention-free model.

    Build once per workload, then call :meth:`makespans` with a whole
    batch of schedules — a GA population, a chunk of random samples.
    Scores are bit-identical to sequential
    :meth:`~repro.schedule.simulator.Simulator.makespan` calls.
    """

    __slots__ = ()

    def _score(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        from repro.schedule.jit import _walk_plain

        pack = self._pack
        out = np.empty(orders.shape[0])
        _walk_plain(
            orders,
            machines,
            pack.E,
            pack.tr,
            pack.pair_row,
            pack.deg,
            pack.pad_prod,
            pack.pad_item,
            out,
        )
        return out


class ContentionBatchSimulator(BatchKernel):
    """Batch kernel for the ``"nic"`` network model.

    Scores are bit-identical to sequential
    :meth:`~repro.extensions.contention.ContentionSimulator.makespan`
    calls: the walk chains each task's pushes on its machine's NIC in
    ascending item order, like the scalar walk.
    """

    __slots__ = ()

    def _score(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        from repro.schedule.jit import _walk_nic

        pack = self._pack
        pad_out_item, pad_out_cons, out_deg = pack.out_tables()
        out = np.empty(orders.shape[0])
        _walk_nic(
            orders,
            machines,
            pack.E,
            pack.tr,
            pack.pair_row,
            pack.deg,
            pack.pad_prod,
            pack.pad_item,
            out_deg,
            pad_out_item,
            pad_out_cons,
            pack.num_items,
            out,
        )
        return out
