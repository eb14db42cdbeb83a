"""Vectorized batch evaluation: score many schedules in NumPy sweeps.

Every search algorithm in the library asks the same question many times
per iteration: *what is the makespan of this candidate string?*  The GA
scores a whole population per generation, random search scores a stream
of independent samples, and the SE allocation step scores every
(machine, slot) probe of a selected subtask.  The scalar
:class:`~repro.schedule.simulator.Simulator` answers one string at a
time in a Python loop; :class:`BatchSimulator` answers a whole batch at
once by turning the per-position walk into NumPy sweeps across the
batch dimension.

Kernel layout (packed once per workload)
----------------------------------------

* ``E``   — the ``(l, k)`` execution-time matrix, C-contiguous float64;
* ``Tr``  — the ``(l(l-1)/2, p)`` transfer-time matrix (padded to at
  least ``(1, 1)`` so masked gathers never index an empty array);
* the DAG's in-edges in **padded CSR** form: ``deg[t]`` (in-degree) and
  ``pad_prod[t, j]`` / ``pad_item[t, j]`` (producer and data-item of
  task ``t``'s ``j``-th input) — shape ``(k, D)`` with ``D`` the
  maximum in-degree.  Lanes past ``deg[t]`` hold a *sentinel* edge
  (producer ``k``, item ``p``) that reads a permanently-zero finish
  time and a permanently-zero transfer column, so no mask arithmetic is
  needed in the hot loop;
* ``pair_row[a, b]`` — an ``(l, l)`` lookup table for the
  upper-triangular ``Tr`` row of a machine pair; its diagonal points at
  an all-zero padding row of ``Tr``, so a same-machine transfer gathers
  a stored 0.0 instead of branching;
* ``edge_prod`` / ``edge_cons`` — flat producer/consumer arrays used by
  the vectorized precedence validation.

Evaluation walks string positions ``0..k-1`` exactly like the scalar
simulator (the per-machine availability chain is inherently
sequential), but at each position the whole batch advances in ~15 NumPy
operations on ``(B,)`` / ``(B, D)`` arrays instead of ``B`` Python
loop bodies.  All arithmetic (one addition per crossing transfer, one
addition per execution time, maxima elsewhere) is performed with the
same operands as the scalar walk, so results are **bit-identical** to
:meth:`Simulator.makespan` — a property enforced by
``tests/properties/test_batch_properties.py``.

>>> import numpy as np
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
    :class:`~repro.schedule.vectorized_contention.ContentionBatchSimulator`
    ("nic") walk schedules with the same gather tables: the ``(l, k)``
    execution matrix, the zero-padded transfer matrix, the padded-CSR
    in-edge lanes and the machine-pair row lookup described in the
    module docstring.  Packing them lives here, once, so the kernels
    cannot drift apart on layout or sentinel conventions.

    The NIC kernel additionally needs the *out*-edge side of the DAG
    (which items each task pushes, in ascending item-index order — the
    documented NIC serialisation order); those tables are built lazily
    by :meth:`out_tables` so contention-free packing does not pay for
    them.

    Sentinel conventions (shared by every consumer):

    * producer/consumer lane padding uses the virtual task ``k`` — its
      machine reads 0 from a zero-padded machine row and its finish
      time reads 0.0 from a zero-padded finish slot;
    * item lane padding uses the virtual item ``num_items`` — both the
      padded ``tr`` column and the kernels' arrival slot for that index
      hold a permanent 0.0;
    * ``pair_row``'s diagonal points at ``tr``'s all-zero padding row,
      so same-machine transfers gather a stored 0.0 with no branch.

    ``like`` shares structure across packs of the *same DAG* with
    different matrices (the scenario tier builds one pack per sampled
    scenario): the graph-derived tables (CSR lanes, pair rows, edge
    arrays, out-edge lanes) are reused by reference from the donor pack
    and only the value tables (``E``, ``tr``, ``trv_table``) are
    recomputed — they are what actually differ between scenarios.
    """

    __slots__ = (
        "workload",
        "k",
        "l",
        "num_items",
        "E",
        "tr",
        "pair_row",
        "trv_table",
        "deg",
        "pad_prod",
        "pad_item",
        "max_deg",
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

        # Tr padded with one all-zero column (the sentinel data item
        # that unused lanes read) and one all-zero row (the "row" of a
        # same-machine pair), so zero-cost cases need no mask arithmetic
        # at all: they simply gather a stored 0.0.
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
            if like.trv_table is not None:
                self.trv_table = np.ascontiguousarray(tr_pad[self.pair_row])
            else:
                self.trv_table = None
            self.deg = like.deg
            self.pad_prod = like.pad_prod
            self.pad_item = like.pad_item
            self.max_deg = like.max_deg
            self.edge_prod = like.edge_prod
            self.edge_cons = like.edge_cons
            # lazily-built out-edge lanes are structural too: adopt the
            # donor's if present, else build (and cache) independently
            self._out_tables = like._out_tables
            return

        # (l, l) lookup table: upper-triangular Tr row of a machine
        # pair; the diagonal points at the all-zero padding row.
        pair_row = self.pair_row = np.array(
            pair_table(range(num_rows), l, num_rows), dtype=np.intp
        )
        # Fully tabulated transfer cost T[a, b, item] — collapses the
        # pair_row + Tr double gather into one — unless the table would
        # be unreasonably large (big machine counts / item counts).
        if l * l * (num_items + 1) <= 4_000_000:
            self.trv_table = np.ascontiguousarray(tr_pad[pair_row])
        else:
            self.trv_table = None

        items = graph.data_items
        in_edges: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for d in items:
            in_edges[d.consumer].append((d.producer, d.index))
        deg = np.array([len(es) for es in in_edges], dtype=np.intp)
        D = self.max_deg = int(deg.max()) if k else 0
        # Sentinel lanes: producer k (a virtual task whose finish time is
        # pinned at 0.0) and item num_items (the zero Tr column above).
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

        Returns ``(pad_out_item, pad_out_slot, pad_out_cons, out_deg,
        max_out_deg)``:

        * ``out_deg[t]`` — number of items task ``t`` produces;
        * ``pad_out_item[t, j]`` — the ``j``-th pushed item, ascending
          item index (the NIC serialisation order); sentinel lanes hold
          ``num_items``, gathering ``tr``'s all-zero padding column;
        * ``pad_out_slot[t, j]`` — where the push's arrival time is
          written: the real item index, or the scratch slot
          ``num_items + 1`` for sentinel lanes (slot ``num_items`` must
          stay a permanent 0.0 because in-edge sentinel lanes read it);
        * ``pad_out_cons[t, j]`` — the item's consumer task (sentinel:
          the virtual task ``k``, whose machine reads 0).
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
        pad_out_slot = np.full(
            (k, max(Do, 1)), self.num_items + 1, dtype=np.intp
        )
        pad_out_cons = np.full((k, max(Do, 1)), k, dtype=np.intp)
        for t, es in enumerate(out_edges):
            for j, (item, cons) in enumerate(es):
                pad_out_item[t, j] = item
                pad_out_slot[t, j] = item
                pad_out_cons[t, j] = cons
        self._out_tables = (pad_out_item, pad_out_slot, pad_out_cons, out_deg, Do)
        return self._out_tables

    def validate_batch(self, orders: np.ndarray, machines: np.ndarray) -> None:
        """Raise unless every row encodes a valid schedule.

        Checks (all vectorized): each order is a permutation of
        ``0..k-1``, every machine id is in range, and every data item's
        producer precedes its consumer.  Mirrors the scalar simulators'
        :class:`~repro.schedule.simulator.InvalidScheduleError` for
        precedence violations.
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
# their own entry.  Packs are immutable after construction (kernels
# keep their scratch per-instance), so sharing cannot change results.

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
    """Shared batch-API driver of the vectorized kernels.

    Subclasses (:class:`BatchSimulator` and the NIC kernel in
    :mod:`repro.schedule.vectorized_contention`) supply ``__init__``
    (which must set ``_workload``, ``_pack``, ``_k``, ``_l``) and
    ``_score_chunk``; everything batch-contract-shaped lives here once —
    input coercion, validation, the empty-batch shortcut, the
    cache-sized chunking loop, the :class:`ScheduleString` front end and
    the identity properties — so the two kernels cannot drift apart on
    the API side any more than :class:`WorkloadPack` lets them drift on
    the packing side.
    """

    #: The tier name surfaced by ``repro algorithms`` / ``repro run
    #: --verbose``: "vectorized" here, "jit" for the compiled subclasses
    #: in :mod:`repro.schedule.jit`.
    kernel_tier = "vectorized"

    #: Rows scored per internal chunk: large enough to amortize NumPy
    #: dispatch overhead, small enough that the precomputed walk tables
    #: stay cache-resident (measured sweet spot on paper-scale graphs).
    chunk_size = 128

    # exactly the attributes _bind_pack assigns; subclasses declare only
    # their kernel-specific extras
    __slots__ = (
        "_workload",
        "_pack",
        "_k",
        "_l",
        "_E",
        "_tr",
        "_pair_row",
        "_trv_table",
        "_deg",
        "_pad_prod",
        "_pad_item",
        "_max_deg",
        "_scratch",
    )

    def _bind_pack(
        self, workload: Workload, pack: Optional[WorkloadPack]
    ) -> WorkloadPack:
        """Set the pack-derived aliases every kernel walk reads.

        The aliases keep the hot loops free of attribute chains; binding
        them here, once, keeps the two kernels' views of the pack from
        drifting.  Returns the (possibly freshly built) pack so
        subclasses can pull their extra tables from it.

        Without an explicit *pack* the per-process cache supplies one
        (see :func:`get_workload_pack`), so every kernel built for the
        same workload content in a process shares a single tensor set.
        """
        if pack is None:
            pack = get_workload_pack(workload)
        self._workload = workload
        self._pack = pack
        self._k = pack.k
        self._l = pack.l
        self._E = pack.E
        self._tr = pack.tr
        self._pair_row = pack.pair_row
        self._trv_table = pack.trv_table
        self._deg = pack.deg
        self._pad_prod = pack.pad_prod
        self._pad_item = pack.pad_item
        self._max_deg = pack.max_deg
        # chunk-sized scratch buffers, allocated lazily on first use and
        # reused across calls (fresh multi-MB allocations would pay page
        # faults every batch); makes instances NOT thread-safe
        self._scratch: Optional[dict] = None
        return pack

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def num_tasks(self) -> int:
        return self._k

    @property
    def num_machines(self) -> int:
        return self._l

    def validate_batch(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> None:
        """Raise unless every row encodes a valid schedule.

        Delegates to :meth:`WorkloadPack.validate_batch` (shared by
        both kernels).
        """
        self._pack.validate_batch(orders, machines)

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
            Callers that construct provably valid batches (the SE
            allocator's in-range relocations) may pass ``False``.

        Returns the same floats, bit for bit, as a sequential loop of
        the kernel's scalar backend over the rows (each kernel's class
        docstring names its backend; both are property-tested).
        """
        k = self._k
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
            self.validate_batch(orders, machines)
        if B <= self.chunk_size:
            return self._score_chunk(orders, machines)
        out = np.empty(B)
        for start in range(0, B, self.chunk_size):
            stop = min(start + self.chunk_size, B)
            out[start:stop] = self._score_chunk(
                orders[start:stop], machines[start:stop]
            )
        return out

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
    """NumPy batch-evaluation kernel for the contention-free model.

    Build once per workload (packing cost is one pass over the DAG),
    then call :meth:`makespans` with a whole batch of schedules — a GA
    population, one SE generation's trial moves, a chunk of random
    samples.  Scores are bit-identical to sequential
    :meth:`~repro.schedule.simulator.Simulator.makespan` calls.
    """

    __slots__ = ()

    def __init__(
        self,
        workload: Workload,
        pack: Optional[WorkloadPack] = None,
    ):
        self._bind_pack(workload, pack)

    def _score_chunk(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        """Score one cache-sized chunk of validated schedules.

        Everything except the finish/availability chain is a static
        function of ``(orders, machines)``, so it is precomputed in
        whole-batch sweeps (per-position execution times, per-lane
        producer-finish gather indices, per-lane transfer costs).  The
        gathers run batch-major — each schedule's rows stay
        cache-resident — and the position-major layout conversion the
        walk wants is folded into the final ``copyto``.  The walk itself
        is then ~8 flat NumPy ops per string position into preallocated
        buffers.
        """
        k = self._k
        l = self._l
        B = orders.shape[0]
        D = self._max_deg
        sc = self._scratch_buffers(B)
        rows = np.arange(B, dtype=np.intp)[:, None]

        m_all = np.take_along_axis(machines, orders, axis=1)  # (B, k)
        exec_pm = np.ascontiguousarray(self._E[m_all, orders].T)
        # flat scatter/gather indices into machine_avail (B*l) and the
        # sentinel-padded finish array (B*(k+1))
        avail_idx_pm = np.ascontiguousarray((m_all + rows * l).T)
        fin_idx_pm = np.ascontiguousarray((orders + rows * (k + 1)).T)
        dmax_at = np.take(self._deg, orders).max(axis=0).tolist()

        lane_idx = sc["lane_idx"][:, :, :B]
        lane_trv = sc["lane_trv"][:, :, :B]
        if D:
            rows_fin = rows[:, :, None] * (k + 1)
            prod_all = sc["prod"][:B]
            pf_idx = sc["pfidx"][:B]
            trv = sc["trv"][:B]
            np.take(self._pad_prod, orders, axis=0, out=prod_all)
            np.add(prod_all, rows_fin, out=pf_idx)
            machines_pad = sc["mpad"][:B]
            machines_pad[:, :k] = machines
            pm = sc["pm"][:B]
            np.take(machines_pad.reshape(-1), pf_idx, out=pm)
            item_all = sc["item"][:B]
            np.take(self._pad_item, orders, axis=0, out=item_all)
            if self._trv_table is not None:
                # one flat gather from the tabulated (l, l, p+1) costs:
                # index = (pm*l + m)*(p+1) + item, built in place
                P1 = self._tr.shape[1]
                np.multiply(pm, l * P1, out=pm)
                pm += (m_all * P1)[:, :, None]
                pm += item_all
                np.take(self._trv_table.reshape(-1), pm, out=trv)
            else:
                trv[...] = self._tr[
                    self._pair_row[pm, m_all[:, :, None]], item_all
                ]
            # lane tables (k, D, B): position-major, batch innermost —
            # the layout conversion is fused into these two copies
            np.copyto(lane_idx, pf_idx.transpose(1, 2, 0))
            np.copyto(lane_trv, trv.transpose(1, 2, 0))
        # small and needed contiguous as a take() target -> per call
        pf_buf = np.empty((max(D, 1), B))

        # ---- the sequential walk: only the finish / availability chain
        # remains.  Sentinel lanes gather stored zeros (producer k's
        # finish, Tr's padding row/column), so no masking is needed.
        finish = sc["finish"][: B * (k + 1)]
        finish.fill(0.0)
        avail = sc["avail"][: B * l]
        avail.fill(0.0)
        ready = sc["ready"][:B]
        arrive = sc["arrive"][:B]
        for p in range(k):
            np.take(avail, avail_idx_pm[p], out=ready)
            dmax = dmax_at[p]
            if dmax:
                pf = pf_buf[:dmax]
                np.take(finish, lane_idx[p, :dmax], out=pf)
                pf += lane_trv[p, :dmax]
                pf.max(axis=0, out=arrive)
                np.maximum(ready, arrive, out=ready)
            ready += exec_pm[p]
            finish[fin_idx_pm[p]] = ready
            avail[avail_idx_pm[p]] = ready
        # every subtask finishes on some machine and per-machine finish
        # times only grow, so the final availability row holds each
        # machine's last finish — its max is exactly the makespan
        return avail.reshape(B, l).max(axis=1)

    def _scratch_buffers(self, batch_rows: int) -> dict:
        """Reusable per-instance scratch, sized for ``chunk_size`` rows.

        Rebuilt only if ``chunk_size`` grew since allocation.  Keeping
        these alive across calls avoids multi-megabyte allocations (and
        their page faults) in every batch — worth ~2x on paper-scale
        batches.  This is what makes instances not thread-safe.
        """
        C = max(self.chunk_size, batch_rows)
        sc = self._scratch
        if sc is not None and sc["capacity"] >= C:
            return sc
        k = self._k
        D = max(self._max_deg, 1)
        self._scratch = sc = {
            "capacity": C,
            "prod": np.empty((C, k, D), dtype=np.intp),
            "item": np.empty((C, k, D), dtype=np.intp),
            "pfidx": np.empty((C, k, D), dtype=np.intp),
            "pm": np.empty((C, k, D), dtype=np.intp),
            "trv": np.empty((C, k, D)),
            "mpad": np.zeros((C, k + 1), dtype=np.intp),
            "lane_idx": np.empty((k, D, C), dtype=np.intp),
            "lane_trv": np.empty((k, D, C)),
            "finish": np.empty(C * (k + 1)),
            "avail": np.empty(C * self._l),
            "ready": np.empty(C),
            "arrive": np.empty(C),
        }
        return sc
