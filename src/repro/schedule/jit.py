"""Compiled (Numba JIT) batch-evaluation kernels — the fastest tier.

The NumPy batch kernels (:mod:`repro.schedule.vectorized`,
:mod:`repro.schedule.vectorized_contention`) top out around 2.5-3.5x
over the scalar walk because each position-major sweep is many small
NumPy operations whose dispatch overhead dominates at paper scale.
This module compiles the *whole* schedule walk — all ``k`` positions,
all batch rows — into one machine-code loop nest over the exact same
:class:`~repro.schedule.vectorized.WorkloadPack` gather tables, and
parallelises it across batch rows with ``numba.prange`` (every schedule
in a batch is independent, so rows shard perfectly across cores).

Kernel tiers and selection
--------------------------

Each row of the network table in :mod:`repro.schedule.backend` names
a NumPy kernel and one of this module's compiled kernels, and
:func:`~repro.schedule.backend.batch_kernel_factory` picks between them.
The :class:`~repro.optim.evaluation.EvaluationService` then runs one of
three tiers:

1. ``jit``        — this module's compiled kernels (both networks),
   auto-selected when :mod:`numba` imports;
2. ``vectorized`` — the NumPy kernels, the fallback when numba is
   absent (this repo never *requires* numba — it is an extra);
3. ``sequential`` — the service's scalar loop, when batching is not
   preferred or the backend carries initial machine state.

The environment variable ``REPRO_KERNEL`` overrides the choice for
debugging and CI: ``REPRO_KERNEL=numpy`` pins the NumPy tier even with
numba installed; ``REPRO_KERNEL=jit`` demands the compiled tier and
fails loudly (instead of silently running 100x slower) when numba is
missing.  Unset (or ``auto``) means "best available".

Exactness
---------

The compiled walks perform the **same arithmetic with the same
operands** as the NumPy kernels (one addition per crossing transfer,
one addition per execution time, maxima elsewhere; NIC pushes chained
in ascending item order), so results are bit-identical to
:class:`~repro.schedule.vectorized.BatchSimulator` /
:class:`~repro.schedule.vectorized_contention.ContentionBatchSimulator`
— and transitively to the scalar simulators.  Floating-point ``max``
returns one of its operands exactly, and each transfer/execution cost
enters through a single addition in the same order in every tier, so
no tolerance is needed anywhere: the property suite
(``tests/properties/test_jit_properties.py``) asserts ``==``.

The kernel bodies are written in *nopython-compatible plain Python*:
with numba installed they are ``@njit(parallel=True, cache=True)``
compiled (``fastmath`` stays off — reassociation would break
bit-identity); without it they remain ordinary Python functions, which
is what lets the equivalence suite run on numba-free installations.

Warmup and caching policy
-------------------------

Compilation happens lazily on the first call per argument-type
signature (one-time, order of a second) and is persisted to numba's
on-disk cache (``cache=True``), so later processes skip it.  Thread
count follows numba's standard controls (``NUMBA_NUM_THREADS`` /
``numba.set_num_threads``).  Benchmarks must time *warm* kernels only
— ``benchmarks/bench_micro_jit.py`` warms up outside the measured
region and asserts the measured calls are compile-free.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.model.workload import Workload
from repro.schedule.vectorized import BatchSimulator, WorkloadPack
from repro.schedule.vectorized_contention import ContentionBatchSimulator

try:  # pragma: no cover - exercised only on numba-enabled installs
    from numba import njit, prange

    _NUMBA_OK = True
except ImportError:
    _NUMBA_OK = False
    prange = range

    def njit(*args, **kwargs):
        """No-op decorator: the kernels run as plain Python."""

        def deco(fn):
            return fn

        return deco


#: Environment override: "auto" (default), "jit" or "numpy".
KERNEL_ENV_VAR = "REPRO_KERNEL"

_KERNEL_MODES = ("auto", "jit", "numpy")


def numba_available() -> bool:
    """Whether the compiled tier can actually compile.

    A plain module-level flag read at *selection* time (not import
    time), so tests can monkeypatch ``repro.schedule.jit._NUMBA_OK`` to
    exercise both selection paths on any installation.
    """
    return _NUMBA_OK


def requested_kernel() -> str:
    """The ``REPRO_KERNEL`` override, validated: auto | jit | numpy.

    Raises
    ------
    ValueError
        If the variable holds anything else — a typo'd override must
        not silently degrade to auto-selection.
    """
    raw = os.environ.get(KERNEL_ENV_VAR, "").strip().lower() or "auto"
    if raw not in _KERNEL_MODES:
        raise ValueError(
            f"{KERNEL_ENV_VAR}={raw!r} is not a valid kernel override; "
            f"expected one of {', '.join(_KERNEL_MODES)}"
        )
    return raw


def jit_selected() -> bool:
    """Whether tier selection should pick the compiled kernels now.

    Raises
    ------
    ValueError
        If ``REPRO_KERNEL=jit`` demands compilation but numba is not
        installed — failing loudly beats silently running the plain
        Python loop nest ~100x slower than the NumPy tier.
    """
    mode = requested_kernel()
    if mode == "numpy":
        return False
    if mode == "jit":
        if not numba_available():
            raise ValueError(
                f"{KERNEL_ENV_VAR}=jit but numba is not installed; "
                "install the extra (pip install repro-mshc[jit]) or "
                f"unset {KERNEL_ENV_VAR}"
            )
        return True
    return numba_available()


# ----------------------------------------------------------------------
# the compiled walks
# ----------------------------------------------------------------------
#
# Layout notes (shared with the NumPy kernels via WorkloadPack):
#   E        (l, k)  execution times
#   tr       (rows+1, p+1) zero-padded transfer matrix
#   pair_row (l, l)  machine pair -> tr row; diagonal -> the zero row
#   deg      (k,)    in-degree;  pad_prod/pad_item (k, max(D,1)) CSR lanes
#   out_deg  (k,)    out-degree; pad_out_item/pad_out_cons likewise,
#                    ascending item index (the NIC serialisation order)
# Only real lanes (j < deg[t] / j < out_deg[t]) are touched, so the
# sentinel conventions never enter the compiled walk at all.


@njit(parallel=True, cache=True)
def _walk_plain(orders, machines, E, tr, pair_row, deg, pad_prod, pad_item, out):
    B, k = orders.shape
    l = E.shape[0]
    for b in prange(B):
        finish = np.zeros(k)
        avail = np.zeros(l)
        for p in range(k):
            t = orders[b, p]
            m = machines[b, t]
            ready = avail[m]
            arrive = 0.0
            for j in range(deg[t]):
                prod = pad_prod[t, j]
                cand = finish[prod] + tr[
                    pair_row[machines[b, prod], m], pad_item[t, j]
                ]
                if cand > arrive:
                    arrive = cand
            if arrive > ready:
                ready = arrive
            ready += E[m, t]
            finish[t] = ready
            avail[m] = ready
        best = 0.0
        for i in range(l):
            if avail[i] > best:
                best = avail[i]
        out[b] = best


@njit(parallel=True, cache=True)
def _walk_nic(
    orders,
    machines,
    E,
    tr,
    pair_row,
    deg,
    pad_prod,
    pad_item,
    out_deg,
    pad_out_item,
    pad_out_cons,
    num_items,
    out,
):
    B, k = orders.shape
    l = E.shape[0]
    for b in prange(B):
        finish = np.zeros(k)
        avail = np.zeros(l)
        nic = np.zeros(l)
        arrival = np.zeros(num_items)
        for q in range(k):
            t = orders[b, q]
            m = machines[b, t]
            ready = avail[m]
            tmax = 0.0
            for j in range(deg[t]):
                prod = pad_prod[t, j]
                # the scalar walk's select: a consumer on the
                # producer's machine reads the finish time, a crossing
                # edge reads the item's NIC-serialised arrival
                if machines[b, prod] == m:
                    cand = finish[prod]
                else:
                    cand = arrival[pad_item[t, j]]
                if cand > tmax:
                    tmax = cand
            if tmax > ready:
                ready = tmax
            ready += E[m, t]
            finish[t] = ready
            avail[m] = ready
            do = out_deg[t]
            if do > 0:
                # eager pushes serialised on the producer's NIC in item
                # order; same-machine pushes run as zero-duration
                # transfers (their lifted nf is absorbed bit-for-bit by
                # the next max — see vectorized_contention.py), and
                # their arrival slots are junk by design: the consumer
                # reads finish[prod] instead
                nf = nic[m]
                if ready > nf:
                    nf = ready
                for j in range(do):
                    item = pad_out_item[t, j]
                    nf = nf + tr[
                        pair_row[machines[b, pad_out_cons[t, j]], m], item
                    ]
                    arrival[item] = nf
                nic[m] = nf
        best = 0.0
        for i in range(l):
            if avail[i] > best:
                best = avail[i]
        out[b] = best


# ----------------------------------------------------------------------
# kernel classes
# ----------------------------------------------------------------------


class JitBatchSimulator(BatchSimulator):
    """Compiled batch kernel for the contention-free model.

    Drop-in for :class:`~repro.schedule.vectorized.BatchSimulator`
    (same constructor, same batch API, bit-identical results); the walk
    runs as one ``@njit(parallel=True)`` loop nest with batch rows
    sharded across threads by ``prange``.
    """

    __slots__ = ()

    kernel_tier = "jit"

    #: One compiled call per batch whenever possible: the JIT walk
    #: carries only per-row O(k + l) state (no multi-MB scratch), so
    #: cache-residency chunking would just amputate prange's row range.
    chunk_size = 65536

    def _score_chunk(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        out = np.empty(orders.shape[0])
        _walk_plain(
            orders,
            machines,
            self._E,
            self._tr,
            self._pair_row,
            self._deg,
            self._pad_prod,
            self._pad_item,
            out,
        )
        return out


class JitContentionBatchSimulator(ContentionBatchSimulator):
    """Compiled batch kernel for the ``"nic"`` network model.

    Drop-in for :class:`~repro.schedule.vectorized_contention.
    ContentionBatchSimulator` (same constructor, same batch API,
    bit-identical results), compiled and row-parallel like
    :class:`JitBatchSimulator`.
    """

    __slots__ = ()

    kernel_tier = "jit"

    chunk_size = 65536

    def _score_chunk(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        out = np.empty(orders.shape[0])
        _walk_nic(
            orders,
            machines,
            self._E,
            self._tr,
            self._pair_row,
            self._deg,
            self._pad_prod,
            self._pad_item,
            self._out_deg,
            self._pad_out_item,
            self._pad_out_cons,
            self._p,
            out,
        )
        return out


def warmup(workload: Optional[Workload] = None) -> bool:
    """Compile both kernels now (idempotent); True when numba compiled.

    Benchmarks and long-running services call this once outside any
    measured region so the first *real* batch is not billed the one-off
    compile.  Without numba this still exercises the plain-Python
    walks (cheap at the tiny default workload) and returns False.
    """
    if workload is None:
        from repro.workloads import small_workload

        workload = small_workload(seed=0)
    from repro.schedule.operations import random_valid_string

    s = random_valid_string(workload.graph, workload.num_machines, 0)
    for cls in (JitBatchSimulator, JitContentionBatchSimulator):
        cls(workload, pack=WorkloadPack(workload)).string_makespans([s])
    return numba_available()
