"""Compiled (Numba JIT) batch walks: the ``jit`` kernel tier.

The batch kernel classes of :mod:`repro.schedule.vectorized`
(:class:`~repro.schedule.vectorized.BatchSimulator` and
:class:`~repro.schedule.vectorized.ContentionBatchSimulator`) run the
two walks below: the *whole* schedule walk — all ``k`` positions, all
batch rows — as one machine-code loop nest over the
:class:`~repro.schedule.vectorized.WorkloadPack` gather tables,
parallelised across batch rows with ``numba.prange`` (every schedule in
a batch is independent, so rows shard perfectly across cores).

Kernel tiers and selection
--------------------------

The :class:`~repro.optim.evaluation.EvaluationService` scores a batch
on one of two tiers (:func:`repro.schedule.backend.kernel_tier`):

1. ``jit``        — the network's kernel class, auto-selected when
   :mod:`numba` imports (this repo never *requires* numba — it is the
   ``jit`` extra);
2. ``sequential`` — the service's loop over its scalar backend, whose
   compiled C walker (:mod:`repro.schedule.walker`) serves on any host
   with a C compiler.  Also the tier when batching is not preferred or
   the backend carries initial machine state.

Exactness
---------

The compiled walks perform the **same arithmetic with the same
operands** as the scalar simulators (one addition per crossing
transfer, one addition per execution time, maxima elsewhere; NIC pushes
chained in ascending item order), so results are bit-identical to
:meth:`~repro.schedule.simulator.Simulator.makespan` /
:meth:`~repro.extensions.contention.ContentionSimulator.makespan`.
Floating-point ``max`` returns one of its operands exactly, and each
transfer/execution cost enters through a single addition in the same
order in every tier, so no tolerance is needed anywhere: the property
suite (``tests/properties/test_jit_properties.py``) asserts ``==``.

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

from typing import Optional

import numpy as np

from repro.model.workload import Workload

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


def numba_available() -> bool:
    """Whether the compiled tier can actually compile, i.e. whether
    tier selection picks the ``jit`` kernels.

    A plain module-level flag read at *selection* time (not import
    time), so tests can monkeypatch ``repro.schedule.jit._NUMBA_OK`` to
    exercise both selection paths on any installation.
    """
    return _NUMBA_OK


# ----------------------------------------------------------------------
# the compiled walks
# ----------------------------------------------------------------------
#
# Layout notes (the WorkloadPack tables):
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
                # the next max: every later push from machine m starts
                # at a finish time >= this one), and
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
    from repro.schedule.vectorized import (
        BatchSimulator,
        ContentionBatchSimulator,
        WorkloadPack,
    )

    s = random_valid_string(workload.graph, workload.num_machines, 0)
    for cls in (BatchSimulator, ContentionBatchSimulator):
        cls(workload, pack=WorkloadPack(workload)).string_makespans([s])
    return numba_available()
