"""Vectorized batch evaluation under NIC contention.

The paper's headline extension result — optimising *under* the
realistic one-NIC-per-machine model beats optimising contention-free
and re-evaluating — needs the ``"nic"`` model to batch-score as fast as
the contention-free one.  :class:`ContentionBatchSimulator` scores whole
schedule batches under NIC serialisation in NumPy sweeps, bit-identical
to :meth:`~repro.extensions.contention.ContentionSimulator.makespan`.

Kernel layout
-------------

All static gather tables come from the shared
:class:`~repro.schedule.vectorized.WorkloadPack` (the same E/Tr packing,
padded-CSR in-edges and pair-row tables the contention-free
:class:`~repro.schedule.vectorized.BatchSimulator` uses), plus the
NIC-specific *out*-edge lanes from :meth:`WorkloadPack.out_tables`:
``pad_out_item`` / ``pad_out_cons`` hold, per task, the items it pushes
in ascending item-index order — the documented NIC serialisation order.

Evaluation walks string positions ``0..k-1`` exactly like the scalar
contention simulator, carrying the same state it snapshots in
:meth:`~repro.extensions.contention.ContentionSimulator.prepare` — but
as per-batch-element vectors instead of per-run scalars:

* ``avail``   — ``(B, l)`` machine-availability times;
* ``nic``     — ``(B, l)`` per-machine NIC-free times;
* ``arrival`` — ``(B, p + 2)`` per-item arrival times (slot ``p`` is a
  permanent 0.0 that sentinel in-edge lanes read; slot ``p + 1`` is the
  scratch slot sentinel out-edge lanes write);
* ``finish``  — ``(B, k + 1)`` per-task finish times (slot ``k`` is the
  virtual sentinel producer, pinned at 0.0).

Per position the whole batch advances in ~8 flat NumPy ops: gather
machine availability, one combined gather for the in-edge lanes
(``finish`` and ``arrival`` share a flat state buffer, and the scalar
walk's ``finish[prod] if same machine else arrival[item]`` select is
folded into the gather *index* at precompute time), reduce, add
execution time, scatter finish/availability — then one ``add`` per
*out-edge lane* plus a fused arrival scatter, which is what keeps the
NIC chain honest: within a task the pushes serialise
(``nf = max(fin, nf) + Tr``), so the lanes must accumulate in item
order; only the first needs the ``max`` because every later push
starts from an ``nf`` already >= the producer's finish.

Two exactness notes, both load-bearing for bit-identity:

* the scalar walk *skips* same-machine and padding pushes; the kernel
  instead runs them as zero-duration transfers.  A zero-duration push
  can only lift ``nf`` to ``max(fin, nf)``, and every later transfer
  from that machine starts at ``max(fin', nf)`` with ``fin' >= fin``
  (machine availability only grows), so the lifted value is absorbed
  bit-for-bit by the next ``max`` — no float ever changes;
* arrival slots written by same-machine pushes are junk by design: a
  consumer on the producer's machine reads ``finish[prod]`` (the
  same-machine mask), never the arrival slot, mirroring the scalar
  reads exactly.

It is the ``"nic"`` row's NumPy kernel in the network table of
:mod:`repro.schedule.backend`, so the
:class:`~repro.optim.evaluation.EvaluationService` — and through it GA
population fitness, ``random_search(batch_size=...)`` and tabu's batch
route (scenario objectives, Pareto tracking) — scores ``"nic"`` batches
with it.

>>> from repro.extensions.contention import ContentionSimulator
>>> from repro.schedule.operations import random_valid_string
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=3)
>>> batch = [random_valid_string(w.graph, w.num_machines, s) for s in range(4)]
>>> kernel = ContentionBatchSimulator(w)
>>> scalar = ContentionSimulator(w)
>>> kernel.string_makespans(batch).tolist() == [
...     scalar.string_makespan(s) for s in batch
... ]
True
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.workload import Workload
from repro.schedule.vectorized import BatchKernel, WorkloadPack


class ContentionBatchSimulator(BatchKernel):
    """NumPy batch-evaluation kernel for the ``"nic"`` network model.

    Build once per workload, then call :meth:`makespans` with a whole
    batch of schedules — a GA population, a tabu neighborhood, a chunk
    of random samples.  Scores are bit-identical to sequential
    :meth:`~repro.extensions.contention.ContentionSimulator.makespan`
    calls (property-tested, no tolerance).  The batch API (coercion,
    validation, chunking, ``string_makespans``) is the shared
    :class:`~repro.schedule.vectorized.BatchKernel` driver; only the
    packing (``__init__``) and the walk (``_score_chunk``) live here.
    """

    __slots__ = (
        "_p",
        "_pad_out_item",
        "_pad_out_slot",
        "_pad_out_cons",
        "_out_deg",
        "_max_out",
    )

    def __init__(
        self,
        workload: Workload,
        pack: Optional[WorkloadPack] = None,
    ):
        pack = self._bind_pack(workload, pack)
        self._p = pack.num_items
        (
            self._pad_out_item,
            self._pad_out_slot,
            self._pad_out_cons,
            self._out_deg,
            self._max_out,
        ) = pack.out_tables()

    def _score_chunk(
        self, orders: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        """Score one cache-sized chunk of validated schedules.

        Everything except the finish / availability / NIC / arrival
        chain is a static function of ``(orders, machines)`` and is
        precomputed in whole-batch sweeps: per-position execution
        times, in-edge finish/arrival gather indices with their
        same-machine masks, and per-out-lane transfer durations and
        arrival scatter indices.  The gathers run batch-major (each
        schedule's rows stay cache-resident); the position-major layout
        the walk wants is folded into the final ``copyto`` transposes.
        """
        k = self._k
        l = self._l
        B = orders.shape[0]
        D = self._max_deg
        Do = self._max_out
        P1 = self._tr.shape[1]  # num_items + 1 (padded Tr columns)
        P2 = self._p + 2  # arrival slots: items + pinned 0.0 + scratch
        sc = self._scratch_buffers(B)
        rows = np.arange(B, dtype=np.intp)[:, None]
        fin_size = B * (k + 1)  # finish block of the combined state

        m_all = np.take_along_axis(machines, orders, axis=1)  # (B, k)
        exec_pm = np.ascontiguousarray(self._E[m_all, orders].T)
        # flat scatter/gather indices into avail & nic (B*l) and the
        # sentinel-padded finish array (B*(k+1)); machine and NIC state
        # share the same (row, machine) addressing
        mach_idx_pm = np.ascontiguousarray((m_all + rows * l).T)
        fin_idx_pm = np.ascontiguousarray((orders + rows * (k + 1)).T)
        din_at = np.take(self._deg, orders).max(axis=0).tolist()
        dout_at = np.take(self._out_deg, orders).max(axis=0).tolist()

        rows_fin = rows[:, :, None] * (k + 1)
        rows_arr = rows[:, :, None] * P2
        machines_pad = sc["mpad"][:B]
        machines_pad[:, :k] = machines  # column k stays 0 (sentinel)
        mpad_flat = machines_pad.reshape(-1)

        lane_idx = sc["lane_idx"][:, :, :B]
        if D:
            prod_all = sc["prod"][:B]
            pf_idx = sc["pfidx"][:B]
            pm = sc["pm"][:B]
            item_all = sc["item"][:B]
            cross = sc["cross"][:B]
            np.take(self._pad_prod, orders, axis=0, out=prod_all)
            np.add(prod_all, rows_fin, out=pf_idx)
            np.take(mpad_flat, pf_idx, out=pm)
            # the scalar walk reads finish[prod] on the consumer's own
            # machine and arrival[item] across machines; sentinel lanes
            # read pinned zeros either way.  finish and arrival live in
            # ONE flat state buffer (finish block first), so the select
            # collapses into the gather index itself — one take per
            # position instead of two takes plus a masked copy
            np.not_equal(pm, m_all[:, :, None], out=cross)
            np.take(self._pad_item, orders, axis=0, out=item_all)
            np.add(item_all, rows_arr, out=item_all)
            item_all += fin_size  # shift into the arrival block
            np.copyto(pf_idx, item_all, where=cross)
            np.copyto(lane_idx, pf_idx.transpose(1, 2, 0))

        lane_dur = sc["lane_dur"][:, :, :B]
        lane_out = sc["lane_out"][:, :, :B]
        if Do:
            ocons = sc["ocons"][:B]
            oidx = sc["oidx"][:B]
            odst = sc["odst"][:B]
            oitem = sc["oitem"][:B]
            odur = sc["odur"][:B]
            oslot = sc["oslot"][:B]
            np.take(self._pad_out_cons, orders, axis=0, out=ocons)
            np.add(ocons, rows_fin, out=oidx)
            np.take(mpad_flat, oidx, out=odst)  # consumer machines
            np.take(self._pad_out_item, orders, axis=0, out=oitem)
            if self._trv_table is not None:
                # one flat gather from the tabulated (l, l, p+1) costs:
                # index = (dst*l + m)*(p+1) + item, built in place; the
                # table is symmetric and its diagonal / padding column
                # store the 0.0 of same-machine and sentinel pushes
                np.multiply(odst, l * P1, out=oidx)
                oidx += (m_all * P1)[:, :, None]
                oidx += oitem
                np.take(self._trv_table.reshape(-1), oidx, out=odur)
            else:
                odur[...] = self._tr[
                    self._pair_row[odst, m_all[:, :, None]], oitem
                ]
            np.take(self._pad_out_slot, orders, axis=0, out=oslot)
            np.add(oslot, rows_arr, out=oslot)
            np.copyto(lane_dur, odur.transpose(1, 2, 0))
            np.copyto(lane_out, oslot.transpose(1, 2, 0))
        # small and needed contiguous as take() targets -> per call
        pf_buf = np.empty((max(D, 1), B))
        push_buf = np.empty((max(Do, 1), B))

        # ---- the sequential walk: the four state vectors of the
        # scalar ContentionSimulator (machine availability, NIC-free
        # times, item arrivals, task finishes), carried per batch
        # element.  finish and arrival share one flat buffer (see the
        # combined gather index above); sentinel lanes gather/scatter
        # stored zeros and scratch slots, so no masking is needed.
        state = sc["state"][: fin_size + B * P2]
        state.fill(0.0)
        finish = state[:fin_size]
        arrival = state[fin_size:]
        avail = sc["avail"][: B * l]
        avail.fill(0.0)
        nic = sc["nic"][: B * l]
        nic.fill(0.0)
        ready = sc["ready"][:B]
        tmax = sc["tmax"][:B]
        nf = sc["nf"][:B]
        for q in range(k):
            np.take(avail, mach_idx_pm[q], out=ready)
            d = din_at[q]
            if d:
                pf = pf_buf[:d]
                np.take(state, lane_idx[q, :d], out=pf)
                pf.max(axis=0, out=tmax)
                np.maximum(ready, tmax, out=ready)
            ready += exec_pm[q]
            finish[fin_idx_pm[q]] = ready
            avail[mach_idx_pm[q]] = ready
            do = dout_at[q]
            if do:
                # eager pushes, serialised on the producer's NIC in item
                # order: the first push starts at max(fin, nf); every
                # later one starts at the running nf, which is already
                # >= fin after the first (durations are non-negative),
                # so the scalar walk's per-item max degenerates to a
                # chain of adds — computed lane by lane for bit-exact
                # float association, then scattered in one shot
                np.take(nic, mach_idx_pm[q], out=nf)
                np.maximum(nf, ready, out=nf)
                dur_q = lane_dur[q]
                pushes = push_buf[:do]
                np.add(nf, dur_q[0], out=pushes[0])
                for j in range(1, do):
                    np.add(pushes[j - 1], dur_q[j], out=pushes[j])
                # duplicate indices only hit the write-scratch slot
                # (sentinel lanes), which is never read back
                arrival[lane_out[q, :do]] = pushes
                nic[mach_idx_pm[q]] = pushes[do - 1]
        # every subtask finishes on some machine and per-machine finish
        # times only grow, so the final availability row holds each
        # machine's last finish — its max is exactly the makespan (all
        # transfers complete before their consumers start, so none can
        # outlive the last finish)
        return avail.reshape(B, l).max(axis=1)

    def _scratch_buffers(self, batch_rows: int) -> dict:
        """Reusable per-instance scratch, sized for ``chunk_size`` rows.

        Rebuilt only if ``chunk_size`` grew since allocation; keeping
        the buffers alive across calls avoids multi-megabyte
        allocations (and their page faults) in every batch.  This is
        what makes instances not thread-safe.
        """
        C = max(self.chunk_size, batch_rows)
        sc = self._scratch
        if sc is not None and sc["capacity"] >= C:
            return sc
        k = self._k
        l = self._l
        D = max(self._max_deg, 1)
        Do = max(self._max_out, 1)
        P2 = self._p + 2
        self._scratch = sc = {
            "capacity": C,
            "prod": np.empty((C, k, D), dtype=np.intp),
            "pfidx": np.empty((C, k, D), dtype=np.intp),
            "pm": np.empty((C, k, D), dtype=np.intp),
            "item": np.empty((C, k, D), dtype=np.intp),
            "cross": np.empty((C, k, D), dtype=bool),
            "mpad": np.zeros((C, k + 1), dtype=np.intp),
            "lane_idx": np.empty((k, D, C), dtype=np.intp),
            "ocons": np.empty((C, k, Do), dtype=np.intp),
            "oidx": np.empty((C, k, Do), dtype=np.intp),
            "odst": np.empty((C, k, Do), dtype=np.intp),
            "oitem": np.empty((C, k, Do), dtype=np.intp),
            "odur": np.empty((C, k, Do)),
            "oslot": np.empty((C, k, Do), dtype=np.intp),
            "lane_dur": np.empty((k, Do, C)),
            "lane_out": np.empty((k, Do, C), dtype=np.intp),
            "state": np.empty(C * (k + 1) + C * P2),
            "avail": np.empty(C * l),
            "nic": np.empty(C * l),
            "ready": np.empty(C),
            "tmax": np.empty(C),
            "nf": np.empty(C),
        }
        return sc
