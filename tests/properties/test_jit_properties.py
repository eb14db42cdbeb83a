"""Property tests: the JIT kernel tier is bit-identical to the NumPy tier.

The contract the compiled-tier tentpole rests on: for any workload and
any batch of valid strings, the :mod:`repro.schedule.jit` walks return
*the same floats, bit for bit*, as the NumPy kernels
(``BatchSimulator`` / ``ContentionBatchSimulator``) — and transitively
(via ``test_batch_properties.py`` / ``test_contention_batch_properties
.py``) as the scalar simulators.  On numba-free installations the walks
run as plain Python; numba compiles *the same bodies* without
``fastmath``, so no reassociation can diverge the compiled results from
what is pinned here.

Also pinned:

* **degradation** — with every transfer time zero the JIT NIC walk
  collapses exactly to the JIT plain walk (and both to the scalar
  ``Simulator``), mirroring the NumPy-tier property;
* **chunking** — any ``chunk_size`` partitions a batch into the same
  per-row results (the JIT classes default to one huge chunk);
* **edges** — empty batches and single-task workloads;
* **forced fallback** — under ``REPRO_KERNEL=numpy`` the selected
  backend reports the ``vectorized`` tier and scores batches
  bit-identically to the JIT classes invoked directly.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import TransferTimeMatrix, Workload, num_pairs
from repro.optim.evaluation import EvaluationService
from repro.schedule import (
    BatchSimulator,
    Simulator,
    make_simulator,
    random_valid_string,
)
from repro.schedule.jit import JitBatchSimulator, JitContentionBatchSimulator
from repro.schedule.vectorized_contention import ContentionBatchSimulator
from tests.strategies import workloads


@st.composite
def workload_batches(draw, max_batch: int = 6):
    """A workload plus a batch of independent valid strings for it."""
    w = draw(workloads(max_tasks=8, max_machines=4))
    n = draw(st.integers(0, max_batch))
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(n)]
    strings = [
        random_valid_string(w.graph, w.num_machines, s) for s in seeds
    ]
    return w, strings


def _zero_transfers(w: Workload) -> Workload:
    tr = TransferTimeMatrix(
        np.zeros((num_pairs(w.num_machines), w.num_data_items)),
        num_machines=w.num_machines,
    )
    return Workload(w.graph, w.system, w.exec_times, tr)


class TestJitBitIdenticalToNumPy:
    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_plain_matches_numpy_kernel(self, case):
        w, strings = case
        got = JitBatchSimulator(w).string_makespans(strings)
        want = BatchSimulator(w).string_makespans(strings)
        assert got.tolist() == want.tolist()  # bit-identical, no tolerance

    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_nic_matches_numpy_kernel(self, case):
        w, strings = case
        got = JitContentionBatchSimulator(w).string_makespans(strings)
        want = ContentionBatchSimulator(w).string_makespans(strings)
        assert got.tolist() == want.tolist()

    @given(workload_batches())
    @settings(max_examples=40, deadline=None)
    def test_nic_matches_scalar_simulator(self, case):
        """Directly against the scalar walk, skipping the NumPy hop."""
        w, strings = case
        scalar = make_simulator(w, "nic")
        got = JitContentionBatchSimulator(w).string_makespans(strings)
        assert got.tolist() == [
            scalar.string_makespan(s) for s in strings
        ]


class TestJitDegradation:
    @given(workload_batches())
    @settings(max_examples=40, deadline=None)
    def test_zero_transfers_collapse_to_plain_walk(self, case):
        """With nothing to serialise the NIC walk equals the plain one."""
        w, strings = case
        wz = _zero_transfers(w)
        nic = JitContentionBatchSimulator(wz).string_makespans(strings)
        plain = JitBatchSimulator(wz).string_makespans(strings)
        scalar = Simulator(wz)
        assert nic.tolist() == plain.tolist()
        assert nic.tolist() == [scalar.string_makespan(s) for s in strings]


class TestJitChunkingAndEdges:
    @given(workload_batches(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chunking_is_invisible(self, case, chunk):
        w, strings = case
        full = JitBatchSimulator(w).string_makespans(strings)
        saved = JitBatchSimulator.chunk_size
        try:
            JitBatchSimulator.chunk_size = chunk
            chunked = JitBatchSimulator(w).string_makespans(strings)
        finally:
            JitBatchSimulator.chunk_size = saved
        assert chunked.tolist() == full.tolist()

    @given(workloads(max_tasks=6, max_machines=3))
    @settings(max_examples=20, deadline=None)
    def test_empty_batch(self, w):
        for cls in (JitBatchSimulator, JitContentionBatchSimulator):
            out = cls(w).string_makespans([])
            assert out.shape == (0,)

    @given(
        workloads(min_tasks=1, max_tasks=1, max_machines=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_single_task_workload(self, w, seed):
        s = random_valid_string(w.graph, w.num_machines, seed)
        scalar = Simulator(w)
        for cls in (JitBatchSimulator, JitContentionBatchSimulator):
            got = cls(w).string_makespans([s])
            assert got.tolist() == [scalar.string_makespan(s)]


class TestForcedFallback:
    @given(workload_batches())
    @settings(max_examples=25, deadline=None)
    def test_numpy_pin_is_equivalent(self, case):
        """``REPRO_KERNEL=numpy`` selects the NumPy tier and scores
        batches bit-identically to the JIT classes run directly."""
        w, strings = case
        saved = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = "numpy"
        try:
            for network, jit_cls in (
                ("contention-free", JitBatchSimulator),
                ("nic", JitContentionBatchSimulator),
            ):
                svc = EvaluationService(w, network)
                assert svc.kernel_tier == "vectorized"
                got = svc.batch_string_makespans(strings)
                want = jit_cls(w).string_makespans(strings)
                assert got == want.tolist()
        finally:
            if saved is None:
                del os.environ["REPRO_KERNEL"]
            else:
                os.environ["REPRO_KERNEL"] = saved
