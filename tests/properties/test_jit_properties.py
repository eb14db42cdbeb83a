"""Property tests: the batch kernels are bit-identical to the scalar walks.

The contract the kernel tier rests on: for any workload and any batch of
valid strings, :class:`~repro.schedule.vectorized.BatchSimulator` and
:class:`~repro.schedule.vectorized.ContentionBatchSimulator` return *the
same floats, bit for bit*, as sequential ``Simulator.makespan`` /
``ContentionSimulator.makespan`` calls — so scoring a GA population or a
random-search chunk on the kernel cannot change a single decision,
trace, or result.  On numba-free installations the walks of
:mod:`repro.schedule.jit` run as plain Python; numba compiles *the same
bodies* without ``fastmath``, so no reassociation can diverge the
compiled results from what is pinned here.

Also pinned:

* **degradation** — with every transfer time zero the NIC kernel
  collapses exactly to the plain kernel (and both to the scalar
  ``Simulator``), mirroring the scalar-model property in
  ``test_contention_backend_properties.py``;
* **chunking** — rows are independent: scoring a batch in pieces of
  any size gives the same per-row results as one call;
* **edges** — empty batches and single-task workloads;
* **service routes** — an evaluation service on the ``jit`` tier scores
  batches bit-identically to one looping its scalar backend.
"""

from __future__ import annotations

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
from repro.schedule.vectorized import ContentionBatchSimulator
from tests.routes import jit_kernel, no_batch_kernel
from tests.strategies import workloads

KERNELS = (BatchSimulator, ContentionBatchSimulator)


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


class TestJitBitIdenticalToScalar:
    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_plain_matches_scalar_simulator(self, case):
        w, strings = case
        got = BatchSimulator(w).string_makespans(strings)
        scalar = Simulator(w)
        want = [scalar.string_makespan(s) for s in strings]
        assert got.tolist() == want  # bit-identical, no tolerance

    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_nic_matches_scalar_simulator(self, case):
        w, strings = case
        scalar = make_simulator(w, "nic")
        got = ContentionBatchSimulator(w).string_makespans(strings)
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
        nic = ContentionBatchSimulator(wz).string_makespans(strings)
        plain = BatchSimulator(wz).string_makespans(strings)
        scalar = Simulator(wz)
        assert nic.tolist() == plain.tolist()
        assert nic.tolist() == [scalar.string_makespan(s) for s in strings]


class TestJitChunkingAndEdges:
    @given(workload_batches(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chunking_is_invisible(self, case, chunk):
        w, strings = case
        for cls in KERNELS:
            kernel = cls(w)
            full = kernel.string_makespans(strings)
            chunked = [
                span
                for start in range(0, len(strings), chunk)
                for span in kernel.string_makespans(
                    strings[start : start + chunk]
                ).tolist()
            ]
            assert chunked == full.tolist()

    @given(workloads(max_tasks=6, max_machines=3))
    @settings(max_examples=20, deadline=None)
    def test_empty_batch(self, w):
        for cls in KERNELS:
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
        for cls in KERNELS:
            got = cls(w).string_makespans([s])
            assert got.tolist() == [scalar.string_makespan(s)]


class TestServiceRoutes:
    @given(workload_batches())
    @settings(max_examples=25, deadline=None)
    def test_kernel_route_matches_scalar_loop(self, case):
        """The ``jit`` service route scores batches bit-identically to
        the service's loop over its scalar backend, on both networks."""
        w, strings = case
        for network in ("contention-free", "nic"):
            with jit_kernel():
                fast = EvaluationService(w, network)
            with no_batch_kernel(network):
                slow = EvaluationService(w, network)
            assert (fast.kernel_tier, slow.kernel_tier) == (
                "jit",
                "sequential",
            )
            got = fast.batch_string_makespans(strings)
            assert got == slow.batch_string_makespans(strings)
            assert fast.evaluations == slow.evaluations == len(strings)
