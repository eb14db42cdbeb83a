"""Property tests: the NIC batch kernel is bit-identical to the scalar.

The contract the vectorized-contention tentpole rests on: for any
workload and any set of valid strings,
``ContentionBatchSimulator.makespans`` returns *the same floats, bit
for bit*, as sequential ``ContentionSimulator.makespan`` calls — so
flipping the GA, tabu and random search onto the kernel under
``network="nic"`` cannot change a single decision, trace, or result.

Also pinned here:

* **degradation** — with every transfer time zero the NIC kernel
  collapses exactly to the contention-free ``BatchSimulator`` (and both
  to the scalar ``Simulator``), mirroring the scalar-model property in
  ``test_contention_backend_properties.py``;
* **chunking** — any ``chunk_size`` partitions a batch into the same
  per-row results;
* **engines unchanged** — whole GA / random-search / tabu runs under
  ``"nic"`` are identical with the kernel and with the forced scalar
  path (random search down to its ``evaluations`` accounting).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, run_ga
from repro.baselines.random_search import random_search
from repro.extensions.contention import ContentionSimulator
from repro.model import TransferTimeMatrix, Workload, num_pairs
from repro.schedule import BatchSimulator, random_valid_string
from repro.schedule.vectorized_contention import ContentionBatchSimulator
from tests.routes import no_batch_kernel
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


class TestContentionKernelBitIdentical:
    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_contention_simulator(self, case):
        w, strings = case
        scalar = ContentionSimulator(w)
        kernel = ContentionBatchSimulator(w)
        got = kernel.string_makespans(strings)
        want = [scalar.string_makespan(s) for s in strings]
        assert got.tolist() == want  # bit-identical, no tolerance

    @given(workload_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_without_transfer_table(self, case):
        """The big-system fallback path (no tabulated Tr) agrees too."""
        w, strings = case
        scalar = ContentionSimulator(w)
        kernel = ContentionBatchSimulator(w)
        kernel._trv_table = None  # force the pair_row two-step gather
        got = kernel.string_makespans(strings)
        assert got.tolist() == [scalar.string_makespan(s) for s in strings]

    @given(workload_batches(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chunking_is_invisible(self, case, chunk):
        """Any chunk size partitions into the same per-row results."""
        w, strings = case
        full = ContentionBatchSimulator(w).string_makespans(strings)
        saved = ContentionBatchSimulator.chunk_size
        try:
            ContentionBatchSimulator.chunk_size = chunk
            chunked = ContentionBatchSimulator(w).string_makespans(strings)
        finally:
            ContentionBatchSimulator.chunk_size = saved
        assert chunked.tolist() == full.tolist()

    @given(workload_batches())
    @settings(max_examples=60, deadline=None)
    def test_zero_transfers_collapse_to_contention_free_kernel(self, case):
        """With every transfer time zero there is nothing to serialise:
        the NIC kernel's makespans equal the contention-free kernel's
        **exactly** (bitwise, no tolerance)."""
        w, strings = case
        wz = _zero_transfers(w)
        nic = ContentionBatchSimulator(wz).string_makespans(strings)
        free = BatchSimulator(wz).string_makespans(strings)
        assert nic.tolist() == free.tolist()


class TestEnginesUnchangedByNicKernel:
    @given(
        workloads(min_tasks=2, max_tasks=7, max_machines=3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_ga_results_identical_under_nic(self, w, seed):
        base = dict(
            seed=seed,
            max_generations=3,
            population_size=8,
            stall_generations=None,
            network="nic",
        )
        batch = run_ga(w, GAConfig(**base))
        with no_batch_kernel("nic"):
            scalar = run_ga(w, GAConfig(**base))
        assert batch.best_makespan == scalar.best_makespan
        assert batch.best_string == scalar.best_string
        assert (
            batch.trace.current_makespans() == scalar.trace.current_makespans()
        )
        # the sequential route also counts one prepare per parent group
        # it delta-scores, so only its count may exceed the batch route's
        assert scalar.evaluations >= batch.evaluations

    @given(
        workloads(min_tasks=1, max_tasks=6, max_machines=3),
        st.integers(0, 2**16),
        st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_search_identical_under_nic(self, w, seed, samples):
        batch = random_search(w, samples=samples, seed=seed, network="nic")
        scalar = random_search(
            w, samples=samples, seed=seed, network="nic", batch_size=1
        )
        assert batch.makespan == scalar.makespan
        assert batch.string == scalar.string
        assert batch.evaluations == scalar.evaluations
