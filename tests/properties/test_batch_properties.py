"""Property tests: batch evaluation is bit-identical to scalar evaluation.

The contract the whole PR rests on: for any workload and any set of
valid strings, ``BatchSimulator.makespans`` returns *the same floats,
bit for bit* as sequential ``Simulator.makespan`` calls — so wiring
batch scoring into the GA and random search cannot change a single
decision, trace, or result.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, run_ga
from repro.baselines.random_search import random_search
from repro.optim.evaluation import EvaluationService
from repro.schedule import (
    BatchSimulator,
    Simulator,
    make_simulator,
    random_valid_string,
)
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


class TestBatchKernelBitIdentical:
    @given(workload_batches())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_simulator(self, case):
        w, strings = case
        scalar = Simulator(w)
        kernel = BatchSimulator(w)
        got = kernel.string_makespans(strings)
        want = [scalar.string_makespan(s) for s in strings]
        assert got.tolist() == want  # bit-identical, no tolerance

    @given(workload_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_without_transfer_table(self, case):
        """The big-system fallback path (no tabulated Tr) agrees too."""
        w, strings = case
        scalar = Simulator(w)
        kernel = BatchSimulator(w)
        kernel._trv_table = None  # force the pair_row two-step gather
        got = kernel.string_makespans(strings)
        assert got.tolist() == [scalar.string_makespan(s) for s in strings]

    @given(workload_batches(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chunking_is_invisible(self, case, chunk):
        """Any chunk size partitions into the same per-row results."""
        w, strings = case
        full = BatchSimulator(w).string_makespans(strings)
        saved = BatchSimulator.chunk_size
        try:
            BatchSimulator.chunk_size = chunk
            chunked = BatchSimulator(w).string_makespans(strings)
        finally:
            BatchSimulator.chunk_size = saved
        assert chunked.tolist() == full.tolist()

    @given(workloads(max_tasks=6, max_machines=3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nic_fallback_matches_contention_scalar(self, w, seed):
        svc = EvaluationService(w, "nic")
        scalar = make_simulator(w, "nic")
        s = random_valid_string(w.graph, w.num_machines, seed)
        got = svc.batch_string_makespans([s, s])
        want = scalar.string_makespan(s)
        assert got == [want, want]


class TestEnginesUnchangedByBatching:
    @given(
        workloads(min_tasks=2, max_tasks=7, max_machines=3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_ga_results_identical(self, w, seed):
        base = dict(
            seed=seed,
            max_generations=3,
            population_size=8,
            stall_generations=None,
        )
        batch = run_ga(w, GAConfig(**base))
        with no_batch_kernel():
            scalar = run_ga(w, GAConfig(**base))
        assert batch.best_makespan == scalar.best_makespan
        assert batch.best_string == scalar.best_string
        assert (
            batch.trace.current_makespans() == scalar.trace.current_makespans()
        )

    @given(
        workloads(min_tasks=1, max_tasks=6, max_machines=3),
        st.integers(0, 2**16),
        st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_search_identical(self, w, seed, samples):
        batch = random_search(w, samples=samples, seed=seed)
        scalar = random_search(w, samples=samples, seed=seed, batch_size=1)
        assert batch.makespan == scalar.makespan
        assert batch.string == scalar.string
        assert batch.evaluations == scalar.evaluations
