"""Property tests: batch scoring leaves the engines unchanged.

Whatever route the evaluation service takes for a batch — the network's
kernel (see ``test_jit_properties.py`` for its bit-identity with the
scalar walks) or a loop over the scalar backend — the GA and random
search make the same decisions, traces and results, down to their
``evaluations`` accounting.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, run_ga
from repro.baselines.random_search import random_search
from repro.optim.evaluation import EvaluationService
from repro.schedule import make_simulator, random_valid_string
from tests.routes import jit_kernel, no_batch_kernel
from tests.strategies import workloads


class TestBatchKernelBitIdentical:
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
        with jit_kernel():
            batch = run_ga(w, GAConfig(**base))
        with no_batch_kernel():
            scalar = run_ga(w, GAConfig(**base))
        assert batch.best_makespan == scalar.best_makespan
        assert batch.best_string == scalar.best_string
        assert (
            batch.trace.current_makespans() == scalar.trace.current_makespans()
        )
        assert batch.evaluations == scalar.evaluations

    @given(
        workloads(min_tasks=1, max_tasks=6, max_machines=3),
        st.integers(0, 2**16),
        st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_search_identical(self, w, seed, samples):
        with jit_kernel():
            batch = random_search(w, samples=samples, seed=seed)
        scalar = random_search(w, samples=samples, seed=seed, batch_size=1)
        assert batch.makespan == scalar.makespan
        assert batch.string == scalar.string
        assert batch.evaluations == scalar.evaluations
