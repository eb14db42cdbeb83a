"""Property tests: NIC batch scoring leaves the engines unchanged.

Whole GA and random-search runs under ``network="nic"`` are identical on
the kernel route and on the service's loop over the scalar
``ContentionSimulator``, down to their ``evaluations`` accounting (the
kernel's bit-identity itself is pinned in ``test_jit_properties.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, run_ga
from repro.baselines.random_search import random_search
from tests.routes import jit_kernel, no_batch_kernel
from tests.strategies import workloads


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
        with jit_kernel():
            batch = run_ga(w, GAConfig(**base))
        with no_batch_kernel("nic"):
            scalar = run_ga(w, GAConfig(**base))
        assert batch.best_makespan == scalar.best_makespan
        assert batch.best_string == scalar.best_string
        assert (
            batch.trace.current_makespans() == scalar.trace.current_makespans()
        )
        assert scalar.evaluations == batch.evaluations

    @given(
        workloads(min_tasks=1, max_tasks=6, max_machines=3),
        st.integers(0, 2**16),
        st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_search_identical_under_nic(self, w, seed, samples):
        with jit_kernel():
            batch = random_search(w, samples=samples, seed=seed, network="nic")
        scalar = random_search(
            w, samples=samples, seed=seed, network="nic", batch_size=1
        )
        assert batch.makespan == scalar.makespan
        assert batch.string == scalar.string
        assert batch.evaluations == scalar.evaluations
