"""Property tests: batch scoring equals the scalar walk.

A batch is a loop over the service's scalar backend, so each row equals
a single ``makespan`` call — on either walker tier, bit for bit — and
the engines make the same decisions and ``evaluations`` accounting
whatever the chunk size or walker tier that scores them.

Also pinned:

* **degradation** — with every transfer time zero the ``"nic"`` batch
  collapses exactly to the contention-free one;
* **chunking** — rows are independent: scoring a batch in pieces of
  any size gives the same per-row results as one call;
* **edges** — empty batches and single-task workloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, run_ga
from repro.baselines.random_search import random_search
from repro.model import TransferTimeMatrix, Workload, num_pairs
from repro.optim.evaluation import EvaluationService
from repro.schedule import make_simulator, random_valid_string
from tests.routes import walker
from tests.strategies import workloads

NETWORKS = ("contention-free", "nic")
TIERS = ("compiled", "python")


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


def _service(w, network, tier):
    with walker(tier):
        return EvaluationService(w, network)


class TestBatchBitIdentical:
    @given(workloads(max_tasks=6, max_machines=3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nic_batch_matches_contention_scalar(self, w, seed):
        svc = EvaluationService(w, "nic")
        scalar = make_simulator(w, "nic")
        s = random_valid_string(w.graph, w.num_machines, seed)
        got = svc.batch_string_makespans([s, s])
        want = scalar.string_makespan(s)
        assert got == [want, want]

    @pytest.mark.parametrize("network", NETWORKS)
    @pytest.mark.parametrize("tier", TIERS)
    @given(case=workload_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_python_walker(self, tier, network, case):
        """Every tier's batch equals single Python-walker calls."""
        w, strings = case
        got = _service(w, network, tier).batch_string_makespans(strings)
        with walker("python"):
            scalar = make_simulator(w, network)
        assert got == [scalar.string_makespan(s) for s in strings]


class TestDegradation:
    @pytest.mark.parametrize("tier", TIERS)
    @given(case=workload_batches())
    @settings(max_examples=30, deadline=None)
    def test_zero_transfers_collapse_to_plain_walk(self, tier, case):
        """With nothing to serialise the NIC batch equals the plain one."""
        w, strings = case
        wz = _zero_transfers(w)
        nic = _service(wz, "nic", tier).batch_string_makespans(strings)
        plain = _service(wz, "contention-free", tier)
        assert nic == plain.batch_string_makespans(strings)


class TestChunkingAndEdges:
    @pytest.mark.parametrize("network", NETWORKS)
    @given(case=workload_batches(), chunk=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_chunking_is_invisible(self, network, case, chunk):
        w, strings = case
        svc = EvaluationService(w, network)
        full = svc.batch_string_makespans(strings)
        chunked = [
            span
            for start in range(0, len(strings), chunk)
            for span in svc.batch_string_makespans(
                strings[start : start + chunk]
            )
        ]
        assert chunked == full
        assert svc.evaluations == 2 * len(strings)

    @pytest.mark.parametrize("network", NETWORKS)
    @given(
        w=workloads(min_tasks=1, max_tasks=1, max_machines=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_single_task_workload(self, network, w, seed):
        s = random_valid_string(w.graph, w.num_machines, seed)
        got = EvaluationService(w, network).batch_string_makespans([s])
        assert got == [float(w.exec_times.values[s.machines[0], 0])]

    @pytest.mark.parametrize("network", NETWORKS)
    @given(w=workloads(max_tasks=6, max_machines=3))
    @settings(max_examples=20, deadline=None)
    def test_empty_batch(self, network, w):
        svc = EvaluationService(w, network)
        assert svc.batch_string_makespans([]) == []
        assert svc.evaluations == 0


class TestEnginesUnchangedByBatching:
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

    @given(
        workloads(min_tasks=2, max_tasks=7, max_machines=3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_ga_identical_across_walker_tiers_under_nic(self, w, seed):
        cfg = GAConfig(
            seed=seed,
            max_generations=3,
            population_size=8,
            stall_generations=None,
            network="nic",
        )
        runs = {}
        for tier in TIERS:
            with walker(tier):
                runs[tier] = run_ga(w, cfg)
        fast, slow = runs["compiled"], runs["python"]
        assert fast.best_makespan == slow.best_makespan
        assert fast.best_string == slow.best_string
        assert fast.trace.current_makespans() == slow.trace.current_makespans()
        assert fast.evaluations == slow.evaluations
