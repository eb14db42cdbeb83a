"""End-to-end: every optimiser can optimise *under* the NIC backend.

The invariant shared by all of them: the reported makespan is exactly
what the contention backend measures for the returned string — the
algorithms are not allowed to optimise one cost model and report
another.
"""

import pytest

from repro.baselines import (
    GAConfig,
    GeneticAlgorithm,
    heft,
    max_min,
    min_min,
    olb,
    random_search,
)
from repro.baselines.base import IncrementalScheduleBuilder
from repro.core import SEConfig, SimulatedEvolution
from repro.extensions.contention import ContentionSimulator
from repro.extensions.hybrid import heft_seeded_se
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import no_batch_kernel


@pytest.fixture(scope="module")
def workload():
    # CCR high enough that contention actually bites
    return build_workload(
        WorkloadSpec(num_tasks=25, num_machines=4, ccr=1.0, seed=11)
    )


@pytest.fixture(scope="module")
def nic(workload):
    return ContentionSimulator(workload)


class TestSEUnderNic:
    def test_best_makespan_is_backend_truth(self, workload, nic):
        res = SimulatedEvolution(
            SEConfig(seed=3, max_iterations=10, network="nic")
        ).run(workload)
        assert res.best_makespan == nic.string_makespan(res.best_string)
        assert res.best_schedule.makespan == res.best_makespan

    def test_trace_records_nic_costs(self, workload, nic):
        res = SimulatedEvolution(
            SEConfig(seed=3, max_iterations=6, network="nic")
        ).run(workload)
        assert min(res.trace.best_makespans()) == res.best_makespan

    def test_network_changes_the_search(self, workload, nic):
        free = SimulatedEvolution(
            SEConfig(seed=3, max_iterations=10)
        ).run(workload)
        contended = SimulatedEvolution(
            SEConfig(seed=3, max_iterations=10, network="nic")
        ).run(workload)
        # the selector must actually steer the search, not just relabel
        # the report
        assert contended.best_string.pairs() != free.best_string.pairs()
        # instance-pinned expectation (not a theorem for a heuristic):
        # on this contended workload, optimising the true objective
        # should not lose to free-then-evaluate by more than 5%
        assert contended.best_makespan <= 1.05 * nic.string_makespan(
            free.best_string
        )


class TestGAUnderNic:
    def test_best_makespan_is_backend_truth(self, workload, nic):
        res = GeneticAlgorithm(
            GAConfig(
                seed=5, population_size=12, max_generations=6, network="nic"
            )
        ).run(workload)
        assert res.best_makespan == nic.string_makespan(res.best_string)

    def test_incremental_evaluation_is_equivalent_under_nic(self, workload):
        """The GA's delta path (taken without a batch kernel) must stay
        bit-identical when the backend is the contention simulator."""
        def run():
            return GeneticAlgorithm(
                GAConfig(
                    seed=9,
                    population_size=12,
                    max_generations=8,
                    network="nic",
                )
            ).run(workload)

        with no_batch_kernel("nic"):
            a = run()
        b = run()
        assert a.best_makespan == b.best_makespan
        assert [r.best_makespan for r in a.trace] == [
            r.best_makespan for r in b.trace
        ]


class TestHybridUnderNic:
    def test_warm_start_never_worse_than_nic_heft(self, workload, nic):
        cfg = SEConfig(seed=1, max_iterations=5, network="nic")
        base = heft(workload, network="nic")
        res = heft_seeded_se(workload, cfg)
        assert res.best_makespan <= base.makespan + 1e-9
        assert res.best_makespan == nic.string_makespan(res.best_string)


class TestBaselinesUnderNic:
    @pytest.mark.parametrize("fn", [heft, min_min, max_min, olb])
    def test_reported_makespan_is_backend_truth(self, fn, workload, nic):
        res = fn(workload, network="nic")
        assert res.network == "nic"
        assert res.makespan == nic.string_makespan(res.string)

    @pytest.mark.parametrize("fn", [heft, min_min, max_min, olb])
    def test_deterministic_under_nic(self, fn, workload):
        assert fn(workload, network="nic").string.pairs() == (
            fn(workload, network="nic").string.pairs()
        )

    def test_random_search_under_nic(self, workload, nic):
        res = random_search(workload, samples=16, seed=2, network="nic")
        assert res.network == "nic"
        assert res.makespan == nic.string_makespan(res.string)

    def test_nic_builder_queries_are_pure(self, workload):
        """data_ready_time / finish_time must not reserve NIC slots."""
        builder = IncrementalScheduleBuilder(workload, "probe", network="nic")
        order = workload.graph.topological_order()
        builder.place(order[0], 0)
        t = order[1]
        first = builder.finish_time(t, 1)
        for _ in range(3):
            assert builder.finish_time(t, 1) == first

    def test_nic_heft_can_beat_free_heft_under_contention(self, nic, workload):
        """Not a theorem, but on this contended instance the NIC-aware
        EFT rule should not lose to the blind one by more than noise —
        and the pinned instance has it strictly winning, which is the
        point of threading the selector through the baselines."""
        blind = heft(workload)  # optimised contention-free
        aware = heft(workload, network="nic")
        assert aware.makespan <= nic.string_makespan(blind.string) + 1e-9
