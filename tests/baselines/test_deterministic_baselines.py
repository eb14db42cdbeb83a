"""Unit tests for HEFT, list scheduling, Min-min/Max-min, OLB, random search."""

import numpy as np
import pytest

from repro.baselines import (
    BaselineResult,
    heft,
    list_schedule,
    max_min,
    min_min,
    olb,
    random_search,
    task_processing_order,
    upward_ranks,
)
from repro.baselines.base import IncrementalScheduleBuilder
from repro.baselines.listsched import downward_ranks, mean_transfer_times
from repro.model import (
    ExecutionTimeMatrix,
    HCSystem,
    TaskGraph,
    TransferTimeMatrix,
    Workload,
)
from repro.schedule import is_valid_for, verify_schedule

ALL_DETERMINISTIC = [heft, min_min, max_min, olb]


@pytest.mark.parametrize("algo", ALL_DETERMINISTIC)
class TestCommonContracts:
    def test_schedule_verifies(self, algo, tiny_workload):
        res = algo(tiny_workload)
        verify_schedule(tiny_workload, res.schedule)

    def test_string_valid(self, algo, tiny_workload):
        res = algo(tiny_workload)
        assert is_valid_for(res.string, tiny_workload.graph)

    def test_deterministic(self, algo, tiny_workload):
        a = algo(tiny_workload)
        b = algo(tiny_workload)
        assert a.makespan == b.makespan
        assert a.string == b.string

    def test_single_machine(self, algo, single_machine_workload):
        res = algo(single_machine_workload)
        # one machine: makespan is the serial sum regardless of algorithm
        assert res.makespan == pytest.approx(25.0)

    def test_sample_workload(self, algo, sample_workload):
        res = algo(sample_workload)
        verify_schedule(sample_workload, res.schedule)


class TestUpwardRanks:
    def test_decreasing_along_edges(self, tiny_workload):
        r = upward_ranks(tiny_workload)
        for d in tiny_workload.graph.data_items:
            assert r[d.producer] > r[d.consumer]

    def test_exit_task_rank_is_mean_exec(self, diamond_workload):
        r = upward_ranks(diamond_workload)
        mean_exec = diamond_workload.exec_times.values.mean(axis=0)
        assert r[3] == pytest.approx(mean_exec[3])

    def test_hand_computed_diamond(self, diamond_workload):
        r = upward_ranks(diamond_workload)
        # mean execs: s0=12.5, s1=15, s2=25, s3=17.5; mean comm = 5
        assert r[1] == pytest.approx(15 + 5 + 17.5)
        assert r[2] == pytest.approx(25 + 5 + 17.5)
        assert r[0] == pytest.approx(12.5 + 5 + max(r[1], r[2]))

    def test_downward_ranks_increasing(self, tiny_workload):
        r = downward_ranks(tiny_workload)
        for d in tiny_workload.graph.data_items:
            assert r[d.consumer] > r[d.producer]

    def test_entry_task_downward_rank_zero(self, diamond_workload):
        assert downward_ranks(diamond_workload)[0] == 0.0

    def test_mean_transfer_single_machine_zero(self, single_machine_workload):
        mt = mean_transfer_times(single_machine_workload)
        assert np.all(mt == 0.0)


class TestTaskProcessingOrder:
    @pytest.mark.parametrize("priority", ["upward_rank", "downward_rank", "level"])
    def test_orders_topological(self, priority, tiny_workload):
        order = task_processing_order(tiny_workload, priority)
        assert tiny_workload.graph.is_valid_order(order)

    def test_unknown_priority(self, tiny_workload):
        with pytest.raises(ValueError, match="priority"):
            task_processing_order(tiny_workload, "bogus")  # type: ignore[arg-type]

    @pytest.mark.parametrize("priority", ["upward_rank", "downward_rank", "level"])
    def test_list_schedule_variants_verify(self, priority, tiny_workload):
        res = list_schedule(tiny_workload, priority=priority)
        verify_schedule(tiny_workload, res.schedule)


class TestHeftSpecifics:
    def test_heft_name(self, tiny_workload):
        assert heft(tiny_workload).name == "heft"

    def test_heft_beats_olb_on_heterogeneous(self):
        """On a strongly heterogeneous instance HEFT must beat OLB, which
        ignores execution times altogether."""
        from repro.workloads import WorkloadSpec, build_workload

        w = build_workload(
            WorkloadSpec(
                num_tasks=40,
                num_machines=6,
                heterogeneity="high",
                connectivity="low",
                ccr=0.1,
                seed=5,
            )
        )
        assert heft(w).makespan < olb(w).makespan

    def test_heft_chain_single_best_machine(self):
        """A chain with one dominant machine and huge comm: HEFT keeps
        everything on the dominant machine."""
        graph = TaskGraph.from_edges(3, [(0, 1), (1, 2)])
        e = ExecutionTimeMatrix([[1.0, 1.0, 1.0], [10.0, 10.0, 10.0]])
        tr = TransferTimeMatrix([[100.0, 100.0]], 2)
        w = Workload(graph, HCSystem.of_size(2), e, tr)
        res = heft(w)
        assert set(res.string.machines) == {0}
        assert res.makespan == pytest.approx(3.0)


class TestMinMinMaxMin:
    def test_min_min_name(self, tiny_workload):
        assert min_min(tiny_workload).name == "min-min"
        assert max_min(tiny_workload).name == "max-min"

    def test_both_respect_readiness(self, tiny_workload):
        for algo in (min_min, max_min):
            res = algo(tiny_workload)
            pos = {t: i for i, t in enumerate(res.string.order)}
            for d in tiny_workload.graph.data_items:
                assert pos[d.producer] < pos[d.consumer]

    def test_differ_on_spread_workload(self):
        """Min-min and Max-min should pick different orders when task
        sizes are spread out (classic behavioural difference)."""
        from repro.workloads import WorkloadSpec, build_workload

        w = build_workload(
            WorkloadSpec(
                num_tasks=30,
                num_machines=4,
                heterogeneity="high",
                connectivity="low",
                ccr=0.5,
                seed=11,
            )
        )
        assert min_min(w).string != max_min(w).string


class TestOLB:
    def test_ignores_execution_times(self):
        """OLB assigns by availability only: with identical availability
        it round-robins by machine id, not by speed."""
        graph = TaskGraph.from_edges(2, [])
        e = ExecutionTimeMatrix([[100.0, 100.0], [1.0, 1.0]])
        tr = TransferTimeMatrix(np.zeros((1, 0)), 2)
        w = Workload(graph, HCSystem.of_size(2), e, tr)
        res = olb(w)
        # first task goes to m0 (lowest id among equally-available)
        assert res.string.machine_of(res.string.order[0]) == 0


class TestRandomSearch:
    def test_result_valid(self, tiny_workload):
        res = random_search(tiny_workload, samples=50, seed=1)
        verify_schedule(tiny_workload, res.schedule)

    def test_deterministic_per_seed(self, tiny_workload):
        a = random_search(tiny_workload, samples=50, seed=9)
        b = random_search(tiny_workload, samples=50, seed=9)
        assert a.makespan == b.makespan

    def test_more_samples_never_worse(self, tiny_workload):
        a = random_search(tiny_workload, samples=10, seed=3)
        b = random_search(tiny_workload, samples=200, seed=3)
        assert b.makespan <= a.makespan

    def test_zero_samples_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match=">= 1"):
            random_search(tiny_workload, samples=0)

    def test_trace_recorded(self, tiny_workload):
        from repro.analysis.trace import ConvergenceTrace

        tr = ConvergenceTrace()
        random_search(tiny_workload, samples=25, seed=1, trace=tr)
        assert len(tr) == 25
        best = tr.best_makespans()
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best, best[1:]))

    def test_time_limit_stops_early(self, tiny_workload):
        res = random_search(
            tiny_workload, samples=10**8, seed=1, time_limit=0.1
        )
        assert res.evaluations < 10**8


class TestIncrementalBuilder:
    def test_unscheduled_predecessor_rejected(self, diamond_workload):
        b = IncrementalScheduleBuilder(diamond_workload, "t")
        with pytest.raises(ValueError, match="unscheduled"):
            b.data_ready_time(3, 0)

    def test_double_place_rejected(self, diamond_workload):
        b = IncrementalScheduleBuilder(diamond_workload, "t")
        b.place(0, 0)
        with pytest.raises(ValueError, match="already"):
            b.place(0, 1)

    def test_incomplete_result_rejected(self, diamond_workload):
        b = IncrementalScheduleBuilder(diamond_workload, "t")
        b.place(0, 0)
        with pytest.raises(ValueError, match="scheduled"):
            b.to_result()

    def test_builder_agrees_with_simulator(self, diamond_workload):
        b = IncrementalScheduleBuilder(diamond_workload, "t")
        for t in (0, 1, 2, 3):
            m, _ = b.best_machine(t)
            b.place(t, m)
        res = b.to_result()
        assert isinstance(res, BaselineResult)
        verify_schedule(diamond_workload, res.schedule)


class TestRandomSearchBatchDeadline:
    """A ``time_limit`` keeps chunked scoring on, with the deadline
    checked between chunks."""

    def test_time_limit_keeps_chunked_scoring(self, tiny_workload, monkeypatch):
        from repro.optim import EvaluationService

        calls = {"n": 0}
        original = EvaluationService.batch_string_makespans

        def spy(self, strings):
            calls["n"] += 1
            return original(self, strings)

        monkeypatch.setattr(
            EvaluationService, "batch_string_makespans", spy
        )
        res = random_search(
            tiny_workload, samples=64, seed=3, time_limit=60.0, batch_size=16
        )
        assert calls["n"] == 4  # 64 samples scored in 4 chunks of 16
        assert res.evaluations == 64

    def test_time_limited_run_bit_identical_to_unlimited(self, tiny_workload):
        """With a generous deadline the sample cap binds, and results
        must equal the historical no-time-limit batched run exactly."""
        limited = random_search(
            tiny_workload, samples=50, seed=9, time_limit=600.0
        )
        unlimited = random_search(tiny_workload, samples=50, seed=9)
        assert limited.makespan == unlimited.makespan
        assert limited.string == unlimited.string
        assert limited.evaluations == unlimited.evaluations == 50

    def test_deadline_checked_between_chunks(self, tiny_workload):
        """An expired deadline stops the run at chunk granularity, and
        every scored sample counts toward the reported draw count."""
        res = random_search(
            tiny_workload,
            samples=10**8,
            seed=1,
            time_limit=0.05,
            batch_size=32,
        )
        assert 1 <= res.evaluations < 10**8
        assert res.evaluations % 32 == 0  # whole chunks only

    def test_scalar_chunks_preserve_per_sample_deadline(self, tiny_workload):
        """batch_size=1 keeps the historical sample-at-a-time check."""
        res = random_search(
            tiny_workload, samples=10**8, seed=1, time_limit=0.05,
            batch_size=1,
        )
        assert 1 <= res.evaluations < 10**8
