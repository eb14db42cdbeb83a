"""Units for the optim core: BestTracker, TrajectoryRecorder,
ObserverBus and the SearchLoop driver."""

import pytest

from repro.analysis.trace import IterationRecord
from repro.optim import (
    BestTracker,
    ObserverBus,
    SearchLoop,
    StepOutcome,
    StopPolicy,
    TrajectoryRecorder,
)


class Solution:
    """A copyable marker so tests can tell copies from originals."""

    def __init__(self, tag):
        self.tag = tag
        self.copies = 0

    def copy(self):
        self.copies += 1
        return Solution(self.tag)


class TestBestTracker:
    def test_seed_then_strict_improvement(self):
        t = BestTracker()
        s = Solution("a")
        t.seed(10.0, s)
        assert t.best_cost == 10.0 and t.stall == 0
        assert t.update(9.0, Solution("b")) is True
        assert t.best_cost == 9.0 and t.stall == 0

    def test_tie_is_not_improvement(self):
        t = BestTracker()
        t.seed(10.0, Solution("a"))
        assert t.update(10.0, Solution("b")) is False
        assert t.stall == 1
        assert t.best.tag == "a"

    def test_stall_resets_on_improvement(self):
        t = BestTracker()
        t.seed(10.0, Solution("a"))
        t.update(11.0, Solution("b"))
        t.update(12.0, Solution("c"))
        assert t.stall == 2
        t.update(5.0, Solution("d"))
        assert t.stall == 0

    def test_best_is_a_copy(self):
        t = BestTracker()
        s = Solution("a")
        t.seed(10.0, s)
        assert t.best is not s
        assert s.copies == 1
        w = Solution("b")
        t.update(20.0, w)  # no improvement -> no copy
        assert w.copies == 0

    def test_custom_copy(self):
        t = BestTracker(copy=lambda x: x)
        s = Solution("a")
        t.seed(1.0, s)
        assert t.best is s

    def test_best_before_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            BestTracker().best

    def test_update_without_seed_starts_from_infinity(self):
        t = BestTracker(copy=lambda x: x)
        assert t.update(1e12, Solution("a")) is True


class TestTrajectoryRecorder:
    def test_records_accumulate_in_order(self):
        r = TrajectoryRecorder()
        r.record(1, 10.0, 10.0, 0.1, 5)
        r.record(2, 9.0, 9.0, 0.2, 11, num_selected=3, mean_goodness=0.5)
        assert len(r.trace) == 2
        assert r.trace.best_makespans() == [10.0, 9.0]
        assert r.trace[1].num_selected == 3
        assert r.trace[1].mean_goodness == 0.5
        assert r.trace[1].evaluations == 11

    def test_non_increasing_iterations_rejected(self):
        r = TrajectoryRecorder()
        r.record(1, 1.0, 1.0, 0.0, 0)
        with pytest.raises(ValueError, match="increase"):
            r.record(1, 1.0, 1.0, 0.0, 0)


class TestObserverBus:
    def test_notifies_in_subscription_order(self):
        seen = []
        bus = ObserverBus(
            [
                lambda rec, s: seen.append(("a", rec.iteration)),
                lambda rec, s: seen.append(("b", rec.iteration)),
            ]
        )
        rec = IterationRecord(1, 1.0, 1.0)
        bus.notify(rec, None)
        assert seen == [("a", 1), ("b", 1)]

    def test_empty_bus_is_a_noop(self):
        bus = ObserverBus()
        assert len(bus) == 0
        rec = IterationRecord(1, 1.0, 1.0)
        bus.notify(rec, None)  # must not raise


class TestSearchLoop:
    def test_trace_evaluations_sampled_per_iteration(self):
        evals = {"n": 0}

        def step(iteration):
            evals["n"] += 10
            return StepOutcome(cost=100.0 - iteration, candidate=Solution("x"))

        loop = SearchLoop(
            stop=StopPolicy(max_iterations=3),
            evaluations=lambda: evals["n"],
        )
        out = loop.run(1000.0, Solution("init"), step)
        assert [r.evaluations for r in out.trace.records] == [10, 20, 30]

    def test_observer_payload_defaults_to_candidate(self):
        payloads = []

        def step(iteration):
            return StepOutcome(cost=1.0, candidate=f"cand{iteration}")

        loop = SearchLoop(
            stop=StopPolicy(max_iterations=2),
            observers=[lambda rec, p: payloads.append(p)],
            copy=lambda s: s,
        )
        loop.run(10.0, "init", step)
        assert payloads == ["cand1", "cand2"]

    def test_explicit_payload_wins(self):
        payloads = []

        def step(iteration):
            return StepOutcome(cost=1.0, candidate="cand", payload="shown")

        loop = SearchLoop(
            stop=StopPolicy(max_iterations=1),
            observers=[lambda rec, p: payloads.append(p)],
            copy=lambda s: s,
        )
        loop.run(10.0, "init", step)
        assert payloads == ["shown"]

    def test_best_and_trace_are_consistent(self):
        costs = [5.0, 3.0, 4.0, 2.0, 6.0]

        def step(iteration):
            return StepOutcome(
                cost=costs[iteration - 1], candidate=Solution(iteration)
            )

        loop = SearchLoop(stop=StopPolicy(max_iterations=5))
        out = loop.run(10.0, Solution(0), step)
        assert out.best_cost == 2.0
        assert out.best.tag == 4
        assert out.trace.best_makespans() == [5.0, 3.0, 3.0, 2.0, 2.0]
        assert out.trace.current_makespans() == costs

    def test_initial_solution_survives_non_improving_run(self):
        loop = SearchLoop(stop=StopPolicy(max_iterations=3))
        out = loop.run(
            1.0,
            Solution("init"),
            lambda i: StepOutcome(cost=50.0, candidate=Solution("worse")),
        )
        assert out.best_cost == 1.0
        assert out.best.tag == "init"
