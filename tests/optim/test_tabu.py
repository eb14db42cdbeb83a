"""Behavioural tests for the tabu-search engine."""

import pytest

from repro.optim import TabuConfig, TabuSearch, run_tabu
from repro.optim.evaluation import EvaluationService
from repro.optim.tracking import ParetoTracker
from repro.schedule import Simulator, is_valid_for, verify_schedule
from repro.schedule.operations import random_valid_string


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"neighborhood_size": 0}, "neighborhood_size"),
            ({"tenure": -1}, "tenure"),
            ({"reassign_prob": -0.1}, "reassign_prob"),
            ({"max_iterations": -1}, "max_iterations"),
            ({"time_limit": -1.0}, "time_limit"),
            ({"stall_iterations": 0}, "stall_iterations"),
            ({"network": ""}, "network"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TabuConfig(**kwargs)


class TestBasicRun:
    def test_valid_verified_best(self, tiny_workload):
        res = run_tabu(tiny_workload, TabuConfig(seed=1, max_iterations=25))
        assert is_valid_for(res.best_string, tiny_workload.graph)
        verify_schedule(tiny_workload, res.best_schedule)
        assert res.best_makespan == pytest.approx(
            Simulator(tiny_workload).string_makespan(res.best_string)
        )

    def test_trace_and_counters(self, tiny_workload):
        cfg = TabuConfig(seed=1, max_iterations=20, neighborhood_size=10)
        res = run_tabu(tiny_workload, cfg)
        assert res.iterations == 20
        assert len(res.trace) == 20
        assert res.stopped_by == "iterations"
        # 1 initial + neighborhood_size per iteration
        assert res.evaluations == 1 + 20 * 10
        assert res.best_makespan == min(res.trace.best_makespans())

    def test_deterministic_per_seed(self, tiny_workload):
        a = run_tabu(tiny_workload, TabuConfig(seed=4, max_iterations=15))
        b = run_tabu(tiny_workload, TabuConfig(seed=4, max_iterations=15))
        assert a.best_makespan == b.best_makespan
        assert a.best_string == b.best_string
        assert a.trace.current_makespans() == b.trace.current_makespans()

    def test_improves_over_initial(self, tiny_workload):
        init = random_valid_string(
            tiny_workload.graph, tiny_workload.num_machines, 77
        )
        start = Simulator(tiny_workload).string_makespan(init)
        res = run_tabu(
            tiny_workload, TabuConfig(seed=1, max_iterations=40), initial=init
        )
        assert res.best_makespan <= start

    def test_initial_not_mutated(self, tiny_workload):
        init = random_valid_string(
            tiny_workload.graph, tiny_workload.num_machines, 77
        )
        before = init.pairs()
        run_tabu(
            tiny_workload, TabuConfig(seed=1, max_iterations=10), initial=init
        )
        assert init.pairs() == before

    def test_admissible_counts_bounded_by_neighborhood(self, tiny_workload):
        cfg = TabuConfig(seed=2, max_iterations=30, neighborhood_size=8)
        res = run_tabu(tiny_workload, cfg)
        assert all(0 <= c <= 8 for c in res.trace.selected_counts())


class TestStopping:
    def test_stops_by_time(self, tiny_workload):
        res = run_tabu(
            tiny_workload,
            TabuConfig(seed=1, max_iterations=10**8, time_limit=0.05),
        )
        assert res.stopped_by == "time"

    def test_stops_by_stall(self, tiny_workload):
        res = run_tabu(
            tiny_workload,
            TabuConfig(seed=1, max_iterations=10**6, stall_iterations=5),
        )
        assert res.stopped_by == "stall"


class TestTabuMechanics:
    def test_tenure_blocks_immediate_revisit(self, tiny_workload):
        """With a huge tenure and aspiration impossible to trigger, the
        engine must keep choosing *different* subtasks while admissible
        ones remain (the attribute list works)."""
        moved = []
        cfg = TabuConfig(
            seed=3,
            max_iterations=4,
            neighborhood_size=64,
            tenure=10**6,
        )

        class Spy(TabuSearch):
            pass

        res = Spy(cfg).run(
            tiny_workload,
            observers=[lambda rec, s: moved.append(s.pairs())],
        )
        assert res.iterations == 4
        # consecutive committed strings differ (the search keeps moving)
        assert len({p for p in moved}) >= 2

    def test_zero_tenure_disables_the_list(self, tiny_workload):
        """tenure=0 expires attributes instantly: every candidate is
        admissible every iteration."""
        cfg = TabuConfig(
            seed=5, max_iterations=12, neighborhood_size=6, tenure=0
        )
        res = run_tabu(tiny_workload, cfg)
        assert res.trace.selected_counts() == [6] * 12


def _count_scoring_calls(monkeypatch):
    """Spy on the scoring calls of EvaluationService a tabu step could
    make: its one neighborhood route, single deltas and batches."""
    calls = {"delta": 0, "moves": 0, "batch": 0}

    def spy(name, key):
        original = getattr(EvaluationService, name)

        def counted(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationService, name, counted)

    spy("evaluate_delta", "delta")
    spy("score_moves", "moves")
    spy("batch_makespans", "batch")
    spy("batch_string_makespans", "batch")
    return calls


class TestScoringRoute:
    """Whatever the service, a neighborhood is one ``score_moves`` call,
    counted as one evaluation per candidate; the service's backend (or
    its objective wrapper) decides how the candidates are scored."""

    ITERATIONS = 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"network": "nic"},
            {"initial_avail": [5.0, 0.0, 9.0, 1.0]},
            {
                "network": "nic",
                "initial_avail": [5.0, 0.0, 9.0, 1.0],
                "initial_nic_free": [2.0, 7.0, 0.0, 3.0],
            },
            {
                "objective": "mean",
                "scenarios": 4,
                "distribution": "lognormal:0.25",
            },
            {"platform": "spot", "pareto": ParetoTracker()},
        ],
        ids=["plain", "nic", "busy", "nic-busy", "scenario", "pareto"],
    )
    def test_one_score_moves_call_per_step(
        self, tiny_workload, monkeypatch, kwargs
    ):
        service = EvaluationService(tiny_workload, **kwargs)
        calls = _count_scoring_calls(monkeypatch)
        res = run_tabu(
            tiny_workload,
            TabuConfig(seed=1, max_iterations=self.ITERATIONS),
            service=service,
        )
        assert calls == {"delta": 0, "moves": self.ITERATIONS, "batch": 0}
        assert res.evaluations == 1 + self.ITERATIONS * 24
        if service.pareto is not None:
            # the incumbent's score, then every candidate in full
            assert service.pareto.offers == 1 + self.ITERATIONS * 24


class TestNicBackend:
    def test_optimises_under_nic(self, tiny_workload):
        from repro.extensions.contention import ContentionSimulator

        res = run_tabu(
            tiny_workload,
            TabuConfig(seed=3, max_iterations=10, network="nic"),
        )
        assert res.best_makespan == pytest.approx(
            ContentionSimulator(tiny_workload).string_makespan(
                res.best_string
            )
        )


class TestFallback:
    def test_all_tabu_neighborhood_still_moves(self, tiny_workload):
        """When every candidate is tabu and none aspirates, the overall
        best candidate is committed anyway (no deadlock)."""
        cfg = TabuConfig(
            seed=1, max_iterations=40, tenure=10**6, neighborhood_size=3
        )
        res = run_tabu(tiny_workload, cfg)
        counts = res.trace.selected_counts()
        assert 0 in counts  # the fallback branch really ran
        assert res.iterations == 40  # and the search kept going


class TestNoopFreeNeighborhoods:
    def test_every_committed_move_changes_the_string(self, tiny_workload):
        """Candidates are identity-free, so the incumbent must change
        every iteration — a no-op can never win at a local optimum."""
        seen = []
        run_tabu(
            tiny_workload,
            TabuConfig(seed=6, max_iterations=30),
            observers=[lambda rec, s: seen.append(s.pairs())],
        )
        assert len(seen) == 30
        previous = None
        for pairs in seen:
            assert pairs != previous
            previous = pairs
