"""Unit tests for convergence analytics."""

import pytest

from repro.analysis.convergence import (
    iterations_to_within,
    normalized_auc,
    speedup_to_reach,
    stagnation,
    time_to_target,
)
from repro.analysis.trace import ConvergenceTrace, IterationRecord


def trace_from(bests, elapsed=None):
    t = ConvergenceTrace()
    for i, b in enumerate(bests, start=1):
        t.append(
            IterationRecord(
                iteration=i,
                current_makespan=b,
                best_makespan=b,
                elapsed_seconds=(elapsed[i - 1] if elapsed else 0.1 * i),
            )
        )
    return t


class TestTimeToTarget:
    def test_reached(self):
        t = trace_from([100, 90, 80], elapsed=[1.0, 2.0, 3.0])
        assert time_to_target(t, 90) == 2.0

    def test_first_record_qualifies(self):
        t = trace_from([50], elapsed=[1.5])
        assert time_to_target(t, 60) == 1.5

    def test_never_reached(self):
        t = trace_from([100, 90])
        assert time_to_target(t, 10) is None


class TestIterationsToWithin:
    def test_within_fraction(self):
        t = trace_from([120, 105, 100])
        # 5% of final best 100 = 105 -> iteration 2
        assert iterations_to_within(t, 0.05) == 2

    def test_zero_fraction_is_final(self):
        t = trace_from([120, 105, 100])
        assert iterations_to_within(t, 0.0) == 3

    def test_empty_trace(self):
        assert iterations_to_within(ConvergenceTrace(), 0.1) is None

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            iterations_to_within(trace_from([1.0]), -0.1)


class TestNormalizedAuc:
    def test_instant_convergence_is_one(self):
        assert normalized_auc(trace_from([50, 50, 50])) == pytest.approx(1.0)

    def test_late_convergence_larger(self):
        late = trace_from([100, 100, 50])
        early = trace_from([50, 50, 50])
        assert normalized_auc(late) > normalized_auc(early)

    def test_exact_value(self):
        t = trace_from([100, 50])
        assert normalized_auc(t) == pytest.approx(150 / (50 * 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalized_auc(ConvergenceTrace())


class TestStagnation:
    def test_monotone_run_no_stagnation(self):
        s = stagnation(trace_from([100, 90, 80]))
        assert s.longest_streak == 0
        assert s.improvements == 3
        assert s.final_streak == 0
        assert s.total_iterations == 3

    def test_flat_run_all_stagnation(self):
        s = stagnation(trace_from([100, 100, 100]))
        assert s.improvements == 1  # the first record counts
        assert s.longest_streak == 2
        assert s.final_streak == 2

    def test_interior_plateau(self):
        s = stagnation(trace_from([100, 100, 100, 90]))
        assert s.longest_streak == 2
        assert s.final_streak == 0
        assert s.improvements == 2


class TestSpeedupToReach:
    def test_basic_ratio(self):
        fast = trace_from([100, 50], elapsed=[1.0, 2.0])
        slow = trace_from([100, 50], elapsed=[1.0, 8.0])
        assert speedup_to_reach(fast, slow, 50) == pytest.approx(4.0)

    def test_none_when_unreached(self):
        fast = trace_from([100], elapsed=[1.0])
        slow = trace_from([100, 50], elapsed=[1.0, 8.0])
        assert speedup_to_reach(fast, slow, 50) is None


class TestOnRealRuns:
    def test_se_run_analytics(self, tiny_workload):
        from repro.core import SEConfig, run_se

        res = run_se(tiny_workload, SEConfig(seed=1, max_iterations=40))
        auc = normalized_auc(res.trace)
        assert auc >= 1.0
        stats = stagnation(res.trace)
        assert stats.improvements >= 1
        assert stats.total_iterations == 40
        within = iterations_to_within(res.trace, 0.10)
        assert 1 <= within <= 40
