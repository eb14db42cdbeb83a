"""Unit tests for convergence analytics."""

import pytest

from repro.analysis.convergence import normalized_auc, stagnation
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


class TestOnRealRuns:
    def test_se_run_analytics(self, tiny_workload):
        from repro.core import SEConfig, run_se

        res = run_se(tiny_workload, SEConfig(seed=1, max_iterations=40))
        auc = normalized_auc(res.trace)
        assert auc >= 1.0
        stats = stagnation(res.trace)
        assert stats.improvements >= 1
        assert stats.total_iterations == 40
