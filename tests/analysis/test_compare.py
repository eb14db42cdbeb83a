"""Unit tests for the time-budget comparison harness."""

import math

import pytest

from repro.analysis.compare import (
    COMPARISON_SE_BIAS,
    ComparisonResult,
    compare_named,
    make_time_grid,
    series_from_trace,
)
from repro.analysis.trace import ConvergenceTrace, IterationRecord
from repro.runner.registry import Engine


def fake_trace(values_at):
    """A synthetic trace from a list of (elapsed, best)."""
    t = ConvergenceTrace()
    for i, (elapsed, best) in enumerate(values_at, start=1):
        t.append(
            IterationRecord(
                iteration=i,
                current_makespan=best,
                best_makespan=best,
                elapsed_seconds=elapsed,
            )
        )
    return t


def sampled(traces, time_budget, grid_points):
    """The ComparisonResult of name -> (elapsed, best) lists."""
    grid = make_time_grid(time_budget, grid_points)
    return ComparisonResult(
        workload_name="fake",
        time_budget=time_budget,
        series=tuple(
            series_from_trace(name, fake_trace(values), grid, len(values))
            for name, values in traces.items()
        ),
    )


@pytest.fixture
def engine_runs(monkeypatch):
    """Every (config, result) the engine table runs while the test runs."""
    runs = []
    run = Engine.run

    def spy(self, workload, config, **hooks):
        res = run(self, workload, config, **hooks)
        runs.append((config, res))
        return res

    monkeypatch.setattr(Engine, "run", spy)
    return runs


class TestMakeTimeGrid:
    def test_points_and_endpoint(self):
        grid = make_time_grid(10.0, 5)
        assert grid == (2.0, 4.0, 6.0, 8.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            make_time_grid(0.0, 5)
        with pytest.raises(ValueError, match="points"):
            make_time_grid(1.0, 0)


class TestSampling:
    def test_sampling_on_grid(self):
        res = sampled(
            {
                "A": [(0.1, 100.0), (0.5, 80.0), (0.9, 60.0)],
                "B": [(0.3, 90.0), (0.7, 50.0)],
            },
            time_budget=1.0,
            grid_points=4,
        )
        a = res.by_name("A")
        assert a.best_at == (100.0, 80.0, 80.0, 60.0)
        b = res.by_name("B")
        # B's record at 0.7s lands inside the 0.75s grid point
        assert b.best_at == (math.inf, 90.0, 50.0, 50.0)

    def test_winner_at(self):
        res = sampled({"A": [(0.1, 100.0)], "B": [(0.1, 90.0)]}, 1.0, 2)
        assert res.winner_at(0) == "B"

    def test_tie_returns_none(self):
        res = sampled({"A": [(0.1, 90.0)], "B": [(0.1, 90.0)]}, 1.0, 1)
        assert res.winner_at(0) is None

    def test_no_data_returns_none(self):
        res = sampled({"A": [], "B": []}, 1.0, 1)
        assert res.winner_at(0) is None

    def test_advantage_ratio(self):
        res = sampled({"A": [(0.1, 50.0)], "B": [(0.1, 100.0)]}, 1.0, 1)
        assert res.advantage("A", "B") == [pytest.approx(2.0)]

    def test_advantage_nan_when_missing(self):
        res = sampled({"A": [], "B": [(0.1, 100.0)]}, 1.0, 1)
        assert math.isnan(res.advantage("A", "B")[0])

    def test_unknown_series_name(self):
        res = sampled({"A": [(0.1, 1.0)]}, 1.0, 1)
        with pytest.raises(KeyError):
            res.by_name("Z")


class TestCompareNamed:
    def test_empty_algorithms_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="at least one algorithm"):
            compare_named(tiny_workload, [], 1.0)

    def test_unknown_and_duplicate_names_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="unknown comparison"):
            compare_named(tiny_workload, ["se", "bogus"], 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            compare_named(tiny_workload, ["se", "SE"], 1.0)

    def test_default_bias_constant(self):
        assert COMPARISON_SE_BIAS == -0.1

    def test_engines_respect_budget(self, tiny_workload, engine_runs):
        compare_named(tiny_workload, ["se", "ga"], 0.3, grid_points=3, seed=1)
        assert len(engine_runs) == 2
        for _config, res in engine_runs:
            assert len(res.trace) > 0
            assert res.trace.elapsed()[-1] <= 0.6  # small overshoot slack

    def test_se_vs_ga_end_to_end(self, tiny_workload):
        res = compare_named(
            tiny_workload, ["se", "ga"], time_budget=0.4, grid_points=4, seed=2
        )
        names = {s.name for s in res.series}
        assert names == {"SE", "GA"}
        for s in res.series:
            finite = [v for v in s.best_at if math.isfinite(v)]
            assert finite, "each algorithm produced at least one solution"
            # best-so-far curves are monotone non-increasing
            assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(finite, finite[1:]))

    def test_winner_timeline_length(self, tiny_workload):
        res = compare_named(
            tiny_workload, ["se", "ga"], time_budget=0.3, grid_points=5, seed=2
        )
        assert len(res.winner_timeline()) == 5

    def test_iterations_are_the_engines_own_count(
        self, tiny_workload, engine_runs
    ):
        """A budgeted SA run records every 50th proposal only, so its
        trace undercounts; the series reports the proposals run."""
        res = compare_named(
            tiny_workload, ["sa", "ga"], 0.3, grid_points=3, seed=1
        )
        (_, sa), (_, ga) = engine_runs
        assert res.by_name("SA").iterations == sa.iterations
        assert sa.iterations > len(sa.trace)
        assert res.by_name("GA").iterations == ga.generations

    def test_compare_named_under_nic(self, tiny_workload):
        res = compare_named(
            tiny_workload,
            ["se", "tabu"],
            time_budget=0.2,
            grid_points=3,
            seed=1,
            network="nic",
        )
        assert {s.name for s in res.series} == {"SE", "TABU"}
        for s in res.series:
            assert any(math.isfinite(v) for v in s.best_at)
