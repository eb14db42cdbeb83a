"""Unit tests for the grid experiment runner."""

import pytest

from repro.analysis.grid import GridResult, grid_from_experiment, run_grid
from repro.runner import AlgorithmSpec, ExperimentSpec, run_experiment
from repro.runner.results import CellResult
from repro.workloads import WorkloadSuite

HEFT = AlgorithmSpec.make("heft")
OLB = AlgorithmSpec.make("olb")


def _cell(algorithm: str, makespan: float) -> CellResult:
    """One measurement of *algorithm* on a low/low/0.1 workload "w0"."""
    return CellResult(
        cell_id=f"{algorithm}__w0__s0",
        algorithm=algorithm,
        workload="w0",
        connectivity="low",
        heterogeneity="low",
        ccr=0.1,
        num_tasks=12,
        num_machines=3,
        seed=0,
        makespan=makespan,
        normalized=1.0,
    )


@pytest.fixture(scope="module")
def small_suite():
    return WorkloadSuite(
        num_tasks=12,
        num_machines=3,
        connectivities=("low", "high"),
        heterogeneities=("low", "high"),
        ccrs=(0.1, 1.0),
        replicates=1,
        seed=4,
    )


@pytest.fixture(scope="module")
def grid(small_suite):
    return run_grid(
        small_suite,
        {"HEFT": HEFT, "OLB": OLB},
    )


class TestRunGrid:
    def test_cell_count(self, grid, small_suite):
        assert len(grid.cells) == len(small_suite) * 2

    def test_algorithms_listed_in_order(self, grid):
        assert grid.algorithms == ["HEFT", "OLB"]

    def test_empty_algorithms_rejected(self, small_suite):
        with pytest.raises(ValueError, match="algorithm"):
            run_grid(small_suite, {})

    def test_normalized_at_least_one(self, grid):
        for c in grid.cells:
            assert c.normalized >= 1.0 - 1e-9


class TestAggregation:
    def test_win_loss_total_counts(self, grid, small_suite):
        rec = grid.win_loss("HEFT", "OLB")
        assert rec.n == len(small_suite)

    def test_win_loss_axis_restriction(self, grid):
        rec = grid.win_loss("HEFT", "OLB", connectivity="low")
        assert rec.n == 4  # 1 conn value x 2 het x 2 ccr

    def test_win_loss_ccr_restriction(self, grid):
        rec = grid.win_loss("HEFT", "OLB", ccr=1.0)
        assert rec.n == 4

    def test_heft_beats_olb_overall(self, grid):
        assert grid.win_loss("HEFT", "OLB").win_rate() >= 0.5

    def test_geomean_normalized(self, grid):
        assert grid.geomean_normalized("HEFT") <= grid.geomean_normalized("OLB")

    def test_geomean_unknown_algorithm(self, grid):
        with pytest.raises(KeyError, match="mystery"):
            grid.geomean_normalized("mystery")

    def test_league_table_sorted(self, grid):
        league = grid.league_table()
        assert len(league) == 2
        assert league[0][1] <= league[1][1]

    def test_axis_report_structure(self, grid):
        report = grid.axis_report("HEFT", "OLB")
        assert "| connectivity | " in report
        assert "| heterogeneity | " in report
        assert "| CCR | " in report
        # 2 values per axis, 3 axes
        assert report.count("HEFT") >= 1
        assert len(report.splitlines()) == 2 + 6


class TestTieHandling:
    def test_identical_algorithms_all_ties(self, small_suite):
        grid = run_grid(
            small_suite,
            {"A": HEFT, "B": HEFT},
        )
        rec = grid.win_loss("A", "B")
        assert rec.ties == rec.n
        assert rec.win_rate() == 0.5

    def test_near_ties_within_tolerance(self):
        grid = GridResult(
            cells=[
                _cell("A", 100.0),
                _cell("B", 100.05),
            ]
        )
        assert grid.win_loss("A", "B", rel_tol=1e-3).ties == 1
        assert grid.win_loss("A", "B", rel_tol=1e-6).wins == 1


class TestCells:
    def test_cells_are_the_experiment_cells(self, small_suite):
        experiment = run_experiment(
            ExperimentSpec(
                name="g",
                algorithms={"HEFT": HEFT},
                workloads=[cell.spec for cell in small_suite],
                seeds=(0,),
            )
        )
        grid = grid_from_experiment(experiment)
        assert grid.cells == experiment.cells
