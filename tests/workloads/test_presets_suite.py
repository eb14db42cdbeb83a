"""Unit tests for workload presets and suites."""

import pytest

from repro.workloads.presets import (
    WorkloadSpec,
    build_workload,
    figure3_workload,
    figure4a_workload,
    figure4b_workload,
    figure5_workload,
    figure6_workload,
    figure7_workload,
    small_workload,
)
from repro.workloads.suite import WorkloadSuite, smoke_suite


class TestWorkloadSpec:
    def test_size_class_threshold(self):
        assert WorkloadSpec(num_tasks=20).size_class() == "small"
        assert WorkloadSpec(num_tasks=100).size_class() == "large"

    def test_build_dimensions(self):
        w = build_workload(WorkloadSpec(num_tasks=25, num_machines=5, seed=1))
        assert w.num_tasks == 25
        assert w.num_machines == 5

    def test_build_deterministic(self):
        a = build_workload(WorkloadSpec(seed=11, num_tasks=30, num_machines=4))
        b = build_workload(WorkloadSpec(seed=11, num_tasks=30, num_machines=4))
        assert a.exec_times == b.exec_times
        assert a.transfer_times == b.transfer_times
        assert [d.edge for d in a.graph.data_items] == [
            d.edge for d in b.graph.data_items
        ]

    def test_unknown_connectivity_rejected(self):
        with pytest.raises(ValueError, match="connectivity"):
            build_workload(WorkloadSpec(connectivity="extreme", seed=1))

    def test_heterogeneity_axis_changes_e(self):
        lo = build_workload(
            WorkloadSpec(seed=1, num_tasks=40, num_machines=8, heterogeneity="low")
        )
        hi = build_workload(
            WorkloadSpec(seed=1, num_tasks=40, num_machines=8, heterogeneity="high")
        )
        assert hi.exec_times.heterogeneity() > lo.exec_times.heterogeneity()

    def test_ccr_axis_changes_tr(self):
        lo = build_workload(WorkloadSpec(seed=1, num_tasks=40, ccr=0.1))
        hi = build_workload(WorkloadSpec(seed=1, num_tasks=40, ccr=1.0))
        assert hi.ccr_estimate() > lo.ccr_estimate()


class TestPaperPresets:
    def test_small_is_small(self):
        w = small_workload(seed=1)
        assert w.classification.size == "small"

    def test_fig3_large_high_connectivity(self):
        w = figure3_workload(seed=1)
        assert w.classification.size == "large"
        assert w.classification.connectivity == "high"

    def test_fig4_heterogeneity_split(self):
        a = figure4a_workload(seed=1)
        b = figure4b_workload(seed=1)
        assert a.classification.heterogeneity == "low"
        assert b.classification.heterogeneity == "high"
        assert a.num_machines == b.num_machines == 20

    def test_fig5_dimensions(self):
        """§5.3: 100 tasks and 20 machines."""
        w = figure5_workload(seed=1)
        assert w.num_tasks == 100
        assert w.num_machines == 20
        assert w.classification.connectivity == "high"

    def test_fig6_ccr_one(self):
        w = figure6_workload(seed=1)
        assert w.classification.ccr == 1.0
        assert w.ccr_estimate() == pytest.approx(1.0, rel=0.35)

    def test_fig7_low_everything(self):
        w = figure7_workload(seed=1)
        c = w.classification
        assert (c.connectivity, c.heterogeneity, c.ccr) == ("low", "low", 0.1)

    @pytest.mark.parametrize(
        "factory",
        [
            small_workload,
            figure3_workload,
            figure4a_workload,
            figure4b_workload,
            figure5_workload,
            figure6_workload,
            figure7_workload,
        ],
    )
    def test_presets_deterministic(self, factory):
        a = factory(seed=42)
        b = factory(seed=42)
        assert a.exec_times == b.exec_times


class TestSuites:
    def test_grid_size(self):
        s = WorkloadSuite(
            num_tasks=10,
            num_machines=2,
            connectivities=("low", "high"),
            heterogeneities=("low",),
            ccrs=(0.1, 1.0),
            replicates=3,
            seed=1,
        )
        assert len(s) == 2 * 1 * 2 * 3

    def test_cells_buildable(self):
        s = smoke_suite(seed=1)
        w = s.cells[0].build()
        assert w.num_tasks == 20

    def test_replicates_have_distinct_seeds(self):
        s = WorkloadSuite(
            num_tasks=8,
            num_machines=2,
            connectivities=("low",),
            heterogeneities=("low",),
            ccrs=(0.1,),
            replicates=2,
            seed=1,
        )
        seeds = {c.spec.seed for c in s}
        assert len(seeds) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            WorkloadSuite(connectivities=())

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            WorkloadSuite(replicates=0)

    def test_paper_suite_covers_all_classes(self):
        s = WorkloadSuite(seed=1)
        conns = {c.spec.connectivity for c in s}
        hets = {c.spec.heterogeneity for c in s}
        ccrs = {c.spec.ccr for c in s}
        assert conns == {"low", "medium", "high"}
        assert hets == {"low", "medium", "high"}
        assert ccrs == {0.1, 0.5, 1.0}

    def test_suite_deterministic(self):
        a = WorkloadSuite(num_tasks=8, num_machines=2, seed=5)
        b = WorkloadSuite(num_tasks=8, num_machines=2, seed=5)
        assert [c.spec.seed for c in a] == [c.spec.seed for c in b]
