"""Random workload generation along the paper's axes (§5).

Connectivity (:mod:`~repro.workloads.generator`), heterogeneity
(:mod:`~repro.workloads.heterogeneity`), CCR (:mod:`~repro.workloads.ccr`),
plus named presets for every paper experiment
(:mod:`~repro.workloads.presets`) and grid suites
(:mod:`~repro.workloads.suite`).
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.workloads.ccr": ("CCR_CLASSES", "transfer_matrix"),
        "repro.workloads.generator": (
            "CONNECTIVITY_EDGES_PER_TASK",
            "chain_dag",
            "fork_join_dag",
            "gnp_dag",
            "layered_dag",
        ),
        "repro.workloads.heterogeneity": (
            "HETEROGENEITY_FACTOR",
            "execution_matrix",
            "heterogeneity_factor",
        ),
        "repro.workloads.presets": (
            "WorkloadSpec",
            "build_workload",
            "figure3_spec",
            "figure3_workload",
            "figure4a_spec",
            "figure4a_workload",
            "figure4b_spec",
            "figure4b_workload",
            "figure5_spec",
            "figure5_workload",
            "figure6_spec",
            "figure6_workload",
            "figure7_spec",
            "figure7_workload",
            "small_spec",
            "small_workload",
        ),
        "repro.workloads.suite": (
            "SuiteCell",
            "WorkloadSuite",
            "smoke_suite",
        ),
    },
)
