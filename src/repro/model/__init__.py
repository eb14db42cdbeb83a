"""The heterogeneous-computing problem model (paper §2).

Subtasks and data items form a DAG (:class:`TaskGraph`); machines form a
fully connected :class:`HCSystem`; costs live in the execution-time matrix
``E`` and the transfer-time matrix ``Tr``; a :class:`Workload` bundles one
complete problem instance.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.model.graph": ("TaskGraph",),
        "repro.model.machine": ("Machine", "MachineSet"),
        "repro.model.matrices": (
            "ExecutionTimeMatrix",
            "TransferTimeMatrix",
            "num_pairs",
            "pair_index",
        ),
        "repro.model.platform": (
            "InstanceType",
            "PlatformSpec",
            "BoundPlatform",
            "UNIFORM_PLATFORM",
            "CLOUD_PLATFORM",
            "SPOT_PLATFORM",
        ),
        "repro.model.sample": (
            "FIGURE2_PAIRS",
            "PAPER_O4",
            "paper_sample_graph",
            "paper_sample_system",
            "paper_sample_workload",
        ),
        "repro.model.system": ("FULLY_CONNECTED", "HCSystem"),
        "repro.model.task": ("DataItem", "Subtask"),
        "repro.model.workload": ("Workload", "WorkloadClass"),
    },
)
