"""The heterogeneous-computing problem model (paper §2).

Subtask indices and data items form a DAG (:class:`TaskGraph`); costs
live in the execution-time matrix ``E``, whose ``l`` rows are the
machines of the fully connected HC system, and the transfer-time matrix
``Tr``; a :class:`Workload` bundles one complete problem instance.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.model.graph": ("TaskGraph",),
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
            "paper_sample_workload",
        ),
        "repro.model.task": ("DataItem",),
        "repro.model.workload": ("Workload", "WorkloadClass"),
    },
)
