"""Stable JSON serialization of workloads, strings, schedules and traces."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.io.visual": ("graph_to_dot", "save_dot", "save_svg", "schedule_to_svg"),
        "repro.io.serialization": (
            "FORMAT_VERSION",
            "SerializationError",
            "load_json",
            "save_json",
            "schedule_from_dict",
            "schedule_to_dict",
            "string_from_dict",
            "string_to_dict",
            "trace_from_dict",
            "trace_to_dict",
            "workload_from_dict",
            "workload_to_dict",
        ),
    },
)
