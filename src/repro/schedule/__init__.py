"""Schedule representation and evaluation.

* :class:`ScheduleString` — the paper's combined matching+scheduling
  string (§4.1);
* :mod:`~repro.schedule.valid_range` — dependency-safe moving windows;
* :mod:`~repro.schedule.neighborhood` — reorder / reassign moves as
  data, and tabu's selection over a neighborhood of them;
* :class:`Simulator` — the deterministic cost model (string → makespan);
* :mod:`~repro.schedule.backend` — simulator backends keyed by
  network-model name (``"contention-free"`` | ``"nic"``), one table row
  per network naming its scalar backend (a batch is a loop over it, run
  by the evaluation service);
* :class:`Timeline` / :func:`verify_schedule` — Gantt views and full
  constraint checking;
* :mod:`~repro.schedule.metrics` — SLR, speedup, utilisation, comm volume;
* :mod:`~repro.schedule.operations` — validity-preserving random moves.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.schedule.backend": (
            "DEFAULT_NETWORK",
            "DEFAULT_PLATFORM",
            "NIC_NETWORK",
            "SimulatorBackend",
            "available_networks",
            "available_platforms",
            "make_simulator",
            "plain_schedule",
            "platform_state",
            "register_platform",
            "resolve_platform",
        ),
        "repro.schedule.encoding": (
            "ScheduleString",
            "is_valid_for",
        ),
        "repro.schedule.metrics": (
            "ScheduleMetrics",
            "communication_volume",
            "compute_metrics",
            "critical_path_lower_bound",
            "machine_load_lower_bound",
            "makespan_lower_bound",
            "normalized_makespan",
            "serial_speedup",
        ),
        "repro.schedule.operations": (
            "random_reassign",
            "random_topological_order",
            "random_valid_move",
            "random_valid_string",
            "shuffle_string",
        ),
        "repro.schedule.scoring": ("CostModel", "ScheduleScore"),
        "repro.schedule.simulator": (
            "DeltaState",
            "InvalidScheduleError",
            "Schedule",
            "Simulator",
        ),
        "repro.schedule.timeline": ("MachineSpan", "Timeline", "verify_schedule"),
        "repro.schedule.valid_range": (
            "machine_slot_indices",
            "valid_insertion_range",
        ),
    },
)
