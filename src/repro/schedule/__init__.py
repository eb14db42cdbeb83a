"""Schedule representation and evaluation.

* :class:`ScheduleString` — the paper's combined matching+scheduling
  string (§4.1);
* :mod:`~repro.schedule.valid_range` — dependency-safe moving windows;
* :class:`Simulator` — the deterministic cost model (string → makespan);
* :mod:`~repro.schedule.backend` — simulator backends keyed by
  network-model name (``"contention-free"`` | ``"nic"``), one table row
  per network naming its scalar backend and batch kernel;
* :class:`BatchSimulator` — the contention-free batch kernel, compiled
  by numba when it imports (the evaluation service decides when it
  runs);
* :class:`Timeline` / :func:`verify_schedule` — Gantt views and full
  constraint checking;
* :mod:`~repro.schedule.metrics` — SLR, speedup, utilisation, comm volume;
* :mod:`~repro.schedule.operations` — validity-preserving random moves.
"""

from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    NIC_NETWORK,
    SimulatorBackend,
    available_networks,
    available_platforms,
    make_simulator,
    plain_schedule,
    platform_cost_vectorized,
    platform_state,
    register_platform,
    resolve_platform,
)
from repro.schedule.encoding import (
    ScheduleString,
    is_valid_for,
    topological_string,
)
from repro.schedule.metrics import (
    ScheduleMetrics,
    communication_volume,
    compute_metrics,
    critical_path_lower_bound,
    machine_load_lower_bound,
    makespan_lower_bound,
    normalized_makespan,
    serial_speedup,
)
from repro.schedule.operations import (
    random_reassign,
    random_topological_order,
    random_valid_move,
    random_valid_string,
    shuffle_string,
)
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.schedule.simulator import (
    DeltaState,
    InvalidScheduleError,
    Schedule,
    Simulator,
    evaluate_schedule,
)
from repro.schedule.timeline import MachineSpan, Timeline, verify_schedule
from repro.schedule.vectorized import BatchSimulator
from repro.schedule.valid_range import (
    assert_in_valid_range,
    machine_slot_indices,
    range_width,
    valid_insertion_range,
)

__all__ = [
    "DEFAULT_NETWORK",
    "DEFAULT_PLATFORM",
    "NIC_NETWORK",
    "SimulatorBackend",
    "available_networks",
    "available_platforms",
    "make_simulator",
    "plain_schedule",
    "platform_cost_vectorized",
    "platform_state",
    "register_platform",
    "resolve_platform",
    "CostModel",
    "ScheduleScore",
    "BatchSimulator",
    "ScheduleString",
    "is_valid_for",
    "topological_string",
    "ScheduleMetrics",
    "communication_volume",
    "compute_metrics",
    "critical_path_lower_bound",
    "machine_load_lower_bound",
    "makespan_lower_bound",
    "normalized_makespan",
    "serial_speedup",
    "random_reassign",
    "random_topological_order",
    "random_valid_move",
    "random_valid_string",
    "shuffle_string",
    "DeltaState",
    "InvalidScheduleError",
    "Schedule",
    "Simulator",
    "evaluate_schedule",
    "MachineSpan",
    "Timeline",
    "verify_schedule",
    "assert_in_valid_range",
    "machine_slot_indices",
    "range_width",
    "valid_insertion_range",
]
