"""Configuration of the Simulated Evolution engine.

All tunables named in the paper live here with their paper-recommended
defaults and ranges:

* ``selection_bias`` — the paper's ``B`` (§4.4): negative (−0.1..−0.3)
  for small problems to force a thorough search, slightly positive
  (0..0.1) for large problems to limit selection-set size.
* ``y_candidates`` — the paper's ``Y`` (§4.5): how many best-matching
  machines allocation may try per subtask; trades run time for quality
  (Figures 4a/4b study it).
* ``allocation_slots`` — ``"per-machine"`` uses the insertion-slot
  equivalence optimisation (identical reachable schedules, fewer
  simulator calls); ``"all-positions"`` is the literal every-position
  enumeration kept for the ABL-SLOT ablation.

Beyond the paper, the evaluation settings (``network``, ``platform``,
the objective and its scenarios) come from the shared
:class:`~repro.optim.evaluation.EvaluationFields` base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.optim.evaluation import EvaluationFields
from repro.optim.stop import IterationLimits
from repro.utils.rng import RandomSource

AllocationSlots = Literal["per-machine", "all-positions"]

#: Heuristic from §4.4 for picking a default bias from problem size.
SMALL_PROBLEM_TASKS = 50


def default_bias(num_tasks: int) -> float:
    """The paper's guidance: negative ``B`` for small DAGs, positive for large.

    We map "small" (< ``SMALL_PROBLEM_TASKS`` subtasks) to −0.2 (middle of
    the paper's −0.1..−0.3 band) and "large" to +0.05 (middle of 0..0.1).
    """
    return -0.2 if num_tasks < SMALL_PROBLEM_TASKS else 0.05


@dataclass
class SEConfig(EvaluationFields, IterationLimits):
    """Parameters of one :class:`~repro.core.engine.SimulatedEvolution` run.

    Attributes
    ----------
    selection_bias:
        The bias ``B`` added to goodness before the selection coin flip;
        ``None`` picks :func:`default_bias` from the workload size.
    y_candidates:
        The ``Y`` parameter — number of best-matching machines tried per
        relocated subtask; ``None`` means all machines (``Y = l``).
    max_iterations:
        Iteration cap (one iteration = evaluation + selection + allocation).
    time_limit:
        Optional wall-clock cap in seconds; whichever of the two limits
        hits first stops the run.
    stall_iterations:
        Stop early after this many consecutive iterations without
        improvement of the best makespan (``None`` disables).
    initial_shuffle_range:
        The initial solution applies a uniformly random number of valid
        moves drawn from this inclusive ``(lo_factor, hi_factor)`` range,
        scaled by ``k`` (paper §4.2 "modified a random number of times").
    allocation_slots:
        Slot-enumeration strategy, see module docstring.
    adaptive_target:
        Extension beyond the paper: when set (a fraction in (0, 1]),
        the engine ignores ``selection_bias`` and re-solves, every
        iteration, for the bias whose *expected* selection fraction
        equals this target (see
        :func:`repro.core.selection.bias_for_target_fraction`).  Keeps
        selection pressure constant even after goodness saturates.
    seed:
        Seed / generator for all stochastic choices of the run.

    The evaluation settings (``network``, ``platform``, ``objective``,
    ``scenarios``, ``distribution``, ``scenario_seed``) are inherited
    from :class:`~repro.optim.evaluation.EvaluationFields`.

    To keep per-iteration copies of the working string, pass a
    :class:`repro.core.observers.StringSnapshots` observer to the engine
    instead of a config flag (memory cost is then explicit at the call
    site).
    """

    selection_bias: Optional[float] = None
    adaptive_target: Optional[float] = None
    y_candidates: Optional[int] = None
    max_iterations: int = 1000
    time_limit: Optional[float] = None
    stall_iterations: Optional[int] = None
    initial_shuffle_range: tuple[float, float] = (1.0, 3.0)
    allocation_slots: AllocationSlots = "per-machine"
    seed: RandomSource = None

    def __post_init__(self) -> None:
        if self.selection_bias is not None and not -1.0 <= self.selection_bias <= 1.0:
            raise ValueError(
                f"selection_bias must be in [-1, 1], got {self.selection_bias}"
            )
        if self.adaptive_target is not None and not 0.0 < self.adaptive_target <= 1.0:
            raise ValueError(
                f"adaptive_target must be in (0, 1], got {self.adaptive_target}"
            )
        if self.y_candidates is not None and self.y_candidates < 1:
            raise ValueError(
                f"y_candidates must be >= 1, got {self.y_candidates}"
            )
        self.stop_policy()  # validates the iteration/time/stall bounds
        lo, hi = self.initial_shuffle_range
        if lo < 0 or hi < lo:
            raise ValueError(
                f"initial_shuffle_range must satisfy 0 <= lo <= hi, got {lo, hi}"
            )
        if self.allocation_slots not in ("per-machine", "all-positions"):
            raise ValueError(
                f"allocation_slots must be 'per-machine' or 'all-positions', "
                f"got {self.allocation_slots!r}"
            )
        super().__post_init__()

    def resolved_bias(self, num_tasks: int) -> float:
        """The bias actually used for a workload of *num_tasks* subtasks."""
        if self.selection_bias is not None:
            return self.selection_bias
        return default_bias(num_tasks)

    def resolved_y(self, num_machines: int) -> int:
        """The ``Y`` actually used for a system of *num_machines* machines."""
        if self.y_candidates is None:
            return num_machines
        return min(self.y_candidates, num_machines)
