"""The SE allocation step (paper §4.5).

Allocation is **constructive**: each selected subtask, taken in ascending
DAG-level order, is removed from its location and greedily re-placed at
the combination of (string position, machine) that yields the best
overall schedule length.  Two controls bound the enumeration:

* the **valid moving range** — only dependency-safe positions are tried;
* the **Y parameter** — only the subtask's ``Y`` best-matching machines
  (by execution time) are candidates.  Small ``Y`` = fast iterations,
  large ``Y`` = wider search; Figures 4a/4b study the trade-off.

Slot enumeration: with ``"per-machine"`` strategy (default) only one
insertion index per *distinct per-machine order* is evaluated — positions
between the same two same-machine neighbours produce identical schedules,
so enumerating them all (``"all-positions"``, kept for the ABL-SLOT
ablation) wastes simulator calls without reaching any extra schedule.

Every probe is scored **incrementally**: relocating a subtask from
position ``p`` to insertion index ``i`` leaves the string prefix before
``min(p, i)`` untouched, so each probe is one
:meth:`~repro.schedule.simulator.Simulator.evaluate_delta` against a
:class:`~repro.schedule.simulator.DeltaState` prepared once per selected
subtask, with ``region_end = max(p, i)`` enabling its rejoin exit.
The running best cost doubles as a branch-and-bound cutoff, which prunes
most of each probe's walk — the reason a batch sweep over the candidate
set, which walks every probe in full, loses here (MICRO-DELTA).  Probe
outcomes, and therefore the whole SE trajectory, are bit-identical to
full re-evaluation (see
``tests/properties/test_delta_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.schedule.backend import SimulatorBackend
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule
from repro.schedule.valid_range import (
    machine_slot_indices,
    valid_insertion_range,
)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation step over a selection set.

    Attributes
    ----------
    makespan:
        Schedule length of the string after all relocations.
    trials:
        Number of simulator calls (candidate probes + full prepares).
    moved:
        Number of subtasks whose placement actually changed.
    schedule:
        The fully evaluated post-allocation schedule — a byproduct of the
        final :meth:`~repro.schedule.simulator.Simulator.prepare`, so the
        engine does not need to re-evaluate the string.
    """

    makespan: float
    trials: int
    moved: int
    schedule: Optional[Schedule] = None


class Allocator:
    """Reusable allocation-step executor for one workload.

    Parameters
    ----------
    workload / simulator:
        The problem instance and its evaluation context — any
        :class:`~repro.schedule.backend.SimulatorBackend` (the paper's
        contention-free :class:`~repro.schedule.simulator.Simulator` or
        the NIC-contention backend); probes always go through the
        backend's ``evaluate_delta``.
    y_candidates:
        The resolved ``Y`` (1..l).
    slots:
        ``"per-machine"`` or ``"all-positions"`` (see module docstring).
    """

    __slots__ = (
        "_workload",
        "_sim",
        "_graph",
        "_y",
        "_slots",
        "_candidates",
    )

    def __init__(
        self,
        workload: Workload,
        simulator: SimulatorBackend,
        y_candidates: int,
        slots: str = "per-machine",
    ):
        if not 1 <= y_candidates <= workload.num_machines:
            raise ValueError(
                f"y_candidates must be in [1, {workload.num_machines}], "
                f"got {y_candidates}"
            )
        if slots not in ("per-machine", "all-positions"):
            raise ValueError(f"unknown slot strategy {slots!r}")
        self._workload = workload
        self._sim = simulator
        self._graph = workload.graph
        self._y = y_candidates
        self._slots = slots
        # Top-Y machines per subtask, fastest first (precomputed ranking).
        e = workload.exec_times
        self._candidates = tuple(
            e.best_machines(t, y_candidates) for t in range(workload.num_tasks)
        )

    @property
    def y_candidates(self) -> int:
        return self._y

    def allocate(
        self, string: ScheduleString, selected: Sequence[int]
    ) -> AllocationResult:
        """Re-place every subtask in *selected* (in the given order).

        Mutates *string* in place.  Returns the resulting makespan and
        enumeration statistics.  With an empty selection set the string
        is untouched and one evaluation reports its makespan.
        """
        sim = self._sim
        graph = self._graph
        order = string.order
        machines = string.machines
        trials = 0
        moved = 0
        # One full evaluation per committed placement; every probe in
        # between is an incremental suffix-only re-evaluation against it.
        state = sim.prepare(order, machines)
        trials += 1

        for task in selected:
            orig_pos = string.position_of(task)
            orig_machine = string.machine_of(task)
            best_cost = float("inf")
            best_machine = orig_machine
            best_index = orig_pos
            for machine in self._candidates[task]:
                if self._slots == "per-machine":
                    indices = machine_slot_indices(
                        string, graph, task, machine
                    )
                else:
                    lo, hi = valid_insertion_range(string, graph, task)
                    indices = list(range(lo, hi + 1))
                for idx in indices:
                    string.relocate(task, idx, machine)
                    if orig_pos < idx:
                        first, last = orig_pos, idx
                    else:
                        first, last = idx, orig_pos
                    cost = sim.evaluate_delta(
                        order, machines, first, state, best_cost, last
                    )
                    trials += 1
                    if cost < best_cost:
                        best_cost = cost
                        best_machine = machine
                        best_index = idx
                    # revert before the next probe
                    string.relocate(task, orig_pos, orig_machine)

            string.relocate(task, best_index, best_machine)
            if best_index != orig_pos or best_machine != orig_machine:
                moved += 1
                # re-snapshot only when the string actually changed; an
                # unmoved subtask leaves the prepared state valid
                state = sim.prepare(order, machines)
                trials += 1

        return AllocationResult(
            makespan=state.makespan,
            trials=trials,
            moved=moved,
            schedule=state.as_schedule(),
        )
