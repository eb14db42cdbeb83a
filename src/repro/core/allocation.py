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
``min(p, i)`` untouched, so each probe is one suffix-only delta walk
against a :class:`~repro.schedule.simulator.DeltaState` prepared once per
committed placement, with ``region_end = max(p, i)`` enabling its rejoin
exit.  The running best cost doubles as a branch-and-bound cutoff, which
prunes most of each probe's walk — the reason a batch sweep over the
candidate set, which walks every probe in full, loses here (MICRO-DELTA).

The whole phase is one backend ``allocate`` call
(:func:`~repro.schedule.valid_range.allocate_by_places` specifies it):
one ``prepare``, then per selected subtask its probe loop
(:func:`~repro.schedule.valid_range.place_by_probes`), and a relocation
plus a re-``prepare`` when the subtask moved.  On the compiled walker
that is one C call: it derives each window and its slots, walks every
probe in its own buffers, and re-prepares one state in place from the
first changed position after each move.  Probe outcomes, and therefore
the whole SE trajectory, are bit-identical to full re-evaluation (see
``tests/properties/test_delta_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.schedule.backend import SimulatorBackend
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule


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
        the NIC-contention backend); each allocation step is one call of
        the backend's ``allocate``.
    y_candidates:
        The resolved ``Y`` (1..l).
    slots:
        ``"per-machine"`` or ``"all-positions"`` (see module docstring).
    """

    __slots__ = (
        "_workload",
        "_sim",
        "_y",
        "_all_positions",
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
        self._y = y_candidates
        self._all_positions = slots == "all-positions"
        # Top-Y machines per subtask, fastest first: one slice of the
        # precomputed (l, k) ranking, viewed as a (k, Y) int64 table.
        self._candidates = workload.exec_times.ranking[:y_candidates].T

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
        state, trials, moved = self._sim.allocate(
            string, selected, self._candidates, self._all_positions
        )
        return AllocationResult(
            makespan=state.makespan,
            trials=trials,
            moved=moved,
            schedule=state.as_schedule(),
        )
