"""Common result type and machine-choice substrate for the static baselines.

Every baseline returns a :class:`BaselineResult` whose schedule was
produced by the *same* simulator semantics as SE and the GA —
non-insertion, string order = per-machine execution order — so makespans
are directly comparable across all algorithms in the library.

Baselines take a ``network`` selector (see :mod:`repro.schedule.backend`)
like the metaheuristics do.  Under the default contention-free model the
builder's incremental EFT queries are *exact* and the assembled schedule
is cross-checked against the simulator.  Under ``"nic"`` the queries are
a deterministic greedy *estimate* (each cross-machine input is fetched
through the producer machine's serialised NIC as currently reserved);
the exact eager-push cost of the final string depends on machine choices
a list scheduler has not made yet, so the reported makespan is always
re-measured through the real backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.model.workload import Workload
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    NIC_NETWORK,
    make_simulator,
    plain_schedule,
    platform_state,
    resolve_platform,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule, _state_vector


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a (usually deterministic) baseline scheduler.

    ``makespan`` is measured under the ``network`` backend (and
    ``platform`` catalog) the baseline ran with — recorded here so
    downstream tables can tell the scenarios apart.  ``cost`` is the
    schedule's dollar cost under the platform's billing table (0.0 on
    the free ``"uniform"`` platform).
    """

    name: str
    string: ScheduleString
    schedule: Schedule
    makespan: float
    evaluations: int = 0
    network: str = DEFAULT_NETWORK
    platform: str = DEFAULT_PLATFORM
    cost: float = 0.0


class IncrementalScheduleBuilder:
    """Builds a schedule one task at a time with EFT queries.

    Maintains per-machine availability and per-task finish times so that
    list schedulers can ask "what would task *t* finish at on machine
    *m*?" in O(in-degree) without re-simulating the prefix.  With
    ``network="nic"`` it additionally reserves each producer machine's
    outgoing link per committed transfer, so EFT queries price NIC
    contention into the greedy choices.  The final :meth:`to_result`
    re-evaluates the assembled string through the shared backend; for the
    contention-free model it also asserts agreement, so baselines cannot
    drift from the reference cost model.
    """

    def __init__(
        self,
        workload: Workload,
        name: str,
        network: str = DEFAULT_NETWORK,
        initial_avail: Sequence[float] | None = None,
        initial_nic_free: Sequence[float] | None = None,
        platform=DEFAULT_PLATFORM,
    ):
        self._source = workload
        self._name = name
        # normalised like make_simulator resolves it, so the exactness
        # cross-check and the NIC pricing key on the actual backend
        self._network = network.lower()
        # The platform transform (speed-scaled E, boot folded into the
        # machine state) is applied up front so every EFT query prices
        # it; to_result re-measures through make_simulator with the
        # *original* inputs + platform, which applies the identical
        # transform.  On "uniform" all three pass through unchanged.
        self._platform = resolve_platform(platform)
        # Online dispatch hands the builder machines already busy with
        # earlier jobs; EFT queries and the final measurement then price
        # that in-flight work (default: all idle at 0, the offline case).
        # Both vectors are checked here, before the list schedule runs.
        l = workload.num_machines
        self._given_avail = (
            None
            if initial_avail is None
            else _state_vector(initial_avail, l, "initial_avail")
        )
        self._given_nic_free = (
            None
            if initial_nic_free is None
            else _state_vector(initial_nic_free, l, "initial_nic_free")
        )
        workload, initial_avail, initial_nic_free = platform_state(
            workload,
            self._platform,
            network=self._network,
            initial_avail=self._given_avail,
            initial_nic_free=self._given_nic_free,
        )
        self._workload = workload
        self._graph = workload.graph
        self._E = workload.exec_times.values.tolist()
        self._finish: dict[int, float] = {}
        self._machine_avail = _state_vector(initial_avail, l, "initial_avail")
        self._machine_of: list[int | None] = [None] * workload.num_tasks
        self._order: list[int] = []
        # NIC-free reservation per machine; only consulted under "nic".
        self._nic_aware = self._network == NIC_NETWORK
        self._nic_free = _state_vector(initial_nic_free, l, "initial_nic_free")
        # per consumer: (producer, item) pairs in ascending item order
        incoming: list[list[tuple[int, int]]] = [
            [] for _ in range(workload.num_tasks)
        ]
        for d in self._graph.data_items:
            incoming[d.consumer].append((d.producer, d.index))
        self._incoming = [tuple(es) for es in incoming]

    @property
    def network(self) -> str:
        return self._network

    @property
    def platform(self) -> str:
        """Canonical name of the platform the builder prices against."""
        return self._platform.name

    @property
    def effective_workload(self) -> Workload:
        """The workload EFT queries price — the platform's speed-scaled
        matrix (the original object on ``"uniform"``).  Rank/priority
        phases read this so their heuristics see the same machine model
        the schedule is measured under."""
        return self._workload

    def machine_avail_snapshot(self) -> list[float]:
        """Copy of the current per-machine availability (boot included)."""
        return self._machine_avail.copy()

    def _ready_time(self, task: int, machine: int, commit: bool) -> float:
        """Earliest time all inputs of *task* are available on *machine*.

        Under ``"nic"``, cross-machine fetches serialise on each source
        machine's outgoing link (in item-index order); *commit* persists
        the link reservations — probes leave the builder untouched.
        """
        w = self._workload
        ready = 0.0
        local_free: dict[int, float] | None = (
            {} if self._nic_aware and not commit else None
        )
        for prod, item in self._incoming[task]:
            if prod not in self._finish:
                raise ValueError(
                    f"cannot query task {task}: predecessor {prod} unscheduled"
                )
            pm = self._machine_of[prod]
            if pm == machine or not self._nic_aware:
                arrival = self._finish[prod] + w.comm_time(pm, machine, item)
            else:
                free = (
                    local_free.get(pm, self._nic_free[pm])
                    if local_free is not None
                    else self._nic_free[pm]
                )
                t_start = max(self._finish[prod], free)
                arrival = t_start + w.comm_time(pm, machine, item)
                if local_free is not None:
                    local_free[pm] = arrival
                else:
                    self._nic_free[pm] = arrival
            if arrival > ready:
                ready = arrival
        return ready

    def data_ready_time(self, task: int, machine: int) -> float:
        """Earliest time all inputs of *task* are available on *machine*.

        Requires every predecessor to be scheduled already.  Pure query:
        never commits NIC reservations.
        """
        return self._ready_time(task, machine, commit=False)

    def finish_time(self, task: int, machine: int) -> float:
        """EFT of *task* on *machine* under non-insertion semantics."""
        start = max(
            self._machine_avail[machine], self.data_ready_time(task, machine)
        )
        return start + self._E[machine][task]

    def best_machine(self, task: int) -> tuple[int, float]:
        """Machine minimising EFT (ties → lowest id) and that EFT."""
        best_m = 0
        best_f = float("inf")
        for m in range(self._workload.num_machines):
            f = self.finish_time(task, m)
            if f < best_f:
                best_f = f
                best_m = m
        return best_m, best_f

    def place(self, task: int, machine: int) -> float:
        """Commit *task* to *machine*; returns its finish time."""
        if self._machine_of[task] is not None:
            raise ValueError(f"task {task} is already scheduled")
        start = max(
            self._machine_avail[machine],
            self._ready_time(task, machine, commit=True),
        )
        fin = start + self._E[machine][task]
        self._finish[task] = fin
        self._machine_avail[machine] = fin
        self._machine_of[task] = machine
        self._order.append(task)
        return fin

    def to_result(self, evaluations: int = 0) -> BaselineResult:
        """Finalize: build the string, re-simulate under the backend.

        Contention-free runs additionally cross-check the builder's
        expected makespan against the simulator (exact agreement); the
        NIC builder's queries are estimates by design, so there the
        backend measurement simply *is* the result.
        """
        if len(self._order) != self._workload.num_tasks:
            raise ValueError(
                f"only {len(self._order)} of {self._workload.num_tasks} "
                "tasks scheduled"
            )
        string = ScheduleString(
            self._order,
            [int(m) for m in self._machine_of],  # type: ignore[arg-type]
            self._workload.num_machines,
        )
        sim = make_simulator(
            self._source,
            self._network,
            initial_avail=self._given_avail,
            initial_nic_free=self._given_nic_free,
            platform=self._platform,
        )
        schedule = plain_schedule(sim.evaluate(string))
        if self._network == DEFAULT_NETWORK:
            expected = max(self._finish.values())
            if abs(schedule.makespan - expected) > 1e-6 * max(1.0, expected):
                raise AssertionError(
                    f"builder makespan {expected} disagrees with simulator "
                    f"{schedule.makespan}; cost models diverged"
                )
        cm = sim.cost_model
        return BaselineResult(
            name=self._name,
            string=string,
            schedule=schedule,
            makespan=schedule.makespan,
            evaluations=evaluations,
            network=self._network,
            platform=self._platform.name,
            cost=cm.cost(string.machines) if cm is not None else 0.0,
        )
