"""Event-driven online scheduling service over the offline simulators.

:class:`DynamicSimulator` runs a discrete-event loop over a
:class:`~repro.online.arrivals.JobStream`: jobs arrive over simulated
time, are committed against the machines *as they currently are*, and
periodically re-optimised.  Everything is layered on the existing exact
machinery — each job is scored by the same
:class:`~repro.schedule.simulator.Simulator` /
:class:`~repro.extensions.contention.ContentionSimulator` backends as
offline runs, constructed through
:func:`~repro.schedule.backend.make_simulator` with the service's
per-machine busy timelines as ``initial_avail`` / ``initial_nic_free``.

Event loop
----------

A single binary heap keyed ``(time, priority, sequence)`` holds four
event kinds, with the priority pinning same-instant ordering:

====================  ========  ==============================================
event                 priority  effect
====================  ========  ==============================================
``task_done``         0         one subtask finished (log + bookkeeping)
``job_done``          1         a whole job finished (emit its JobRecord)
``arrival``           2         commit the new job via the dispatch policy
``reopt``             3         re-optimisation window over residual jobs
====================  ========  ==============================================

So a job arriving exactly when another completes sees the machine state
*after* that completion is logged, and a re-optimisation tick
coinciding with an arrival runs after the arrival commits — both
tie-breaks are part of the service contract and pinned by tests.  The
``sequence`` counter makes heap order fully deterministic; no wall
clock enters the loop, so a run is an exactly replayable function of
``(stream, network, policy, reopt, seed)``.

Commit-at-arrival and the clamping rule
---------------------------------------

When a job arrives at time ``T`` the dispatch policy schedules its
whole DAG immediately, against availability vectors **clamped to the
present**: ``avail[m] := max(avail[m], T)``.  Machines free before
``T`` cannot run work from a job that did not exist yet, so clamping is
what makes committed start times causally sound.  Two consequences are
load-bearing:

* *Offline equivalence* — for a single job at ``T = 0`` the clamp is
  the identity and the seeded vectors are all zeros, which the scalar
  simulators treat as exactly their historical initial state; the
  online service therefore reproduces the offline schedule
  **bit-identically** on every backend (a pinned property test).
* NIC reservations need *no* clamp: a transfer starts at
  ``max(producer_finish, nic_free)`` and the producer finishes after
  ``T`` by construction, so a stale ``nic_free`` below ``T`` is
  absorbed by the max.

Re-optimisation windows
-----------------------

A tick at time ``T`` rolls back the **maximal suffix** of committed
jobs that are entirely in the future — no subtask started (all starts
``>= T``) and no completion event fired.  Their machine-state snapshot
from commit time is restored, re-clamped to ``T``, and each incumbent
string is handed to the optim core
(:func:`~repro.online.policies.improve_residual`) under its iteration
deadline.  Keeping the incumbent re-evaluates it bit-identically under
the re-clamped state (``max(avail, T)`` only selects, never computes,
and every residual start is ``>= T``), so a window that finds nothing
better is a true no-op.  Jobs with any task finishing at or before
``T`` necessarily started before ``T`` and are never rolled back, which
is what makes task-completion accounting conservative: every arrived
subtask completes **exactly once** across the whole run (a pinned
property).  Stale completion events from a rolled-back commit are
skipped via a per-job epoch counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.model.workload import Workload
from repro.online.arrivals import JobArrival, JobStream
from repro.online.metrics import JobRecord, OnlineMetrics, summarize
from repro.online.policies import ReoptConfig, dispatch, improve_residual
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    NIC_NETWORK,
    make_simulator,
    plain_schedule,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule
from repro.utils.rng import derive_seed
from repro.workloads.presets import WorkloadSpec, build_workload

#: Same-instant event ordering (lower runs first).
_PRIO_TASK_DONE = 0
_PRIO_JOB_DONE = 1
_PRIO_ARRIVAL = 2
_PRIO_REOPT = 3


class _CommittedJob:
    """Mutable service-side state of one committed job."""

    __slots__ = (
        "index",
        "arrival",
        "workload",
        "string",
        "evaluated",
        "schedule",
        "avail_before",
        "nic_before",
        "scored_avail",
        "scored_nic",
        "epoch",
        "fired",
        "t_dispatch",
        "t_completed",
    )

    def __init__(self, index: int, arrival: JobArrival, workload) -> None:
        self.index = index
        self.arrival = arrival
        self.workload = workload
        self.string: Optional[ScheduleString] = None
        self.evaluated: Any = None
        self.schedule: Optional[Schedule] = None
        # machine state at commit time, *before* this job's work —
        # the rollback point for re-optimisation
        self.avail_before: List[float] = []
        self.nic_before: List[float] = []
        # the state the committed schedule was scored against
        self.scored_avail: Tuple[float, ...] = ()
        self.scored_nic: Optional[Tuple[float, ...]] = None
        self.epoch = 0
        self.fired = 0  # completion events already logged
        self.t_dispatch = 0.0
        self.t_completed: Optional[float] = None


@dataclass(frozen=True)
class CommittedJobView:
    """Read-only view of one job's final committed schedule.

    The view keeps the job's committed string and the machine state it
    was last scored against: ``avail`` (availability clamped to the
    commit time) and, under ``"nic"``, ``nic_free``.  ``evaluated`` (the
    backend's ``evaluate`` result, with its
    :class:`~repro.extensions.contention.TransferRecord` list under
    ``"nic"``) and ``schedule`` (its plain
    :class:`~repro.schedule.simulator.Schedule`) are rebuilt on first
    read from ``build_workload(spec)`` against that state, and then
    kept — ``==`` to what the run committed, since a scalar backend's
    ``evaluate`` is a pure function of the workload, the string and the
    initial state.  So a kept :class:`OnlineResult` holds no schedule
    and no workload until a view is asked for one (the pattern of
    :attr:`repro.optim.result.SearchResult.best_schedule`).  Only a job
    whose spec has no integer seed keeps the run's ``workload``:
    building such a spec again would draw another DAG.
    """

    job_id: str
    t_arrival: float
    t_dispatch: float
    t_completed: float
    string: ScheduleString
    spec: WorkloadSpec = field(repr=False)
    network: str
    avail: Tuple[float, ...] = field(repr=False)
    nic_free: Optional[Tuple[float, ...]] = field(repr=False)
    workload: Optional[Workload] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def evaluated(self) -> Any:
        workload = self.workload
        sim = make_simulator(
            build_workload(self.spec) if workload is None else workload,
            self.network,
            initial_avail=self.avail,
            initial_nic_free=self.nic_free,
        )
        return sim.evaluate(self.string)

    @cached_property
    def schedule(self) -> Schedule:
        return plain_schedule(self.evaluated)


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of one :meth:`DynamicSimulator.run`."""

    network: str
    policy: str
    num_machines: int
    records: Tuple[JobRecord, ...]
    events: Tuple[dict, ...]
    jobs: Tuple[CommittedJobView, ...]
    final_avail: Tuple[float, ...]
    metrics: OnlineMetrics

    def event_log_json(self) -> str:
        """The event log as canonical JSON (replay-comparison format).

        ``repr``-roundtrip floats plus sorted keys make byte-identical
        logs the definition of "same run" in the determinism tests and
        the committed golden log.
        """
        return json.dumps(list(self.events), sort_keys=True, indent=2)


class DynamicSimulator:
    """Discrete-event online scheduling service (see module docstring).

    Parameters
    ----------
    stream:
        The arrival stream; may be empty (the loop exits immediately).
    network:
        Cost-model backend every commitment is scored under
        (``"contention-free"`` or ``"nic"``).
    policy:
        Dispatch policy name from
        :data:`~repro.online.policies.DISPATCH_POLICIES`.
    reopt:
        Optional :class:`~repro.online.policies.ReoptConfig`; ``None``
        disables re-optimisation ticks entirely.
    seed:
        Root seed for re-optimisation engines (per-window, per-job seeds
        derive from it); dispatch itself is deterministic.
    """

    def __init__(
        self,
        stream: JobStream,
        network: str = DEFAULT_NETWORK,
        policy: str = "heft",
        reopt: Optional[ReoptConfig] = None,
        seed: int = 0,
    ):
        self._stream = stream
        self._network = network
        self._policy = policy
        self._reopt = reopt
        self._seed = int(seed)
        self._track_nic = network.lower() == NIC_NETWORK

    # ------------------------------------------------------------------
    # event helpers
    # ------------------------------------------------------------------

    def _clamped(self, avail: List[float], now: float) -> List[float]:
        """Availability as the arriving/re-optimised job may use it."""
        return [a if a >= now else now for a in avail]

    def _evaluate_committed(
        self,
        job: _CommittedJob,
        string: ScheduleString,
        eff_avail: List[float],
        nic_free: List[float],
    ) -> None:
        """Score *string* for *job* against the given state, exactly."""
        sim = make_simulator(
            job.workload,
            self._network,
            initial_avail=eff_avail,
            initial_nic_free=nic_free if self._track_nic else None,
        )
        evaluated = sim.evaluate(string)
        job.scored_avail = tuple(eff_avail)
        job.scored_nic = tuple(nic_free) if self._track_nic else None
        job.string = string
        job.evaluated = evaluated
        job.schedule = plain_schedule(evaluated)

    def _apply_state(
        self, job: _CommittedJob, avail: List[float], nic_free: List[float]
    ) -> None:
        """Fold *job*'s committed schedule into the machine state."""
        sched = job.schedule
        for task in sched.order:
            avail[sched.machine_of[task]] = sched.finish[task]
        if self._track_nic:
            for tr in job.evaluated.transfers:
                m = tr.src_machine
                if tr.finish > nic_free[m]:
                    nic_free[m] = tr.finish

    def _push_completions(
        self, heap: list, seq: int, job: _CommittedJob
    ) -> int:
        """Queue per-task and whole-job completion events; returns seq."""
        sched = job.schedule
        for task in sched.order:
            heappush(
                heap,
                (
                    sched.finish[task],
                    _PRIO_TASK_DONE,
                    seq,
                    ("task_done", job.index, job.epoch, task),
                ),
            )
            seq += 1
        heappush(
            heap,
            (
                sched.makespan,
                _PRIO_JOB_DONE,
                seq,
                ("job_done", job.index, job.epoch),
            ),
        )
        return seq + 1

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self) -> OnlineResult:
        """Drain the stream; returns the full service outcome."""
        stream = self._stream
        l = stream.num_machines
        avail: List[float] = [0.0] * l
        nic_free: List[float] = [0.0] * l

        heap: list = []
        seq = 0
        for i, arr in enumerate(stream):
            heappush(
                heap, (arr.t_arrival, _PRIO_ARRIVAL, seq, ("arrival", i))
            )
            seq += 1
        pending_arrivals = len(stream)
        if self._reopt is not None and heap:
            heappush(
                heap,
                (self._reopt.interval, _PRIO_REOPT, seq, ("reopt", 1)),
            )
            seq += 1

        committed: List[_CommittedJob] = []
        records: List[JobRecord] = []
        events: List[dict] = []

        while heap:
            now, _prio, _seq, payload = heappop(heap)
            kind = payload[0]

            if kind == "task_done":
                _, jidx, epoch, task = payload
                job = committed[jidx]
                if epoch != job.epoch:
                    continue  # superseded by a re-optimisation window
                job.fired += 1
                events.append(
                    {
                        "t": now,
                        "type": "task_done",
                        "job": job.arrival.job_id,
                        "task": task,
                    }
                )

            elif kind == "job_done":
                _, jidx, epoch = payload
                job = committed[jidx]
                if epoch != job.epoch:
                    continue
                job.t_completed = now
                records.append(
                    JobRecord(
                        job_id=job.arrival.job_id,
                        t_arrival=job.arrival.t_arrival,
                        t_dispatch=job.t_dispatch,
                        t_completed=now,
                        num_tasks=job.workload.num_tasks,
                    )
                )
                events.append(
                    {
                        "t": now,
                        "type": "job_done",
                        "job": job.arrival.job_id,
                    }
                )

            elif kind == "arrival":
                arr = stream[payload[1]]
                pending_arrivals -= 1
                events.append(
                    {"t": now, "type": "arrival", "job": arr.job_id}
                )
                job = _CommittedJob(
                    len(committed), arr, build_workload(arr.spec)
                )
                job.avail_before = avail.copy()
                job.nic_before = nic_free.copy()
                job.t_dispatch = now
                eff = self._clamped(avail, now)
                result = dispatch(
                    self._policy,
                    job.workload,
                    self._network,
                    initial_avail=eff,
                    initial_nic_free=(
                        nic_free if self._track_nic else None
                    ),
                )
                self._evaluate_committed(job, result.string, eff, nic_free)
                self._apply_state(job, avail, nic_free)
                committed.append(job)
                seq = self._push_completions(heap, seq, job)
                events.append(
                    {
                        "t": now,
                        "type": "dispatch",
                        "job": arr.job_id,
                        "policy": self._policy,
                        "tasks": job.workload.num_tasks,
                        "finish": job.schedule.makespan,
                    }
                )

            elif kind == "reopt":
                window = payload[1]
                seq = self._run_reopt_window(
                    now, window, committed, heap, seq, avail, nic_free,
                    events,
                )
                # keep ticking while work remains in the system
                if pending_arrivals > 0 or any(
                    j.t_completed is None for j in committed
                ):
                    heappush(
                        heap,
                        (
                            now + self._reopt.interval,
                            _PRIO_REOPT,
                            seq,
                            ("reopt", window + 1),
                        ),
                    )
                    seq += 1

        views = tuple(
            CommittedJobView(
                job_id=j.arrival.job_id,
                t_arrival=j.arrival.t_arrival,
                t_dispatch=j.t_dispatch,
                t_completed=j.t_completed,
                string=j.string,
                spec=j.arrival.spec,
                network=self._network,
                avail=j.scored_avail,
                nic_free=j.scored_nic,
                workload=(
                    None if isinstance(j.arrival.spec.seed, int) else j.workload
                ),
            )
            for j in committed
        )
        return OnlineResult(
            network=self._network,
            policy=self._policy,
            num_machines=l,
            records=tuple(records),
            events=tuple(events),
            jobs=views,
            final_avail=tuple(avail),
            metrics=summarize(records),
        )

    def _run_reopt_window(
        self,
        now: float,
        window: int,
        committed: List[_CommittedJob],
        heap: list,
        seq: int,
        avail: List[float],
        nic_free: List[float],
        events: List[dict],
    ) -> int:
        """One re-optimisation tick at time *now*; returns updated seq."""
        # maximal suffix of commitments entirely in the future
        first = len(committed)
        for j in range(len(committed) - 1, -1, -1):
            job = committed[j]
            if (
                job.t_completed is None
                and job.fired == 0
                and min(job.schedule.start) >= now
            ):
                first = j
            else:
                break
        residual = committed[first:]
        improved_jobs = 0
        if residual:
            # restore the machine state from before the earliest
            # residual commitment, then replay the suffix
            avail[:] = residual[0].avail_before
            nic_free[:] = residual[0].nic_before
            for job in residual:
                job.epoch += 1  # invalidate queued completion events
                job.avail_before = avail.copy()
                job.nic_before = nic_free.copy()
                eff = self._clamped(avail, now)
                nic_arg = nic_free if self._track_nic else None
                string, _cost, improved = improve_residual(
                    job.workload,
                    job.string,
                    self._reopt,
                    network=self._network,
                    initial_avail=eff,
                    initial_nic_free=nic_arg,
                    seed=derive_seed(
                        "online-reopt", self._seed, window, job.index
                    ),
                )
                self._evaluate_committed(job, string, eff, nic_free)
                self._apply_state(job, avail, nic_free)
                seq = self._push_completions(heap, seq, job)
                improved_jobs += int(improved)
        events.append(
            {
                "t": now,
                "type": "reopt",
                "window": window,
                "rolled_back": len(residual),
                "improved": improved_jobs,
            }
        )
        return seq
