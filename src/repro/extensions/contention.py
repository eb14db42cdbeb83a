"""Link-contention network model — an extension beyond the paper.

The paper (following Wang et al.) assumes a fully connected network with
**contention-free** links: every transfer starts the instant its producer
finishes.  Real clusters serialise transfers on each node's network
interface.  :class:`ContentionSimulator` adds that effect with a
one-NIC-per-machine model:

* each machine owns a single outgoing link;
* when a subtask finishes, its output items destined for *other*
  machines are sent in ascending item-index order (the ``_out_edges``
  tables are sorted at construction, so the promise holds regardless of
  how the graph stores its adjacency), each occupying the producer's
  NIC for its ``Tr`` duration;
* a consumer may start only after its machine is free *and* every input
  item has arrived (same-machine items arrive instantly).

The model is deliberately conservative (receive side is unmodelled), and
it degrades exactly to the paper's model when transfers are free (a
property pinned by ``tests/properties/test_contention_backend_properties
.py``).

Full backend parity
-------------------

``ContentionSimulator`` implements the whole
:class:`~repro.schedule.backend.SimulatorBackend` protocol, listed
under the network name ``"nic"`` — so SE, the GA and the baselines can
*optimise under* contention, not merely measure it after the fact.  The
incremental tier mirrors :meth:`repro.schedule.simulator.Simulator.
prepare` / ``evaluate_delta``: :meth:`ContentionSimulator.prepare`
snapshots, per string position, the machine-availability vector, the
NIC-free-time vector and the running span, plus the final item-arrival
table; :meth:`ContentionSimulator.evaluate_delta` then re-scores a
perturbed string suffix-only with branch-and-bound cutoff, bit-identical
to a full evaluation.  Everything else (scoring, pickling, ``evaluate``'s
schedule, ``finish_times``) is the shared scalar-backend base of
:mod:`repro.schedule.simulator`; :meth:`ContentionSimulator.evaluate`
adds the transfer records by replaying the pushes from the prepared
finish times, with no second walk.

One contention-specific subtlety: pushes happen *eagerly* when the
producer runs, and a push's duration (and whether it happens at all)
depends on the **consumer's** machine.  A probe that changes the machine
of a suffix subtask can therefore dirty the NIC timeline of a producer
that sits in the untouched prefix.  ``evaluate_delta`` detects every
machine reassignment against the base string and restarts the walk at
the earliest producer position any of them can influence, so prefix
reuse never changes the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.schedule.encoding import ScheduleString
from repro.schedule.scoring import CostModel
from repro.schedule.simulator import (
    InvalidScheduleError,
    Schedule,
    _PreparedState,
    _ScalarBackend,
)


@dataclass(frozen=True)
class TransferRecord:
    """One cross-machine transfer as scheduled on the producer's NIC."""

    item: int
    producer: int
    consumer: int
    src_machine: int
    dst_machine: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class ContentionSchedule:
    """A schedule evaluated under NIC contention.

    Structurally compatible with :class:`~repro.schedule.simulator.
    Schedule` (``order`` / ``machine_of`` / ``start`` / ``finish`` /
    ``makespan`` all delegate to the wrapped plain schedule), plus the
    per-transfer NIC records.
    """

    schedule: Schedule
    transfers: tuple[TransferRecord, ...]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def order(self) -> tuple[int, ...]:
        return self.schedule.order

    @property
    def machine_of(self) -> tuple[int, ...]:
        return self.schedule.machine_of

    @property
    def start(self) -> tuple[float, ...]:
        return self.schedule.start

    @property
    def finish(self) -> tuple[float, ...]:
        return self.schedule.finish

    @property
    def num_tasks(self) -> int:
        return self.schedule.num_tasks

    def nic_busy_time(self, machine: int) -> float:
        """Total time *machine*'s outgoing link is occupied."""
        return sum(
            t.duration for t in self.transfers if t.src_machine == machine
        )


class ContentionDeltaState(_PreparedState):
    """Per-position snapshot of one full contention evaluation.

    Produced by :meth:`ContentionSimulator.prepare`; consumed by
    :meth:`ContentionSimulator.evaluate_delta`.  For ``k`` subtasks on
    ``l`` machines with ``p`` data items it stores, for every position
    ``q`` in ``0..k``:

    * ``avail_rows[q]`` — per-machine availability before position ``q``;
    * ``nic_rows[q]`` — per-machine NIC-free time before position ``q``;
    * ``span_prefix[q]`` — makespan of the prefix ``[0, q)``;

    plus the per-task ``start`` / ``finish`` arrays, the final per-item
    ``arrival`` table (valid for every item produced before any suffix
    restart point — see :meth:`ContentionSimulator.evaluate_delta`), the
    base ``order`` / ``machine_of`` copies, ``pos_of`` and, per task, the
    earliest base position among its producers (``producer_floor``, ``k``
    for entry tasks; built from the simulator's *in_edges*) used to bound
    machine-reassignment effects.

    Memory is ``O(k*l + p)``; building it costs one full evaluation.
    """

    __slots__ = (
        "arrival",
        "avail_rows",
        "nic_rows",
        "span_prefix",
        "producer_floor",
    )

    def __init__(
        self,
        order: list[int],
        machine_of: list[int],
        start: list[float],
        finish: list[float],
        arrival: list[float],
        avail_rows: list[list[float]],
        nic_rows: list[list[float]],
        span_prefix: list[float],
        in_edges: list[tuple[tuple[int, int], ...]],
        makespan: float,
    ):
        super().__init__(order, machine_of, start, finish, makespan)
        self.arrival = arrival
        self.avail_rows = avail_rows
        self.nic_rows = nic_rows
        self.span_prefix = span_prefix
        k = len(order)
        pos_of = self.pos_of
        producer_floor = [k] * k
        for t in range(k):
            for prod, _item in in_edges[t]:
                q = pos_of[prod]
                if q < producer_floor[t]:
                    producer_floor[t] = q
        self.producer_floor = producer_floor


class ContentionSimulator(_ScalarBackend):
    """Schedule evaluation with per-machine outgoing-link serialisation.

    Full :class:`~repro.schedule.backend.SimulatorBackend`: the same
    ``makespan`` / ``evaluate`` / ``prepare`` / ``evaluate_delta``
    surface as :class:`repro.schedule.simulator.Simulator`, listed
    as the ``"nic"`` network model.  ``makespan`` / ``prepare`` /
    ``evaluate_delta`` run in the compiled walker when it loads
    (:attr:`walker_tier`); the Python bodies are the fallback.
    """

    __slots__ = ("_p", "_out_edges", "_avail0", "_nic0")

    _state_type = ContentionDeltaState

    def __init__(
        self,
        workload: Workload,
        initial_avail: Optional[Sequence[float]] = None,
        initial_nic_free: Optional[Sequence[float]] = None,
        cost_model: Optional[CostModel] = None,
    ):
        # Online-service support: seed the walk's machine-availability and
        # NIC-free vectors from in-flight earlier work (default: idle at 0,
        # bit-identical to the historical behaviour).
        super().__init__(
            workload,
            cost_model,
            initial_avail=initial_avail,
            initial_nic_free=initial_nic_free,
        )
        self._avail0, self._nic0 = self._state0
        graph = workload.graph
        self._p = graph.num_data_items
        # Per producer: (item, consumer) pairs in ascending item-index
        # order — the documented NIC push order, enforced here rather
        # than inherited from the graph's adjacency ordering.
        self._out_edges = [
            tuple(
                (i, graph.data_item(i).consumer)
                for i in sorted(graph.out_items(t))
            )
            for t in range(self._k)
        ]
        self._build_walker(
            self._in_edges, self._avail0, self._out_edges, self._nic0
        )

    def evaluate(self, string: ScheduleString) -> ContentionSchedule:
        """Full evaluation of *string* under NIC contention.

        One :meth:`prepare` walk gives the schedule; the transfers are
        then replayed from its finish times: per task in string order,
        each cross-machine output in item order on the producer's NIC.
        Those are the walk's own float operations, so the records are
        exact on both walker tiers.
        """
        schedule = super().evaluate(string)
        transfer = self._workload.transfer_times.time
        machine_of = schedule.machine_of
        finish = schedule.finish
        nic_free = self._nic0[:]
        transfers: list[TransferRecord] = []
        for task in schedule.order:
            m = machine_of[task]
            fin = finish[task]
            nf = nic_free[m]
            for item, consumer in self._out_edges[task]:
                dst = machine_of[consumer]
                if dst == m:
                    continue
                t_start = fin if fin > nf else nf
                nf = t_start + transfer(m, dst, item)
                transfers.append(
                    TransferRecord(item, task, consumer, m, dst, t_start, nf)
                )
            nic_free[m] = nf
        return ContentionSchedule(schedule, tuple(transfers))

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        """Makespan only — the hot path (no transfer records built).

        Raises
        ------
        InvalidScheduleError
            If *order* places a consumer before one of its producers.
        """
        if self._c is not None:
            return self._c.makespan(order, machine_of)
        self._check_string(order, machine_of)
        E = self._E
        pair = self._pair
        in_edges = self._in_edges
        out_edges = self._out_edges
        finish = [-1.0] * self._k
        machine_avail = self._avail0[:]
        nic_free = self._nic0[:]
        arrival = [0.0] * self._p
        span = 0.0

        for task in order:
            m = machine_of[task]
            ready = machine_avail[m]
            for prod, item in in_edges[task]:
                pf = finish[prod]
                if pf < 0.0:
                    raise InvalidScheduleError(
                        f"subtask {task} scheduled before its producer {prod}"
                    )
                t_arr = pf if machine_of[prod] == m else arrival[item]
                if t_arr > ready:
                    ready = t_arr
            fin = ready + E[m][task]
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
            nf = nic_free[m]
            from_m = pair[m]
            for item, consumer in out_edges[task]:
                dst = machine_of[consumer]
                if dst == m:
                    continue
                t_start = fin if fin > nf else nf
                nf = t_start + from_m[dst][item]
                arrival[item] = nf
            nic_free[m] = nf
        return span

    # ------------------------------------------------------------------
    # incremental (suffix-only) evaluation
    # ------------------------------------------------------------------

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> ContentionDeltaState:
        """Fully evaluate a valid string and snapshot per-position state.

        Raises
        ------
        InvalidScheduleError
            If *order* places a consumer before one of its producers.
        """
        if self._c is not None:
            return self._c.prepare(order, machine_of)
        self._check_string(order, machine_of)
        E = self._E
        pair = self._pair
        k = self._k
        in_edges = self._in_edges
        out_edges = self._out_edges

        start = [0.0] * k
        finish = [-1.0] * k
        machine_avail = self._avail0[:]
        nic_free = self._nic0[:]
        arrival = [0.0] * self._p
        avail_rows: list[list[float]] = [machine_avail.copy()]
        nic_rows: list[list[float]] = [nic_free.copy()]
        span_prefix = [0.0]
        span = 0.0

        for task in order:
            m = machine_of[task]
            ready = machine_avail[m]
            for prod, item in in_edges[task]:
                pf = finish[prod]
                if pf < 0.0:
                    raise InvalidScheduleError(
                        f"subtask {task} scheduled before its producer {prod}"
                    )
                t_arr = pf if machine_of[prod] == m else arrival[item]
                if t_arr > ready:
                    ready = t_arr
            fin = ready + E[m][task]
            start[task] = ready
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
            nf = nic_free[m]
            from_m = pair[m]
            for item, consumer in out_edges[task]:
                dst = machine_of[consumer]
                if dst == m:
                    continue
                t_start = fin if fin > nf else nf
                nf = t_start + from_m[dst][item]
                arrival[item] = nf
            nic_free[m] = nf
            avail_rows.append(machine_avail.copy())
            nic_rows.append(nic_free.copy())
            span_prefix.append(span)

        return ContentionDeltaState(
            order=list(order),
            machine_of=list(machine_of),
            start=start,
            finish=finish,
            arrival=arrival,
            avail_rows=avail_rows,
            nic_rows=nic_rows,
            span_prefix=span_prefix,
            in_edges=in_edges,
            makespan=span,
        )

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: ContentionDeltaState,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float:
        """Makespan of a perturbed string, recomputed suffix-only.

        The suffix from ``first_changed`` must hold the base string's
        subtasks, on in-range machines (checked in time linear in the
        suffix: :class:`InvalidScheduleError` / ``ValueError``).
        Preconditions NOT checked (this is the innermost hot path):

        * ``order`` respects every dependency;
        * positions ``0..first_changed-1`` hold the same subtasks as
          ``state``'s base string, and those subtasks keep the machine
          assignments they had when :meth:`prepare` ran.

        The result is bit-identical to a full :meth:`makespan` call on
        the same string — a property enforced by
        ``tests/properties/test_contention_backend_properties.py``.

        Unlike the contention-free model, reassigning a *suffix* subtask
        to a new machine changes which of its inputs cross machines and
        how long each transfer occupies the **producer's** NIC — and the
        producer may sit in the untouched prefix.  The walk therefore
        restarts at ``min(first_changed, producer_floor[t])`` over every
        task ``t`` whose machine differs from the base assignment; every
        position before that point is provably identical to the base run
        (its tasks' pushes involve no reassigned consumer), so the
        snapshots stay valid.

        ``cutoff`` enables branch-and-bound pruning exactly as in
        :meth:`repro.schedule.simulator.Simulator.evaluate_delta`: the
        running span only grows, so once it reaches *cutoff* the walk
        aborts and returns ``inf``.

        ``region_end`` is accepted for call-site parity with the
        contention-free backend but unused: the rejoin early-exit is
        unsound here because equal machine-availability and NIC vectors
        do not imply equal in-flight arrival times.
        """
        if self._c is not None:
            return self._c.evaluate_delta(
                order, machine_of, first_changed, state, cutoff, region_end
            )
        self._check_state(state)
        k = self._k
        f = first_changed
        if f < 0:
            f = 0
        self._check_window(order, machine_of, state.order, f, k)
        base_machines = state.machine_of
        if f < k:
            # Machine reassignments can dirty prefix producers' NICs;
            # restart early enough to replay every affected push.
            floor = state.producer_floor
            eff = f
            for t in range(k):
                if machine_of[t] != base_machines[t]:
                    fl = floor[t]
                    if fl < eff:
                        eff = fl
            f = eff
        else:
            return state.makespan if state.makespan < cutoff else float("inf")

        E = self._E
        pair = self._pair
        in_edges = self._in_edges
        out_edges = self._out_edges
        finish = state.finish[:]
        arrival = state.arrival[:]
        machine_avail = state.avail_rows[f][:]
        nic_free = state.nic_rows[f][:]
        span = state.span_prefix[f]
        if span >= cutoff:
            return float("inf")

        for q in range(f, k):
            task = order[q]
            m = machine_of[task]
            ready = machine_avail[m]
            for prod, item in in_edges[task]:
                t_arr = (
                    finish[prod] if machine_of[prod] == m else arrival[item]
                )
                if t_arr > ready:
                    ready = t_arr
            fin = ready + E[m][task]
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
                if span >= cutoff:
                    return float("inf")
            nf = nic_free[m]
            from_m = pair[m]
            for item, consumer in out_edges[task]:
                dst = machine_of[consumer]
                if dst == m:
                    continue
                t_start = fin if fin > nf else nf
                nf = t_start + from_m[dst][item]
                arrival[item] = nf
            nic_free[m] = nf
        return span


def contention_penalty(workload: Workload, string: ScheduleString) -> float:
    """Relative makespan increase of *string* when NICs serialise.

    ``0.0`` means the schedule is insensitive to the contention-free
    assumption; ``0.25`` means it is 25% slower on a contended network.
    """
    from repro.schedule.simulator import Simulator

    free = Simulator(workload).string_makespan(string)
    contended = ContentionSimulator(workload).string_makespan(string)
    return contended / free - 1.0
