"""Deterministic schedule evaluation: string -> start/finish times.

This is the cost function of every algorithm in the library (SE's ``Ci``,
the GA's fitness, every baseline's makespan), called hundreds of thousands
of times per experiment, so it is written for speed per the profiling
guidance in the HPC coding guides:

* ``makespan``, ``prepare``, ``evaluate_delta``, ``place`` and
  ``score_moves`` run in the compiled walker of
  :mod:`repro.schedule.walker` when it loads (a C extension built on
  first use; a fig5 ``makespan`` costs ~3 µs there); the Python bodies
  below, :func:`~repro.schedule.valid_range.place_by_probes` for
  ``place`` and :func:`~repro.optim.tabu.score_by_deltas` for
  ``score_moves``, are its specification and the fallback, ``==`` on
  every result;
* the Python tier converts the matrix data to nested lists (scalar
  indexing into small numpy arrays costs ~10x a list index), built only
  when that tier serves, and binds every attribute to a local;
* an in-edge reads its ``Tr`` row from one ``(l, l)`` machine-pair table
  (:meth:`~repro.model.matrices.TransferTimeMatrix.pair_rows`) whose
  diagonal is a zero row, so there is no same-machine branch and no row
  arithmetic (``+ 0.0`` is exact for finish times >= 0).  On fig5
  (100 tasks, 20 machines, 2-vCPU x86 host) a full Python walk costs
  ~50 µs and a mid-string delta ~26 µs.

Both network models (this module's :class:`Simulator` and
:class:`~repro.extensions.contention.ContentionSimulator`) derive from
one scalar-backend base that owns everything but their three walks: the
in-edge table, the initial machine state, the walker tier, the cost
model, pickling, ``score``, ``evaluate`` (``prepare(...).as_schedule()``)
and ``finish_times`` (the prepared ``finish``).

Semantics (paper §2 + §4.1, matching Wang et al.'s model):

* subtasks execute in string order on their assigned machine,
  non-preemptively and without insertion;
* a subtask may start once (a) its machine has finished the previous
  subtask in string order, and (b) every input data item has arrived —
  producer finish time plus ``Tr`` transfer time when producer and
  consumer machines differ, zero otherwise;
* links are contention-free (fully connected network), so transfers
  start the moment the producer finishes.

Incremental (suffix-only) re-evaluation
---------------------------------------

Because evaluation walks the string left to right and its state after
position ``p`` is fully captured by (per-task finish times, per-machine
availability, running span), a move that perturbs the string only from
position ``f`` onwards can reuse everything before ``f``.
:meth:`Simulator.prepare` performs one full evaluation and snapshots that
state at every position; :meth:`Simulator.evaluate_delta` then re-scores
a perturbed string by recomputing positions ``f..k-1`` only.  This is the
hot path of the GA's mutation-only offspring, of every probe of the SE
allocation step, whose relocate-probe-revert loop for one subtask is one
:meth:`Simulator.place` call, and of every tabu candidate, whose
neighborhood is one :meth:`Simulator.score_moves` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.schedule import walker
from repro.schedule.encoding import ScheduleString
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.schedule.valid_range import place_by_probes


class InvalidScheduleError(ValueError):
    """Raised when a string violates the DAG's precedence constraints,
    or its order is not a permutation of the subtasks."""


def _state_vector(
    values: Optional[Sequence[float]], l: int, label: str
) -> list[float]:
    """Normalise an optional per-machine time vector (default all zero).

    Raises
    ------
    ValueError
        On a wrong length, or a time that is negative or not finite (a
        walk reads a negative finish time as "not yet scheduled").
    """
    if values is None:
        return [0.0] * l
    if len(values) != l:
        raise ValueError(
            f"{label} has {len(values)} entries for {l} machines"
        )
    out = [float(v) for v in values]
    for m, v in enumerate(out):
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError(
                f"{label}[{m}] = {v!r}: machine times must be finite "
                "and >= 0"
            )
    return out


class _ScalarBackend:
    """What both scalar backends share: everything but their walks.

    A network class builds its own tables after this constructor, hands
    them to :meth:`_build_walker`, names its Python delta state
    ``_state_type``, and defines ``makespan`` / ``prepare`` /
    ``evaluate_delta`` (the compiled walker's calls, then the Python
    walks).  *initial* names each machine-state vector the constructor
    takes, in its argument order, so pickling can rebuild the backend.
    """

    __slots__ = (
        "_workload",
        "_k",
        "_l",
        "_E",
        "_pair",
        "_in_edges",
        "_state0",
        "_cost_model",
        "_c",
        "_why",
        "_ids",
    )

    def __init__(
        self,
        workload: Workload,
        cost_model: Optional[CostModel],
        **initial: Optional[Sequence[float]],
    ):
        self._workload = workload
        self._cost_model = cost_model
        graph = workload.graph
        self._k = graph.num_tasks
        self._l = workload.num_machines
        self._state0 = tuple(
            _state_vector(values, self._l, label)
            for label, values in initial.items()
        )
        # Per consumer: tuple of (producer, item) pairs, the data inputs.
        in_edges: list[list[tuple[int, int]]] = [[] for _ in range(self._k)]
        for d in graph.data_items:
            in_edges[d.consumer].append((d.producer, d.index))
        self._in_edges = [tuple(es) for es in in_edges]

    def __getstate__(self):
        return (self._workload, *self._state0, self._cost_model)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def _build_walker(self, *tables) -> None:
        """Take the compiled walker over *tables* (see
        :func:`repro.schedule.walker.make_walker`) as ``_c``, or, when it
        does not serve, build the Python walker's nested-list ``E`` and
        ``Tr`` pair tables (the compiled walker reads the arrays)."""
        self._c, self._why = walker.make_walker(self._workload, *tables)
        self._ids = (frozenset(range(self._k)), frozenset(range(self._l)))
        self._E = self._pair = None
        if self._c is None:
            self._E = self._workload.exec_times.values.tolist()
            self._pair = self._workload.transfer_times.pair_rows()

    def _check_string(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> None:
        """Raise on a malformed string, as the compiled walker does.

        ``ValueError`` for a wrong length or a machine id outside
        ``[0, l)``; :class:`InvalidScheduleError` for an order that is
        not a permutation of ``0..k-1``.
        """
        tasks, machines = self._ids
        k = self._k
        if (
            len(order) == k
            and len(machine_of) == k
            and set(order) == tasks
            and machines.issuperset(machine_of)
        ):
            return
        for name, seq in (("order", order), ("machine_of", machine_of)):
            if len(seq) != k:
                raise ValueError(
                    f"{name} has {len(seq)} entries, expected {k}"
                )
        if set(order) != tasks:
            raise InvalidScheduleError(
                f"order is not a permutation of 0..{k - 1}"
            )
        i = next(i for i, m in enumerate(machine_of) if m not in machines)
        raise ValueError(
            f"machine_of[{i}] = {machine_of[i]} is out of range "
            f"[0, {self._l})"
        )

    def _check_window(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        base_order: Sequence[int],
        start: int,
        stop: int,
    ) -> None:
        """:meth:`_check_string` for a delta call, in ``O(stop - start)``.

        Positions outside ``[start, stop)`` are asserted (not checked) to
        match the prepared string, which :meth:`prepare` checked, so the
        string is well formed when the window holds the base window's
        subtasks on in-range machines.  Anything else gets the full
        check, which raises on a malformed string.
        """
        k = self._k
        if len(order) == k and len(machine_of) == k:
            window = order[start:stop]
            machines = self._ids[1]
            if set(window) == set(base_order[start:stop]) and (
                machines.issuperset(map(machine_of.__getitem__, window))
            ):
                return
        self._check_string(order, machine_of)

    def _check_state(self, state) -> None:
        """Raise on a delta state the Python walks cannot resume, as the
        compiled walker does: ``TypeError`` for anything but a Python
        delta state, ``ValueError`` for one of the other network or of
        another task or machine count."""
        if not isinstance(state, _PreparedState):
            raise TypeError(
                "state must come from a Python prepare, got "
                f"{type(state).__name__}"
            )
        if (
            type(state) is not self._state_type
            or len(state.pos_of) != self._k
            or len(state.avail_rows[0]) != self._l
        ):
            raise ValueError(
                "state was prepared for another network or workload shape"
            )

    def place(
        self,
        state,
        order: Sequence[int],
        machine_of: Sequence[int],
        task: int,
        candidates: Sequence[int],
        all_positions: bool = False,
    ) -> tuple[float, int, int, int]:
        """The best re-placement of *task* among *candidates* machines:
        ``(best_cost, best_index, best_machine, probes)``.

        The SE allocation step for one subtask, specified by
        :func:`~repro.schedule.valid_range.place_by_probes`; *state* must
        be prepared from *order* / *machine_of*.  On the compiled tier
        every probe runs inside one walker call.

        Raises
        ------
        TypeError, ValueError
            For a state this backend cannot resume (as
            :meth:`evaluate_delta`), a *task* or candidate machine out of
            range, or a string other than *state*'s.
        InvalidScheduleError
            If *order* is not a permutation.
        """
        if self._c is not None:
            return self._c.place(
                state, order, machine_of, task, candidates, all_positions
            )
        self._check_state(state)
        if not 0 <= task < self._k:
            raise ValueError(f"task = {task} is out of range [0, {self._k})")
        for i, m in enumerate(candidates):
            if not 0 <= m < self._l:
                raise ValueError(
                    f"candidates[{i}] = {m} is out of range [0, {self._l})"
                )
        self._check_base(state, order, machine_of)
        return place_by_probes(
            self, state, order, machine_of, task, candidates, all_positions
        )

    def score_moves(
        self,
        state,
        order: Sequence[int],
        machine_of: Sequence[int],
        moves: Sequence,
        tabu: Sequence[bool],
        best_known: float,
    ) -> tuple[float, int, int]:
        """Tabu's pick among *moves* of the string *state* was prepared
        from: ``(cost, index, admissible)``.

        One neighborhood of the tabu step, specified by
        :func:`~repro.optim.tabu.score_by_deltas` (:func:`~repro.optim.
        tabu.select_move` over one delta per candidate); *tabu* flags
        each move and *best_known* is the run's best cost, for
        aspiration.  On the compiled tier every candidate runs inside
        one walker call.

        Raises
        ------
        TypeError, ValueError
            For a state this backend cannot resume (as
            :meth:`evaluate_delta`), a string other than *state*'s, an
            empty neighborhood, a flag count other than the move count,
            an unknown move kind, or a task or machine out of range.
        IndexError
            For an insertion index out of range.
        InvalidScheduleError
            If *order* is not a permutation, or an insertion index lies
            outside its task's valid window.
        """
        if self._c is not None:
            return self._c.score_moves(
                state, order, machine_of, moves, tabu, best_known
            )
        from repro.optim.tabu import score_by_deltas

        self._check_state(state)
        self._check_base(state, order, machine_of)
        return score_by_deltas(
            self, state, order, machine_of, moves, tabu, best_known
        )

    def _check_base(
        self, state, order: Sequence[int], machine_of: Sequence[int]
    ) -> None:
        """Raise unless *order* / *machine_of* is a well-formed string
        (:meth:`_check_string`) and the one *state* was prepared from
        (``ValueError``), as the compiled ``place`` and ``score_moves``
        do."""
        self._check_string(order, machine_of)
        if list(order) != state.order or list(machine_of) != state.machine_of:
            raise ValueError(
                "order / machine_of are not the string the state was "
                "prepared from"
            )

    @property
    def walker_tier(self) -> str:
        """``"compiled"`` when the C walker serves ``makespan`` /
        ``prepare`` / ``evaluate_delta`` / ``place`` / ``score_moves``,
        ``"python"`` otherwise (see :mod:`repro.schedule.walker`)."""
        return "python" if self._c is None else "compiled"

    @property
    def walker_reason(self) -> Optional[str]:
        """Why the Python walker serves (``None`` on the compiled tier)."""
        return self._why

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def cost_model(self) -> Optional[CostModel]:
        """The platform billing table, or ``None`` on the uniform
        platform (``score`` then reports cost 0.0)."""
        return self._cost_model

    def score(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> ScheduleScore:
        """The schedule's ``(makespan, cost, busy)`` triple.

        One ``makespan`` walk plus the cost model's per-task billing,
        which is per-task busy time and so the same under every network
        model; without an attached cost model the zero model applies
        (cost 0.0, busy times still real).
        """
        cm = self._cost_model
        if cm is None:
            cm = self._cost_model = CostModel.zero(
                self._workload.exec_times.values
            )
        return cm.score(machine_of, self.makespan(order, machine_of))

    def string_score(self, string: ScheduleString) -> ScheduleScore:
        """:meth:`score` of an encoded :class:`ScheduleString`."""
        return self.score(string.order, string.machines)

    def string_makespan(self, string: ScheduleString) -> float:
        """Makespan of a :class:`ScheduleString` (thin convenience)."""
        return self.makespan(string.order, string.machines)

    def prepare_string(self, string: ScheduleString):
        """``prepare`` for a :class:`ScheduleString` (thin convenience)."""
        return self.prepare(string.order, string.machines)

    def evaluate(self, string: ScheduleString):
        """Full evaluation of *string* with per-task start/finish times.

        The schedule of one ``prepare`` walk; callers evaluate a string
        once per run (result assembly, baselines), so the extra snapshot
        rows cost nothing that matters.
        """
        return self.prepare_string(string).as_schedule()

    def finish_times(self, string: ScheduleString) -> list[float]:
        """Per-subtask finish times — SE's ``Ci`` values (paper §4.3)."""
        return self.prepare_string(string).finish


@dataclass(frozen=True)
class Schedule:
    """A fully evaluated schedule.

    Attributes
    ----------
    order:
        The subtask string order that produced this schedule.
    machine_of:
        Machine assignment per subtask.
    start, finish:
        Start/finish time per subtask (indexed by subtask id).
    makespan:
        Total execution time of the application — the paper's objective.
    """

    order: tuple[int, ...]
    machine_of: tuple[int, ...]
    start: tuple[float, ...]
    finish: tuple[float, ...]
    makespan: float

    @property
    def num_tasks(self) -> int:
        return len(self.order)

    def machine_sequence(self, machine: int) -> list[int]:
        """Subtasks run on *machine* in execution order."""
        return [t for t in self.order if self.machine_of[t] == machine]


class _PreparedState:
    """What both Python delta states share: the base string, its
    per-task ``start`` / ``finish`` and ``makespan``, ``pos_of`` (base
    position per task) and :meth:`as_schedule`."""

    __slots__ = (
        "order",
        "machine_of",
        "pos_of",
        "start",
        "finish",
        "makespan",
    )

    def __init__(
        self,
        order: list[int],
        machine_of: list[int],
        start: list[float],
        finish: list[float],
        makespan: float,
    ):
        self.order = order
        self.machine_of = machine_of
        self.start = start
        self.finish = finish
        self.makespan = makespan
        pos_of = [0] * len(order)
        for p, task in enumerate(order):
            pos_of[task] = p
        self.pos_of = pos_of

    def as_schedule(self) -> Schedule:
        """The fully evaluated base schedule (no re-walk needed)."""
        return Schedule(
            order=tuple(self.order),
            machine_of=tuple(self.machine_of),
            start=tuple(self.start),
            finish=tuple(self.finish),
            makespan=self.makespan,
        )


class DeltaState(_PreparedState):
    """Snapshot of one full evaluation, indexed by string position.

    Produced by :meth:`Simulator.prepare`; consumed by
    :meth:`Simulator.evaluate_delta`.  For a string of ``k`` subtasks on
    ``l`` machines it stores, for every position ``p`` in ``0..k``:

    * ``avail_rows[p]`` — per-machine availability before position ``p``,
    * ``span_prefix[p]`` — makespan of the prefix ``[0, p)``,

    plus the per-task ``start`` / ``finish`` arrays and the base string's
    ``order`` / ``machine_of`` (copies, safe against later mutation).
    Two auxiliary arrays power the *rejoin* early-exit of
    :meth:`Simulator.evaluate_delta`:

    * ``suffix_max[p]`` — max base finish over positions ``p..k-1``;
    * ``last_consumer_pos[t]`` — last base position holding a consumer of
      ``t``'s data (``-1`` if none).

    Memory is ``O(k*l)``; building it costs one full evaluation.
    """

    __slots__ = (
        "avail_rows",
        "span_prefix",
        "suffix_max",
        "last_consumer_pos",
        "avail_at",
        "dirty_epoch",
        "epoch",
    )

    def __init__(
        self,
        order: list[int],
        machine_of: list[int],
        start: list[float],
        finish: list[float],
        avail_rows: list[list[float]],
        span_prefix: list[float],
        suffix_max: list[float],
        last_consumer_pos: list[int],
        makespan: float,
    ):
        super().__init__(order, machine_of, start, finish, makespan)
        self.avail_rows = avail_rows
        self.span_prefix = span_prefix
        self.suffix_max = suffix_max
        self.last_consumer_pos = last_consumer_pos
        pos_of = self.pos_of
        # avail_at[t]: availability of t's machine just before t's base
        # position — the machine-side input of t's ready-time computation.
        self.avail_at = [
            avail_rows[pos_of[t]][machine_of[t]] for t in range(len(order))
        ]
        # Scratch for evaluate_delta's dirty tracking: a task is "dirty"
        # in a probe iff dirty_epoch[task] == epoch of that probe, so
        # flags reset in O(1) by bumping the epoch.
        self.dirty_epoch = [0] * len(order)
        self.epoch = 0


class Simulator(_ScalarBackend):
    """Reusable evaluation context for one :class:`Workload`.

    Build once per workload, then call :meth:`makespan` /
    :meth:`evaluate` as often as needed.  For move-probe loops, call
    :meth:`prepare` once per base string and :meth:`evaluate_delta` per
    probe.

    ``initial_avail`` seeds the per-machine availability vector the walk
    starts from (default: all machines idle at 0).  The online scheduling
    service uses this to evaluate a job's schedule against machines that
    are still busy with earlier jobs; all reported start/finish times are
    then absolute service times, and with an all-zero vector every float
    operation is identical to the historical idle-machine walk.

    The hot methods run in the compiled walker when it loads
    (:attr:`walker_tier`); the Python bodies are the fallback.
    Simulators pickle and deep-copy; the walker is rebuilt on load.
    """

    __slots__ = ("_avail0",)

    _state_type = DeltaState

    def __init__(
        self,
        workload: Workload,
        initial_avail: Optional[Sequence[float]] = None,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(workload, cost_model, initial_avail=initial_avail)
        (self._avail0,) = self._state0
        self._build_walker(self._in_edges, self._avail0)

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        """Makespan of the schedule encoded by *order* / *machine_of*.

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
        finish = [-1.0] * self._k
        machine_avail = self._avail0[:]
        span = 0.0

        for task in order:
            m = machine_of[task]
            ready = machine_avail[m]
            to_m = pair[m]
            for prod, item in in_edges[task]:
                pf = finish[prod]
                if pf < 0.0:
                    raise InvalidScheduleError(
                        f"subtask {task} scheduled before its producer {prod}"
                    )
                pf += to_m[machine_of[prod]][item]
                if pf > ready:
                    ready = pf
            fin = ready + E[m][task]
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
        return span

    # ------------------------------------------------------------------
    # incremental (suffix-only) evaluation
    # ------------------------------------------------------------------

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> DeltaState:
        """Fully evaluate a valid string and snapshot per-position state.

        On the compiled tier the snapshot is the walker's own state
        object, with the same ``makespan`` / ``pos_of`` /
        ``as_schedule()`` and read-only ``order`` / ``machine_of`` /
        ``start`` / ``finish`` / ``span_prefix``.  The returned
        :class:`DeltaState` lets :meth:`evaluate_delta`
        re-score any string sharing a prefix with this one without
        re-walking that prefix.

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
        in_edges = self._in_edges
        k = self._k
        start = [0.0] * k
        finish = [-1.0] * k
        machine_avail = self._avail0[:]
        avail_rows: list[list[float]] = [machine_avail.copy()]
        span_prefix = [0.0]
        span = 0.0

        for task in order:
            m = machine_of[task]
            ready = machine_avail[m]
            to_m = pair[m]
            for prod, item in in_edges[task]:
                pf = finish[prod]
                if pf < 0.0:
                    raise InvalidScheduleError(
                        f"subtask {task} scheduled before its producer {prod}"
                    )
                pf += to_m[machine_of[prod]][item]
                if pf > ready:
                    ready = pf
            start[task] = ready
            fin = ready + E[m][task]
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
            avail_rows.append(machine_avail.copy())
            span_prefix.append(span)

        suffix_max = [0.0] * (k + 1)
        running = 0.0
        for p in range(k - 1, -1, -1):
            fv = finish[order[p]]
            if fv > running:
                running = fv
            suffix_max[p] = running
        last_consumer_pos = [-1] * k
        for p, task in enumerate(order):
            for prod, _item in in_edges[task]:
                if p > last_consumer_pos[prod]:
                    last_consumer_pos[prod] = p

        return DeltaState(
            order=list(order),
            machine_of=list(machine_of),
            start=start,
            finish=finish,
            avail_rows=avail_rows,
            span_prefix=span_prefix,
            suffix_max=suffix_max,
            last_consumer_pos=last_consumer_pos,
            makespan=span,
        )

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: DeltaState,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float:
        """Makespan of a perturbed string, recomputed from *first_changed*.

        The positions the call may change — ``first_changed`` to
        ``region_end`` (to the end without it) — must hold the base
        string's subtasks there, on in-range machines (checked in time
        linear in that window: :class:`InvalidScheduleError` /
        ``ValueError``).  Preconditions NOT checked (this is the
        innermost hot path):

        * ``order`` respects every dependency;
        * positions ``0..first_changed-1`` hold the same subtasks as
          ``state``'s base string, and those subtasks keep the machine
          assignments they had when :meth:`prepare` ran.

        The result is bit-identical to a full :meth:`makespan` call on
        the same string (the suffix performs the exact same float
        operations; the prefix state is reused verbatim) — a property
        enforced by ``tests/properties/test_delta_properties.py``.

        ``cutoff`` enables branch-and-bound pruning: the running span
        only grows as positions are processed, so once it reaches
        *cutoff* the final makespan is guaranteed to be >= *cutoff* and
        ``inf`` is returned immediately.  Callers that only keep strictly
        better probes (the SE allocator) lose nothing.

        ``region_end``, when given, asserts that every position strictly
        greater than it holds the *same subtask with the same machine* as
        the base string (true for a single relocate with
        ``region_end = max(old_position, insertion_index)``).  It enables
        the *rejoin* early-exit: while walking the suffix the evaluator
        tracks the last position that could still read a finish time that
        differs from the base run; once past both that frontier and
        ``region_end``, if the per-machine availability vector equals the
        base snapshot, every remaining computation would replicate the
        base run verbatim, so the result is ``max(span so far,
        max base finish of the remaining positions)`` — no further walk.
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
        self._check_window(
            order,
            machine_of,
            state.order,
            f,
            k if region_end is None else region_end + 1,
        )
        if f >= k:
            return state.makespan if state.makespan < cutoff else float("inf")
        E = self._E
        pair = self._pair
        in_edges = self._in_edges
        base_finish = state.finish
        base_machines = state.machine_of
        base_avail_at = state.avail_at
        finish = base_finish[:]
        avail_rows = state.avail_rows
        machine_avail = avail_rows[f][:]
        span = state.span_prefix[f]
        if span >= cutoff:
            return float("inf")
        suffix_max = state.suffix_max
        last_consumer = state.last_consumer_pos
        state.epoch += 1
        epoch = state.epoch
        dirty = state.dirty_epoch
        # No early exit at positions <= frontier.  A relocate shifts the
        # in-between subtasks by at most one position, hence the +1 margin
        # when a divergent producer extends the frontier below.
        frontier = k if region_end is None else region_end

        for p in range(f, k):
            if p > frontier and machine_avail == avail_rows[p]:
                rest = suffix_max[p]
                total = span if span > rest else rest
                return total if total < cutoff else float("inf")
            task = order[p]
            m = machine_of[task]
            # Clean shortcut: same machine as the base run, the machine is
            # available exactly as it was before this task's base position,
            # and no producer diverged — then every input of the ready/
            # finish computation is identical to the base run, so the
            # stored base finish IS this task's finish.
            if m == base_machines[task] and (
                machine_avail[m] == base_avail_at[task]
            ):
                for prod, _item in in_edges[task]:
                    if dirty[prod] == epoch:
                        break
                else:
                    fin = base_finish[task]
                    machine_avail[m] = fin
                    if fin > span:
                        span = fin
                        if span >= cutoff:
                            return float("inf")
                    continue
            ready = machine_avail[m]
            to_m = pair[m]
            for prod, item in in_edges[task]:
                pf = finish[prod] + to_m[machine_of[prod]][item]
                if pf > ready:
                    ready = pf
            fin = ready + E[m][task]
            finish[task] = fin
            machine_avail[m] = fin
            if fin > span:
                span = fin
                if span >= cutoff:
                    return float("inf")
            # A divergent finish time — or a machine change, which alters
            # consumers' transfer times even at an identical finish —
            # keeps every position up to the last consumer "dirty".
            if fin != base_finish[task] or m != base_machines[task]:
                dirty[task] = epoch
                bound = last_consumer[task] + 1
                if bound > frontier:
                    frontier = bound
        return span


def evaluate_schedule(workload: Workload, string: ScheduleString) -> Schedule:
    """One-shot evaluation (builds a throwaway :class:`Simulator`).

    Prefer constructing a :class:`Simulator` when evaluating many strings
    against the same workload.
    """
    return Simulator(workload).evaluate(string)
