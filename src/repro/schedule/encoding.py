"""The combined matching + scheduling string encoding (paper §4.1).

A solution is a string of ``k`` segments, each pairing a subtask with a
machine.  Reading left to right, the subtasks assigned to the same machine
execute on it in string order.  The paper's novelty over Wang et al. [3]
is combining the *matching* string and the *scheduling* string into one.

:class:`ScheduleString` is deliberately **mutable**: the SE allocation
step performs thousands of relocate-evaluate-revert probes per iteration,
so the representation keeps three mutually consistent views —

* ``order``       — the subtask permutation (string left to right),
* ``machine_of``  — per-subtask machine assignment,
* ``position_of`` — inverse of ``order`` for O(1) lookups —

and updates them in place.  Structural validity against a DAG is a
*separate* concern (see :func:`is_valid_for` and
:mod:`repro.schedule.valid_range`): a string object itself only guarantees
that it is a permutation with in-range machine ids.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from repro.model.graph import TaskGraph

Pair = Tuple[int, int]


class ScheduleString:
    """A string of ``(subtask, machine)`` segments.

    Parameters
    ----------
    order:
        Permutation of ``0..k-1`` giving the left-to-right subtask order.
    machine_of:
        ``machine_of[t]`` is the machine assigned to subtask ``t``.
    num_machines:
        ``l``; machine ids must lie in ``[0, l)``.
    """

    __slots__ = ("_order", "_machine_of", "_pos_of", "_l")

    def __init__(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        num_machines: int,
    ):
        self._order = list(order)
        self._machine_of = list(machine_of)
        k = len(self._order)
        if sorted(self._order) != list(range(k)):
            raise ValueError(
                "order must be a permutation of 0..k-1; got a sequence of "
                f"length {k} that is not"
            )
        if len(self._machine_of) != k:
            raise ValueError(
                f"machine_of has length {len(self._machine_of)}, expected k={k}"
            )
        if num_machines <= 0:
            raise ValueError(f"num_machines must be > 0, got {num_machines}")
        # the range test runs once per distinct machine id (at most l),
        # not once per subtask; the loop below only names the culprit
        if not all(0 <= m < num_machines for m in set(self._machine_of)):
            t, m = next(
                (t, m)
                for t, m in enumerate(self._machine_of)
                if not 0 <= m < num_machines
            )
            raise ValueError(
                f"machine {m} of subtask {t} out of range [0, {num_machines})"
            )
        self._l = num_machines
        self._pos_of = [0] * k
        for pos, t in enumerate(self._order):
            self._pos_of[t] = pos

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Pair], num_machines: int
    ) -> "ScheduleString":
        """Build from ``(subtask, machine)`` segments, left to right."""
        pair_list = list(pairs)
        order = [t for t, _ in pair_list]
        machine_of = [0] * len(pair_list)
        for t, m in pair_list:
            if not 0 <= t < len(pair_list):
                raise ValueError(
                    f"subtask id {t} out of range for k={len(pair_list)}"
                )
            machine_of[t] = m
        return cls(order, machine_of, num_machines)

    def copy(self) -> "ScheduleString":
        """An independent deep copy."""
        new = object.__new__(ScheduleString)
        new._order = self._order.copy()
        new._machine_of = self._machine_of.copy()
        new._pos_of = self._pos_of.copy()
        new._l = self._l
        return new

    def __deepcopy__(self, memo: dict) -> "ScheduleString":
        # every field holds ints, so :meth:`copy` is already deep; a Pareto
        # tracker deep-copies each string that joins its front
        return self.copy()

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self._order)

    @property
    def num_machines(self) -> int:
        return self._l

    @property
    def order(self) -> list[int]:
        """The subtask permutation (a direct, *live* reference — do not
        mutate; exposed for the simulator's hot loop)."""
        return self._order

    @property
    def machines(self) -> list[int]:
        """Per-subtask machine ids (live reference — do not mutate)."""
        return self._machine_of

    @property
    def positions(self) -> list[int]:
        """Per-subtask string positions, the inverse of :attr:`order`
        (live reference — do not mutate)."""
        return self._pos_of

    def pairs(self) -> tuple[Pair, ...]:
        """The segments ``(subtask, machine)`` left to right (a snapshot)."""
        return tuple((t, self._machine_of[t]) for t in self._order)

    def machine_of(self, task: int) -> int:
        return self._machine_of[task]

    def position_of(self, task: int) -> int:
        return self._pos_of[task]

    def task_at(self, position: int) -> int:
        return self._order[position]

    def machine_sequence(self, machine: int) -> list[int]:
        """Subtasks assigned to *machine*, in execution (string) order."""
        return [t for t in self._order if self._machine_of[t] == machine]

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleString):
            return NotImplemented
        return (
            self._l == other._l
            and self._order == other._order
            and self._machine_of == other._machine_of
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = " ".join(
            f"s{t}m{self._machine_of[t]}" for t in self._order[:8]
        )
        tail = " ..." if len(self._order) > 8 else ""
        return f"ScheduleString[{head}{tail}]"

    # ------------------------------------------------------------------
    # mutation (the SE / GA operators)
    # ------------------------------------------------------------------

    def assign(self, task: int, machine: int) -> None:
        """Reassign *task* to *machine*, keeping its string position."""
        if not 0 <= machine < self._l:
            raise ValueError(
                f"machine {machine} out of range [0, {self._l})"
            )
        self._machine_of[task] = machine

    def move(self, task: int, insertion_index: int) -> None:
        """Move *task* to *insertion_index* of the string-without-it.

        ``insertion_index`` counts positions in the string after *task*
        has been removed (``0..k-1``); the task ends up at that absolute
        position in the resulting string.  This matches the indexing of
        :func:`repro.schedule.valid_range.valid_insertion_range`.
        """
        k = len(self._order)
        if not 0 <= insertion_index < k:
            raise IndexError(
                f"insertion index {insertion_index} out of range [0, {k})"
            )
        old = self._pos_of[task]
        if insertion_index == old:
            return
        self._order.pop(old)
        self._order.insert(insertion_index, task)
        lo = min(old, insertion_index)
        hi = max(old, insertion_index)
        for pos in range(lo, hi + 1):
            self._pos_of[self._order[pos]] = pos

    def relocate(self, task: int, insertion_index: int, machine: int) -> None:
        """Move *task* and reassign its machine in one step (SE allocation)."""
        self.assign(task, machine)
        self.move(task, insertion_index)


def is_valid_for(string: ScheduleString, graph: TaskGraph) -> bool:
    """True iff *string* is a valid solution for *graph* (paper §4.1).

    Validity = the subtask order is a topological order of the DAG (then
    per-machine order is automatically dependency-safe) and sizes agree.
    """
    if string.num_tasks != graph.num_tasks:
        return False
    return graph.is_valid_order(string.order)
