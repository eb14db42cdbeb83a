"""Convergence traces: per-iteration records of an optimisation run.

Both engines (SE and the GA baseline) append one record per iteration /
generation; the figure benchmarks read these traces to regenerate the
paper's plots (selected-subtask counts for Fig. 3a, schedule lengths for
Figs. 3b/4, best-so-far vs wall time for Figs. 5-7).

A trace is kept by every finished result, so it stores its records as
typed columns rather than as objects: one :class:`array.array` each for
the iteration (``int``), the two makespans, the elapsed time
(``float``) and the evaluation count (``int``), 40 bytes per record.
``num_selected`` and ``mean_goodness`` get a column only once a record
carries one, plus one flag byte per record that says which of the two
the record holds (so ``None`` reads back as ``None``).  A one-record
trace keeps its record as it is; the columns open with the second.
:class:`IterationRecord` objects are built only when the trace is read,
and every reader returns records ``==`` to the ones appended, with the
fields' declared types.

>>> t = ConvergenceTrace()
>>> t.add(1, 10.0, 10.0, evaluations=3)
>>> t.add(2, 9.5, 9.5, num_selected=4, evaluations=7)
>>> t[1]
IterationRecord(iteration=2, current_makespan=9.5, best_makespan=9.5, \
num_selected=4, elapsed_seconds=0.0, mean_goodness=None, evaluations=7)
>>> t.best_makespans(), [r.num_selected for r in t]
([10.0, 9.5], [None, 4])
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of an iterative scheduler.

    Attributes
    ----------
    iteration:
        1-based iteration (SE) or generation (GA) number.
    current_makespan:
        Schedule length of the current/working solution.
    best_makespan:
        Best schedule length seen so far in the run.
    num_selected:
        SE: size of the selection set this iteration (the quantity in
        Fig. 3a).  GA: number of offspring accepted.  May be ``None``
        for algorithms without the notion.
    elapsed_seconds:
        Wall time since the run started.
    mean_goodness:
        SE-specific: mean goodness of the population (``None`` for GA).
    evaluations:
        Cumulative number of simulator calls up to and including this
        iteration (cost accounting for time-vs-quality plots).
    """

    iteration: int
    current_makespan: float
    best_makespan: float
    num_selected: Optional[int] = None
    elapsed_seconds: float = 0.0
    mean_goodness: Optional[float] = None
    evaluations: int = 0


#: The record's fields in constructor order (the columns of a trace).
_FIELDS = tuple(f.name for f in fields(IterationRecord))

#: Flag bits of the optional fields: a record holds the field's value
#: when its flag byte has the bit set, else ``None``.
_OPTIONAL = {"num_selected": 1, "mean_goodness": 2}

#: Each field's :mod:`array` type code.
_TYPECODES = {
    "iteration": "q",
    "current_makespan": "d",
    "best_makespan": "d",
    "num_selected": "q",
    "elapsed_seconds": "d",
    "mean_goodness": "d",
    "evaluations": "q",
}

_COLUMN_SLOTS = tuple("_" + name for name in _FIELDS) + ("_flags",)


class ConvergenceTrace:
    """An append-only sequence of :class:`IterationRecord`, stored as
    typed columns (see the module docstring)."""

    __slots__ = (
        "_first",
        "_iteration",
        "_current_makespan",
        "_best_makespan",
        "_elapsed_seconds",
        "_evaluations",
        "_flags",
        "_num_selected",
        "_mean_goodness",
    )

    def __init__(self, records: Iterable[IterationRecord] = ()):
        self._first: Optional[IterationRecord] = None
        # the columns; None until the second record arrives
        self._iteration: Optional[array] = None
        self._current_makespan: Optional[array] = None
        self._best_makespan: Optional[array] = None
        self._elapsed_seconds: Optional[array] = None
        self._evaluations: Optional[array] = None
        # optional columns; None until a record carries the field
        self._flags: Optional[bytearray] = None
        self._num_selected: Optional[array] = None
        self._mean_goodness: Optional[array] = None
        for record in records:
            self.append(record)

    def append(self, record: IterationRecord) -> None:
        if self._first is None and self._iteration is None:
            self._first = record
            return
        self.add(
            record.iteration,
            record.current_makespan,
            record.best_makespan,
            record.num_selected,
            record.elapsed_seconds,
            record.mean_goodness,
            record.evaluations,
        )

    def add(
        self,
        iteration: int,
        current_makespan: float,
        best_makespan: float,
        num_selected: Optional[int] = None,
        elapsed_seconds: float = 0.0,
        mean_goodness: Optional[float] = None,
        evaluations: int = 0,
    ) -> None:
        """Append one record given as its field values (the arguments of
        :class:`IterationRecord`), without building the record."""
        its = self._iteration
        if its is None:
            first = self._first
            if first is None:
                self._first = IterationRecord(
                    iteration,
                    current_makespan,
                    best_makespan,
                    num_selected,
                    elapsed_seconds,
                    mean_goodness,
                    evaluations,
                )
                return
            last = first.iteration
        else:
            last = its[-1]
        if iteration <= last:
            raise ValueError(
                f"iteration numbers must increase; got {iteration} "
                f"after {last}"
            )
        if its is None:
            self._open_columns()
            its = self._iteration
        n = len(its)
        try:
            its.append(iteration)
            self._current_makespan.append(current_makespan)
            self._best_makespan.append(best_makespan)
            self._elapsed_seconds.append(elapsed_seconds)
            self._evaluations.append(evaluations)
            if (
                self._flags is not None
                or num_selected is not None
                or mean_goodness is not None
            ):
                self._add_optional(num_selected, mean_goodness)
        except BaseException:
            # a value its column cannot hold: drop the partial record
            for name in _COLUMN_SLOTS:
                column = getattr(self, name)
                if column is not None:
                    del column[n:]
            raise

    def _open_columns(self) -> None:
        """Move the first record into freshly opened columns."""
        first = self._first
        opened = {
            "_" + name: array(code, (getattr(first, name),))
            for name, code in _TYPECODES.items()
            if name not in _OPTIONAL or getattr(first, name) is not None
        }
        flags = sum(
            bit
            for name, bit in _OPTIONAL.items()
            if getattr(first, name) is not None
        )
        if flags:
            opened["_flags"] = bytearray((flags,))
        for name, column in opened.items():
            setattr(self, name, column)
        self._first = None

    def _add_optional(
        self, num_selected: Optional[int], mean_goodness: Optional[float]
    ) -> None:
        """The optional fields of the record just appended to the
        required columns (which are one ahead of the flags)."""
        flags = self._flags
        if flags is None:
            flags = self._flags = bytearray(len(self._iteration) - 1)
        f = 0
        column = self._num_selected
        if num_selected is not None:
            f = 1
            if column is None:
                column = self._num_selected = array("q", bytes(8 * len(flags)))
            column.append(num_selected)
        elif column is not None:
            column.append(0)
        column = self._mean_goodness
        if mean_goodness is not None:
            f |= 2
            if column is None:
                column = self._mean_goodness = array("d", bytes(8 * len(flags)))
            column.append(mean_goodness)
        elif column is not None:
            column.append(0.0)
        flags.append(f)

    def __len__(self) -> int:
        its = self._iteration
        if its is None:
            return 0 if self._first is None else 1
        return len(its)

    def __getitem__(self, index: int) -> IterationRecord:
        if self._iteration is None:
            return self.records[index]
        n = len(self._iteration)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        flags = self._flags
        f = flags[i] if flags is not None else 0
        return IterationRecord(
            self._iteration[i],
            self._current_makespan[i],
            self._best_makespan[i],
            self._num_selected[i] if f & 1 else None,
            self._elapsed_seconds[i],
            self._mean_goodness[i] if f & 2 else None,
            self._evaluations[i],
        )

    def __iter__(self) -> Iterator[IterationRecord]:
        return (
            IterationRecord(*values)
            for values in zip(*(self._series(name) for name in _FIELDS))
        )

    @property
    def records(self) -> Sequence[IterationRecord]:
        if self._iteration is None:
            return () if self._first is None else (self._first,)
        return tuple(self)

    def _series(self, name: str) -> list:
        """The values of field *name*, one per record (``None`` kept)."""
        if self._iteration is None:
            return [getattr(r, name) for r in self.records]
        column = getattr(self, "_" + name)
        bit = _OPTIONAL.get(name)
        if bit is None:
            return column.tolist()
        if column is None:
            return [None] * len(self)
        return [v if f & bit else None for v, f in zip(column, self._flags)]

    # ------------------------------------------------------------------
    # series extraction (the figure benchmarks read these)
    # ------------------------------------------------------------------

    def iterations(self) -> list[int]:
        return self._series("iteration")

    def selected_counts(self) -> list[int]:
        """Fig. 3a series; raises if any record lacks the count."""
        counts = self._series("num_selected")
        if any(c is None for c in counts):
            raise ValueError("trace has records without num_selected")
        return [int(c) for c in counts]  # type: ignore[arg-type]

    def current_makespans(self) -> list[float]:
        """Fig. 3b / Fig. 4 series."""
        return self._series("current_makespan")

    def best_makespans(self) -> list[float]:
        """Monotone best-so-far series (Figs. 5-7 y-axis)."""
        return self._series("best_makespan")

    def elapsed(self) -> list[float]:
        """Wall-time axis (Figs. 5-7 x-axis)."""
        return self._series("elapsed_seconds")

    def final_best(self) -> float:
        """Best makespan at the end of the run."""
        if not len(self):
            raise ValueError("empty trace")
        return self[-1].best_makespan

    def best_at_time(self, seconds: float) -> float:
        """Best makespan achieved within the first *seconds* of the run.

        Used by the SE-vs-GA comparison to sample both algorithms on a
        common time grid.  Returns ``inf`` if nothing finished in time.
        """
        best = math.inf
        for t, b in zip(self.elapsed(), self.best_makespans()):
            if t <= seconds and b < best:
                best = b
        return best

    def improvement_ratio(self) -> float:
        """First-to-best makespan ratio (>= 1 when the run improved)."""
        if not len(self):
            raise ValueError("empty trace")
        return self[0].current_makespan / self.final_best()

    def to_rows(self) -> list[dict]:
        """Records as plain dicts (CSV/JSON export in reports)."""
        return [
            dict(zip(_FIELDS, values))
            for values in zip(*(self._series(name) for name in _FIELDS))
        ]


def downsample(trace: ConvergenceTrace, max_points: int) -> ConvergenceTrace:
    """Thin a long trace to at most *max_points* records (keeping ends)."""
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")
    n = len(trace)
    if n <= max_points:
        return ConvergenceTrace(trace.records)
    step = (n - 1) / (max_points - 1)
    idx = sorted({round(i * step) for i in range(max_points)})
    return ConvergenceTrace(trace[i] for i in idx)
