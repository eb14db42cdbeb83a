"""The two cost matrices of the HC model (paper §2).

* :class:`ExecutionTimeMatrix` — the ``l x k`` matrix ``E``; ``E[m, t]`` is
  the estimated execution time of subtask ``t`` on machine ``m`` (obtained
  in a real system from code profiling / analytical benchmarking).
* :class:`TransferTimeMatrix` — the ``l(l-1)/2 x p`` matrix ``Tr``;
  ``Tr[pair(m_a, m_b), d]`` is the time to move data item ``d`` between
  machines ``m_a`` and ``m_b``.  The network is fully connected and links
  are symmetric, so rows are indexed by the *unordered* machine pair using
  the standard upper-triangular flattening.  Same-machine transfers are
  free by definition and are not stored.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")


def pair_index(machine_a: int, machine_b: int, num_machines: int) -> int:
    """Row of ``Tr`` for the unordered pair ``{machine_a, machine_b}``.

    Pairs are enumerated ``(0,1), (0,2), ..., (0,l-1), (1,2), ...`` which
    yields for ``i < j``::

        row = i*l - i*(i+1)/2 + (j - i - 1)

    Raises
    ------
    ValueError
        If the machines are equal (same-machine transfers have no row) or
        out of range.
    """
    if machine_a == machine_b:
        raise ValueError(
            f"no Tr row for a same-machine pair (machine {machine_a})"
        )
    i, j = (machine_a, machine_b) if machine_a < machine_b else (machine_b, machine_a)
    if i < 0 or j >= num_machines:
        raise ValueError(
            f"machine pair ({machine_a}, {machine_b}) out of range for "
            f"l={num_machines}"
        )
    return i * num_machines - i * (i + 1) // 2 + (j - i - 1)


def pair_table(rows: Sequence[_T], num_machines: int, diagonal: _T) -> list[list[_T]]:
    """``(l, l)`` table of ``rows[pair_index(a, b, l)]`` per ordered pair.

    ``table[a][b]`` and ``table[b][a]`` are the same object and every
    diagonal entry is *diagonal*.  With the ``Tr`` rows and one zero row
    (:meth:`TransferTimeMatrix.pair_rows`) a transfer time is a plain
    ``table[a][b][item]`` lookup, 0.0 on the diagonal.
    """
    l = num_machines
    table = [[diagonal] * l for _ in range(l)]
    for a in range(l):
        for b in range(a + 1, l):
            table[a][b] = table[b][a] = rows[pair_index(a, b, l)]
    return table


def num_pairs(num_machines: int) -> int:
    """``l(l-1)/2`` — the number of rows of ``Tr``."""
    return num_machines * (num_machines - 1) // 2


class ExecutionTimeMatrix:
    """The ``l x k`` execution-time matrix ``E``.

    All entries must be finite and strictly positive (every subtask can
    run on every machine; restricting candidate machines is the job of
    the SE ``Y`` parameter, not of infinities in ``E``).

    The per-task machine ranking (``argsort`` of each column) is
    precomputed because the SE evaluation step (best-matching machine for
    the ``Oi`` bound) and the allocation step (top-``Y`` machines) both
    consult it in hot loops.
    """

    __slots__ = ("_e", "_ranking")

    def __init__(self, values: np.ndarray | Sequence[Sequence[float]]):
        e = np.asarray(values, dtype=float)
        if e.ndim != 2:
            raise ValueError(f"E must be 2-D (l x k), got shape {e.shape}")
        if e.size == 0:
            raise ValueError("E must not be empty")
        if not np.all(np.isfinite(e)):
            raise ValueError("E must contain only finite values")
        if np.any(e <= 0):
            raise ValueError("E must contain strictly positive times")
        self._e = e.copy()
        self._e.setflags(write=False)
        # stable argsort => ties broken by machine index, deterministic
        self._ranking = np.argsort(self._e, axis=0, kind="stable")
        self._ranking.setflags(write=False)

    @property
    def num_machines(self) -> int:
        return self._e.shape[0]

    @property
    def num_tasks(self) -> int:
        return self._e.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The underlying read-only ``(l, k)`` array."""
        return self._e

    def time(self, machine: int, task: int) -> float:
        """``E[machine, task]``."""
        return float(self._e[machine, task])

    def task_times(self, task: int) -> np.ndarray:
        """Column of execution times of *task* across all machines."""
        return self._e[:, task]

    def machine_times(self, machine: int) -> np.ndarray:
        """Row of execution times of all tasks on *machine*."""
        return self._e[machine, :]

    def best_machine(self, task: int) -> int:
        """The best-matching machine of *task* (fastest; ties → lowest id).

        This is the machine used by the paper's function ``F`` when
        computing the optimistic finish time ``Oi`` (§4.3).
        """
        return int(self._ranking[0, task])

    def best_machines(self, task: int, y: Optional[int] = None) -> tuple[int, ...]:
        """The ``y`` best-matching machines of *task*, fastest first.

        ``y=None`` (or ``y >= l``) returns all machines ranked.  This is
        the candidate set that the SE allocation step restricts itself to
        via the ``Y`` parameter (§4.5).
        """
        if y is None:
            y = self.num_machines
        if y <= 0:
            raise ValueError(f"y must be >= 1, got {y}")
        y = min(y, self.num_machines)
        return tuple(int(m) for m in self._ranking[:y, task])

    def best_time(self, task: int) -> float:
        """Execution time of *task* on its best-matching machine."""
        return float(self._e[self._ranking[0, task], task])

    def average_time(self, task: int) -> float:
        """Mean execution time of *task* across machines (used by HEFT)."""
        return float(self._e[:, task].mean())

    def heterogeneity(self) -> float:
        """Mean per-task coefficient of variation of execution times.

        0 means every task runs equally fast everywhere (homogeneous);
        larger values mean machine choice matters more.  Used to verify
        that workload generators hit their heterogeneity targets.
        """
        col_mean = self._e.mean(axis=0)
        col_std = self._e.std(axis=0)
        return float((col_std / col_mean).mean())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTimeMatrix):
            return NotImplemented
        return self._e.shape == other._e.shape and bool(
            np.array_equal(self._e, other._e)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionTimeMatrix(l={self.num_machines}, k={self.num_tasks})"
        )


class TransferTimeMatrix:
    """The ``l(l-1)/2 x p`` transfer-time matrix ``Tr``.

    ``time(a, b, d)`` returns 0 when ``a == b`` (data stays in place) and
    ``Tr[pair(a,b), d]`` otherwise.  Entries must be finite and
    non-negative.

    A system with a single machine (or a graph with no data items) has an
    empty matrix; :meth:`time` still works and returns 0 for same-machine
    queries.
    """

    __slots__ = ("_tr", "_l")

    def __init__(
        self,
        values: np.ndarray | Sequence[Sequence[float]],
        num_machines: int,
    ):
        tr = np.asarray(values, dtype=float)
        if tr.ndim != 2:
            raise ValueError(f"Tr must be 2-D (pairs x p), got shape {tr.shape}")
        expected_rows = num_pairs(num_machines)
        if tr.shape[0] != expected_rows:
            raise ValueError(
                f"Tr must have l(l-1)/2 = {expected_rows} rows for "
                f"l={num_machines}, got {tr.shape[0]}"
            )
        if tr.size and not np.all(np.isfinite(tr)):
            raise ValueError("Tr must contain only finite values")
        if tr.size and np.any(tr < 0):
            raise ValueError("Tr must contain non-negative times")
        self._tr = tr.copy()
        self._tr.setflags(write=False)
        self._l = num_machines

    @classmethod
    def zeros(cls, num_machines: int, num_items: int) -> "TransferTimeMatrix":
        """A free network: all transfers take zero time."""
        return cls(
            np.zeros((num_pairs(num_machines), num_items)), num_machines
        )

    @classmethod
    def uniform(
        cls, num_machines: int, num_items: int, value: float
    ) -> "TransferTimeMatrix":
        """Every item costs *value* between any two distinct machines."""
        if value < 0:
            raise ValueError(f"transfer time must be >= 0, got {value}")
        return cls(
            np.full((num_pairs(num_machines), num_items), float(value)),
            num_machines,
        )

    @classmethod
    def from_item_sizes(
        cls,
        item_sizes: Sequence[float],
        num_machines: int,
        pair_latency: float = 0.0,
        pair_rate: float | Sequence[float] = 1.0,
    ) -> "TransferTimeMatrix":
        """Derive ``Tr`` from data item sizes and per-pair link speed.

        ``Tr[pair, d] = pair_latency + size_d / rate_pair``.  *pair_rate*
        may be a scalar (uniform network) or one rate per machine pair.
        """
        sizes = np.asarray(item_sizes, dtype=float)
        if sizes.ndim != 1:
            raise ValueError("item_sizes must be 1-D")
        if np.any(sizes < 0):
            raise ValueError("item sizes must be >= 0")
        if pair_latency < 0:
            raise ValueError(f"pair_latency must be >= 0, got {pair_latency}")
        rows = num_pairs(num_machines)
        rates = np.asarray(pair_rate, dtype=float)
        if rates.ndim == 0:
            rates = np.full(rows, float(rates))
        if rates.shape != (rows,):
            raise ValueError(
                f"pair_rate must be scalar or have length {rows}, "
                f"got shape {rates.shape}"
            )
        if np.any(rates <= 0):
            raise ValueError("pair rates must be > 0")
        tr = pair_latency + sizes[None, :] / rates[:, None]
        return cls(tr, num_machines)

    @property
    def num_machines(self) -> int:
        return self._l

    @property
    def num_items(self) -> int:
        return self._tr.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The underlying read-only ``(l(l-1)/2, p)`` array."""
        return self._tr

    def time(self, machine_a: int, machine_b: int, item: int) -> float:
        """Transfer time of *item* between the two machines (0 if equal)."""
        if machine_a == machine_b:
            return 0.0
        return float(self._tr[pair_index(machine_a, machine_b, self._l), item])

    def pair_rows(self) -> list[list[list[float]]]:
        """:func:`pair_table` of the ``Tr`` rows as lists, with one shared
        all-zero diagonal row: ``pair_rows()[a][b][d] == time(a, b, d)``."""
        return pair_table(self._tr.tolist(), self._l, [0.0] * self.num_items)

    def item_times(self, item: int) -> np.ndarray:
        """Column of transfer times of *item* over all machine pairs."""
        return self._tr[:, item]

    def mean_time(self) -> float:
        """Mean off-machine transfer time over all pairs and items.

        Returns 0 for an empty matrix.  Used to measure the achieved CCR
        of generated workloads.
        """
        if self._tr.size == 0:
            return 0.0
        return float(self._tr.mean())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferTimeMatrix):
            return NotImplemented
        return (
            self._l == other._l
            and self._tr.shape == other._tr.shape
            and bool(np.array_equal(self._tr, other._tr))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferTimeMatrix(pairs={self._tr.shape[0]}, "
            f"p={self.num_items})"
        )
