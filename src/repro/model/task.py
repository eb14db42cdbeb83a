"""Data items — the edge payloads of the DAG.

Terminology follows the paper (§2): an *application task* is decomposed
into coarse-grained **subtasks** ``Sb = {s_i, 0 <= i < k}``; the values
exchanged between subtasks form the **data items** ``D = {d_i, 0 <= i < p}``.
A subtask is just its index in ``[0, k)`` (a column of ``E``), so only
the data items have an object.  A data item is produced by exactly one
subtask and consumed by exactly one subtask, i.e. it annotates one DAG
edge.  (Two subtasks may exchange several distinct data items — that is
simply several parallel edges, each with its own transfer-time column in
``Tr``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class DataItem:
    """A value transferred from one subtask to another.

    Attributes
    ----------
    index:
        Dense identifier in ``[0, p)``; used to index the columns of the
        transfer-time matrix ``Tr``.
    producer:
        Index of the subtask that generates the item.
    consumer:
        Index of the subtask that needs the item before it can start.
    size:
        Abstract size (used by workload generators to derive transfer
        times from the CCR knob); purely informational once ``Tr`` exists.
    """

    index: int
    producer: int
    consumer: int
    size: float = field(default=1.0, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"data item index must be >= 0, got {self.index}")
        if self.producer < 0 or self.consumer < 0:
            raise ValueError(
                f"producer/consumer must be >= 0, got "
                f"({self.producer}, {self.consumer})"
            )
        if self.producer == self.consumer:
            raise ValueError(
                f"data item {self.index} has producer == consumer "
                f"({self.producer}); self-edges are not allowed in a DAG"
            )
        if self.size < 0:
            raise ValueError(f"data item size must be >= 0, got {self.size}")

    @property
    def edge(self) -> tuple[int, int]:
        """The DAG edge ``(producer, consumer)`` this item annotates."""
        return (self.producer, self.consumer)

