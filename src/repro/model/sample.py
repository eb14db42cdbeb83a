"""The paper's running example (Figures 1 and 2), made concrete.

Figure 1 of the paper shows a 7-subtask / 6-data-item DAG, a 2-machine HC
system, a ``2 x 7`` matrix ``E`` and a ``1 x 6`` matrix ``Tr``.  The DAG
structure is recoverable from the prose: ``s4`` has predecessors ``s0``
and ``s1`` (the ``O4`` example names both, plus "communication time
between s1 and s4"), and the Figure-2 string ``s0 s1 s2 s5 s6 s3 s4``
must be topologically valid, which pins ``s3`` under ``s0`` and
``{s5, s6}`` under ``s2``.

The numeric entries of ``E``/``Tr`` did not survive the scan, so this
module ships documented substitute values chosen such that the paper's
one recoverable number holds: **O4 = 1835** — the optimistic finish time
of ``s4`` when ``s4`` sits on its best machine ``m1`` and its
predecessors ``s0, s1`` sit on their best machine ``m0`` (see
``repro.core.goodness``).  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from repro.model.graph import TaskGraph
from repro.model.matrices import ExecutionTimeMatrix, TransferTimeMatrix
from repro.model.task import DataItem
from repro.model.workload import Workload, WorkloadClass

#: DAG edges, one per data item d0..d5 (producer, consumer).
SAMPLE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 2),  # d0
    (0, 3),  # d1
    (0, 4),  # d2
    (1, 4),  # d3
    (2, 5),  # d4
    (2, 6),  # d5
)

#: Execution times E[machine][task] for m0 and m1 (substitute values).
SAMPLE_EXEC_TIMES: tuple[tuple[float, ...], ...] = (
    #  s0    s1    s2    s3     s4    s5    s6
    (500.0, 800.0, 700.0, 600.0, 1200.0, 900.0, 400.0),  # m0
    (700.0, 1000.0, 550.0, 850.0, 900.0, 650.0, 600.0),  # m1
)

#: Transfer times Tr[pair (m0,m1)][item] for d0..d5 (substitute values).
#: d3 = 135 makes O4 = max(500 + 200, 800 + 135) + 900 = 1835 as in §4.3.
SAMPLE_TRANSFER_TIMES: tuple[float, ...] = (
    150.0,  # d0: s0 -> s2
    100.0,  # d1: s0 -> s3
    200.0,  # d2: s0 -> s4
    135.0,  # d3: s1 -> s4
    120.0,  # d4: s2 -> s5
    180.0,  # d5: s2 -> s6
)

#: The valid encoding string of Figure 2: (subtask, machine) segments.
FIGURE2_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0),  # s0 m0
    (1, 1),  # s1 m1
    (2, 1),  # s2 m1
    (5, 1),  # s5 m1
    (6, 1),  # s6 m1
    (3, 0),  # s3 m0
    (4, 0),  # s4 m0
)

#: The O4 value quoted in the paper's §4.3 example.
PAPER_O4 = 1835.0


def paper_sample_graph() -> TaskGraph:
    """The 7-subtask / 6-data-item DAG of Figure 1a."""
    items = [
        DataItem(i, producer=u, consumer=v, size=SAMPLE_TRANSFER_TIMES[i])
        for i, (u, v) in enumerate(SAMPLE_EDGES)
    ]
    return TaskGraph(7, items)


def paper_sample_workload() -> Workload:
    """The full Figure-1 problem instance as a :class:`Workload`.

    Its ``E`` has two rows: the 2-machine system of Figure 1b.
    """
    graph = paper_sample_graph()
    e = ExecutionTimeMatrix(SAMPLE_EXEC_TIMES)
    tr = TransferTimeMatrix([list(SAMPLE_TRANSFER_TIMES)], num_machines=2)
    return Workload(
        graph,
        e,
        tr,
        classification=WorkloadClass(
            connectivity="low", heterogeneity="low", ccr=0.2, size="small"
        ),
        name="paper-figure-1",
    )
