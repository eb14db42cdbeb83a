"""A workload: everything needed to state one MSHC problem instance.

The paper (§5) defines a workload as "a DAG representing an application
task, the number of machines in the HC system, the matrix E, and the
matrix Tr", classified along three axes: connectivity, heterogeneity and
communication-to-cost ratio (CCR).  :class:`Workload` bundles the DAG and
the two matrices (the machine count ``l`` is the number of rows of
``E``), cross-validates their dimensions once, and offers the cost
queries the schedule simulator needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.graph import TaskGraph
from repro.model.matrices import ExecutionTimeMatrix, TransferTimeMatrix


@dataclass(frozen=True)
class WorkloadClass:
    """The paper's three-axis workload classification (§5).

    Values are free-form labels (``"low"``, ``"medium"``, ``"high"`` in
    the paper, plus a numeric CCR); they are descriptive metadata used by
    reports — the quantitative truth is always in the matrices.
    """

    connectivity: str = "unspecified"
    heterogeneity: str = "unspecified"
    ccr: Optional[float] = None
    size: str = "unspecified"

    def describe(self) -> str:
        """One-line human description for reports."""
        ccr = "?" if self.ccr is None else f"{self.ccr:g}"
        return (
            f"size={self.size}, connectivity={self.connectivity}, "
            f"heterogeneity={self.heterogeneity}, CCR={ccr}"
        )


class Workload:
    """One immutable MSHC problem instance.

    Parameters
    ----------
    graph:
        The application DAG (``k`` subtasks, ``p`` data items).
    exec_times:
        The ``l x k`` matrix ``E``; its rows are the ``l`` machines of the
        fully connected HC system.
    transfer_times:
        The ``l(l-1)/2 x p`` matrix ``Tr``, sized for the same ``l``.
    classification:
        Optional :class:`WorkloadClass` metadata.
    name:
        Optional label used in reports and benchmark output.

    Raises
    ------
    ValueError
        If any dimension disagrees with any other.
    """

    __slots__ = (
        "_graph",
        "_exec",
        "_transfer",
        "classification",
        "name",
    )

    def __init__(
        self,
        graph: TaskGraph,
        exec_times: ExecutionTimeMatrix,
        transfer_times: TransferTimeMatrix,
        classification: Optional[WorkloadClass] = None,
        name: str = "",
    ):
        if exec_times.num_tasks != graph.num_tasks:
            raise ValueError(
                f"E has {exec_times.num_tasks} task columns but the graph "
                f"has {graph.num_tasks} subtasks"
            )
        if transfer_times.num_machines != exec_times.num_machines:
            raise ValueError(
                f"Tr is sized for {transfer_times.num_machines} machines "
                f"but E has {exec_times.num_machines} machine rows"
            )
        if transfer_times.num_items != graph.num_data_items:
            raise ValueError(
                f"Tr has {transfer_times.num_items} item columns but the "
                f"graph has {graph.num_data_items} data items"
            )
        self._graph = graph
        self._exec = exec_times
        self._transfer = transfer_times
        self.classification = classification or WorkloadClass()
        self.name = name or (
            f"workload-k{graph.num_tasks}-l{exec_times.num_machines}"
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def exec_times(self) -> ExecutionTimeMatrix:
        return self._exec

    @property
    def transfer_times(self) -> TransferTimeMatrix:
        return self._transfer

    @property
    def num_tasks(self) -> int:
        """``k``."""
        return self._graph.num_tasks

    @property
    def num_machines(self) -> int:
        """``l`` — the number of rows of ``E``."""
        return self._exec.num_machines

    @property
    def num_data_items(self) -> int:
        """``p``."""
        return self._graph.num_data_items

    # ------------------------------------------------------------------
    # cost queries (hot paths)
    # ------------------------------------------------------------------

    def exec_time(self, machine: int, task: int) -> float:
        """``E[machine, task]``."""
        return self._exec.time(machine, task)

    def comm_time(self, machine_a: int, machine_b: int, item: int) -> float:
        """Transfer time of data *item* between two machines (0 if equal)."""
        return self._transfer.time(machine_a, machine_b, item)

    # ------------------------------------------------------------------
    # derived measures
    # ------------------------------------------------------------------

    def serial_time_best(self) -> float:
        """Makespan of running every task serially on its best machine.

        A trivial upper bound useful for sanity checks and normalisation.
        """
        return float(
            sum(self._exec.best_time(t) for t in range(self.num_tasks))
        )

    def ccr_estimate(self) -> float:
        """Achieved communication-to-cost ratio.

        Ratio of the mean off-machine transfer time to the mean execution
        time, mirroring the paper's CCR definition ("size of data item
        over execution time of the subtask generating it").  Returns 0 when
        there are no data items or a single machine.
        """
        mean_exec = float(self._exec.values.mean())
        mean_comm = self._transfer.mean_time()
        if mean_exec <= 0:
            return 0.0
        return mean_comm / mean_exec

    def describe(self) -> str:
        """Multi-line human-readable summary used by the CLI."""
        g = self._graph
        lines = [
            f"workload {self.name!r}",
            f"  subtasks     k = {g.num_tasks}",
            f"  data items   p = {g.num_data_items}",
            f"  machines     l = {self.num_machines}",
            f"  DAG levels   {g.num_levels}",
            f"  connectivity {g.connectivity():.3f}",
            f"  heterogeneity (mean CV of E columns) "
            f"{self._exec.heterogeneity():.3f}",
            f"  CCR estimate {self.ccr_estimate():.3f}",
            f"  class        {self.classification.describe()}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workload(name={self.name!r}, k={self.num_tasks}, "
            f"l={self.num_machines}, p={self.num_data_items})"
        )
