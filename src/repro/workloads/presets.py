"""Named workload presets matching the paper's experiments (§5).

:class:`WorkloadSpec` is the declarative recipe — size, connectivity,
heterogeneity, CCR, seed — and :func:`build_workload` turns it into a
concrete :class:`~repro.model.workload.Workload`.  The ``figureN_*``
helpers pin the parameters the paper states for each experiment:

* Fig. 3: "workload of large size and high connectivity";
* Fig. 4a/4b: "large size" with low / high heterogeneity, 20 machines
  (so the studied Y values 5, 9, 12 make sense);
* Figs. 5-7: "100 tasks and 20 machines" with high connectivity /
  CCR = 1 / (low connectivity, low heterogeneity, CCR = 0.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.workload import Workload, WorkloadClass
from repro.utils.rng import RandomSource, spawn_rngs
from repro.workloads.ccr import transfer_matrix
from repro.workloads.generator import CONNECTIVITY_EDGES_PER_TASK, layered_dag
from repro.workloads.heterogeneity import execution_matrix, heterogeneity_factor


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload recipe along the paper's three axes.

    Attributes
    ----------
    num_tasks, num_machines:
        Problem size (``k``, ``l``).
    connectivity:
        ``"low" | "medium" | "high"`` — mean incoming data items per
        subtask (1 / 2 / 4).
    heterogeneity:
        ``"low" | "medium" | "high"`` — range-based machine factor
        (1.1 / 3 / 10).
    ccr:
        Numeric communication-to-cost target.
    consistency:
        Execution-matrix consistency mode (see
        :mod:`repro.workloads.heterogeneity`).
    seed:
        Randomness source for the whole build (graph, E, Tr derive
        independent child streams, so e.g. changing only CCR keeps the
        same DAG).
    name:
        Optional label for reports.
    t_arrival:
        Service arrival time of the job this spec describes (online
        scheduling, :mod:`repro.online`).  ``0.0`` — the default — is
        the offline case: the job is present from the start.  Purely
        metadata for :func:`build_workload`; the online service reads it
        off the :class:`~repro.online.arrivals.JobStream`.
    distribution:
        Duration-noise model of the workload this spec describes
        (``"deterministic"`` / ``"uniform:<w>"`` / ``"lognormal:<s>"``
        / ``"empirical:<f1,f2,...>"``, see :mod:`repro.stochastic`).
        Like ``t_arrival`` this is metadata: :func:`build_workload`
        still materialises the *nominal* matrices; risk-aware runs pass
        the spec to their engine config and sample scenarios around
        that nominal workload.
    """

    num_tasks: int = 100
    num_machines: int = 20
    connectivity: str = "medium"
    heterogeneity: str = "medium"
    ccr: float = 0.5
    consistency: str = "inconsistent"
    seed: RandomSource = None
    name: str = ""
    t_arrival: float = 0.0
    distribution: str = "deterministic"

    def size_class(self) -> str:
        """The paper's small/large vocabulary (threshold at 50 subtasks)."""
        return "small" if self.num_tasks < 50 else "large"


def build_workload(spec: WorkloadSpec) -> Workload:
    """Materialise *spec* into a :class:`Workload`."""
    if spec.connectivity not in CONNECTIVITY_EDGES_PER_TASK:
        raise ValueError(
            f"unknown connectivity {spec.connectivity!r}; expected one of "
            f"{sorted(CONNECTIVITY_EDGES_PER_TASK)}"
        )
    if spec.distribution != "deterministic":
        # metadata-only, but fail fast on typos instead of at run time
        from repro.stochastic.distributions import resolve_distribution

        resolve_distribution(spec.distribution)
    rng_graph, rng_exec, rng_tr = spawn_rngs(spec.seed, 3)

    graph = layered_dag(
        spec.num_tasks,
        edges_per_task=CONNECTIVITY_EDGES_PER_TASK[spec.connectivity],
        seed=rng_graph,
    )
    e = execution_matrix(
        spec.num_machines,
        spec.num_tasks,
        machine_factor=heterogeneity_factor(spec.heterogeneity),
        consistency=spec.consistency,  # type: ignore[arg-type]
        seed=rng_exec,
    )
    tr = transfer_matrix(graph, e, spec.ccr, seed=rng_tr)
    name = spec.name or (
        f"k{spec.num_tasks}-l{spec.num_machines}-{spec.connectivity}conn-"
        f"{spec.heterogeneity}het-ccr{spec.ccr:g}"
    )
    return Workload(
        graph,
        e,
        tr,
        classification=WorkloadClass(
            connectivity=spec.connectivity,
            heterogeneity=spec.heterogeneity,
            ccr=spec.ccr,
            size=spec.size_class(),
        ),
        name=name,
    )


# ----------------------------------------------------------------------
# paper-experiment presets
# ----------------------------------------------------------------------


def small_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`small_workload` (20 tasks, 5 machines)."""
    return WorkloadSpec(
        num_tasks=20,
        num_machines=5,
        connectivity="medium",
        heterogeneity="medium",
        ccr=0.5,
        seed=seed,
        name="small-medium",
    )


def small_workload(seed: RandomSource = None) -> Workload:
    """A small instance (20 tasks, 5 machines) for quick studies/tests."""
    return build_workload(small_spec(seed))


def figure3_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure3_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="high",
        heterogeneity="medium",
        ccr=0.5,
        seed=seed,
        name="fig3-large-highconn",
    )


def figure3_workload(seed: RandomSource = None) -> Workload:
    """Fig. 3 (§5.1): large size, high connectivity."""
    return build_workload(figure3_spec(seed))


def figure4a_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure4a_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="medium",
        heterogeneity="low",
        ccr=0.5,
        seed=seed,
        name="fig4a-lowhet",
    )


def figure4a_workload(seed: RandomSource = None) -> Workload:
    """Fig. 4a (§5.2): large size, LOW heterogeneity, 20 machines."""
    return build_workload(figure4a_spec(seed))


def figure4b_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure4b_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="medium",
        heterogeneity="high",
        ccr=0.5,
        seed=seed,
        name="fig4b-highhet",
    )


def figure4b_workload(seed: RandomSource = None) -> Workload:
    """Fig. 4b (§5.2): large size, HIGH heterogeneity, 20 machines."""
    return build_workload(figure4b_spec(seed))


def figure5_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure5_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="high",
        heterogeneity="medium",
        ccr=0.5,
        seed=seed,
        name="fig5-highconn",
    )


def figure5_workload(seed: RandomSource = None) -> Workload:
    """Fig. 5 (§5.3): 100 tasks, 20 machines, high connectivity."""
    return build_workload(figure5_spec(seed))


def figure6_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure6_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="medium",
        heterogeneity="medium",
        ccr=1.0,
        seed=seed,
        name="fig6-ccr1",
    )


def figure6_workload(seed: RandomSource = None) -> Workload:
    """Fig. 6 (§5.3): 100 tasks, 20 machines, CCR = 1."""
    return build_workload(figure6_spec(seed))


def figure7_spec(seed: RandomSource = None) -> WorkloadSpec:
    """Recipe of :func:`figure7_workload`."""
    return WorkloadSpec(
        num_tasks=100,
        num_machines=20,
        connectivity="low",
        heterogeneity="low",
        ccr=0.1,
        seed=seed,
        name="fig7-loweverything",
    )


def figure7_workload(seed: RandomSource = None) -> Workload:
    """Fig. 7 (§5.3): low connectivity, low heterogeneity, CCR = 0.1."""
    return build_workload(
        figure7_spec(seed)
    )
