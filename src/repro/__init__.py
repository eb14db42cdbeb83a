"""repro — Simulated Evolution for task matching and scheduling in
heterogeneous computing systems.

A faithful, production-quality reproduction of

    Barada, Sait & Baig, "Task Matching and Scheduling in Heterogeneous
    Systems Using Simulated Evolution", IPPS 2001,

including the heterogeneous-computing problem model, the combined
matching+scheduling string encoding, the SE engine (evaluation /
selection / allocation), the GA comparator of Wang et al. (JPDC 1997),
classic deterministic baselines (HEFT, Min-min, Max-min, OLB), a unified
metaheuristic search core with simulated-annealing and tabu-search
engines (:mod:`repro.optim`), workload generators over the paper's three
classification axes (connectivity, heterogeneity, CCR), and a benchmark
harness regenerating every figure of the paper's evaluation section.

Quickstart (executable — CI runs it under ``--doctest-modules``):

    >>> import repro
    >>> workload = repro.workloads.small_workload(seed=7)
    >>> result = repro.run_se(workload, repro.SEConfig(seed=7, max_iterations=30))
    >>> result.iterations
    30
    >>> result.best_makespan < repro.baselines.olb(workload).makespan
    True

Paper-scale experiments swap in ``repro.workloads.figure5_workload`` (100
tasks, 20 machines) and more iterations; sweeps over many workloads and
seeds go through :mod:`repro.runner`:

    >>> from repro.runner import AlgorithmSpec, ExperimentSpec, run_experiment
    >>> spec = ExperimentSpec(
    ...     name="quickstart",
    ...     algorithms={"SE": AlgorithmSpec.make("se", max_iterations=20),
    ...                 "HEFT": AlgorithmSpec.make("heft")},
    ...     workloads=[repro.workloads.small_spec(seed=s) for s in (1,)],
    ...     seeds=(0, 1),
    ... )
    >>> result = run_experiment(spec, workers=2)  # same output for any workers
    >>> sorted(set(c.algorithm for c in result))
    ['HEFT', 'SE']
"""

from repro._lazy import exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.baselines": (
            "GAConfig",
            "GAResult",
            "GeneticAlgorithm",
            "heft",
            "max_min",
            "min_min",
            "olb",
            "random_search",
            "run_ga",
        ),
        "repro.core": ("SEConfig", "SEResult", "SimulatedEvolution", "run_se"),
        "repro.online": (
            "DynamicSimulator",
            "JobStream",
            "OnlineResult",
            "ReoptConfig",
            "poisson_stream",
        ),
        "repro.optim": (
            "SAConfig",
            "SearchResult",
            "SimulatedAnnealing",
            "TabuConfig",
            "TabuSearch",
            "run_sa",
            "run_tabu",
        ),
        "repro.model": (
            "TaskGraph",
            "Workload",
            "WorkloadClass",
            "paper_sample_workload",
        ),
        "repro.schedule": (
            "Schedule",
            "ScheduleString",
            "Simulator",
            "compute_metrics",
            "verify_schedule",
        ),
        "repro.workloads": ("WorkloadSpec", "build_workload"),
    },
    submodules=(
        "analysis",
        "baselines",
        "extensions",
        "io",
        "model",
        "online",
        "optim",
        "runner",
        "schedule",
        "workloads",
    ),
)
__all__ += ["__version__"]
