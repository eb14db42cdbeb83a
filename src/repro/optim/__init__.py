"""The unified metaheuristic search core.

Every iterative schedule optimiser in the library is the same machine
with different internals: evaluate candidates against a simulator
backend, keep the best solution, record a convergence trace, notify
observers, stop on an iteration/time/stall rule.  This package owns
that machine once:

* :class:`~repro.optim.stop.StopPolicy` — the three stopping rules and
  their canonical reason strings (``"iterations"`` / ``"time"`` /
  ``"stall"``), shared verbatim by SE, the GA, SA and tabu;
* :class:`~repro.optim.tracking.BestTracker` /
  :class:`~repro.optim.tracking.TrajectoryRecorder` — strict-improvement
  best tracking and :class:`~repro.analysis.trace.IterationRecord`
  emission;
* :class:`~repro.optim.observers.ObserverBus` — the per-iteration
  callback fan-out (the historical SE observer protocol, now on every
  engine);
* :class:`~repro.optim.evaluation.EvaluationService` — backend
  selection plus transparent single / incremental-delta / batch scoring
  with built-in ``evaluations`` accounting; the ``platform`` /
  ``objective`` / ``pareto`` parameters route cost-aware bi-objective
  search (:mod:`repro.optim.objective`) through every engine without
  engine changes;
* :class:`~repro.optim.tracking.ParetoTracker` — the non-dominated
  (makespan, cost) front next to the scalar :class:`BestTracker`;
* :class:`~repro.optim.loop.SearchLoop` — the driver tying the above
  together around an engine-supplied ``step`` callback;
* the pairwise-move neighborhood (reorder / reassign) as first-class
  :class:`~repro.schedule.neighborhood.Move` data, defined in the
  schedule layer next to the backends whose ``score_moves`` it
  specifies;
* two engines built *directly* on the core —
  :class:`~repro.optim.annealing.SimulatedAnnealing` (geometric
  cooling) and :class:`~repro.optim.tabu.TabuSearch` (move-attribute
  tabu list with aspiration) — each essentially a ~60-line ``step``
  closure plus an acceptance rule.

The SE engine (:mod:`repro.core.engine`), the GA baseline
(:mod:`repro.baselines.ga.engine`) and random search run on the same
components, bit-identically to their pre-refactor behaviour
(``tests/test_golden_engines.py``).
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.optim.annealing": ("SAConfig", "SimulatedAnnealing", "run_sa"),
        "repro.optim.evaluation": ("EvaluationFields", "EvaluationService"),
        "repro.optim.exchange": ("Incumbent", "IncumbentSource"),
        "repro.optim.loop": ("LoopOutcome", "SearchLoop", "StepOutcome"),
        "repro.optim.objective": (
            "MAKESPAN",
            "MakespanObjective",
            "ObjectiveBackend",
            "WeightedObjective",
            "resolve_objective",
            "weighted",
        ),
        "repro.optim.observers": ("Observer", "ObserverBus"),
        "repro.optim.result": ("SearchResult",),
        "repro.optim.stop": (
            "STOP_ITERATIONS",
            "STOP_STALL",
            "STOP_TIME",
            "StopPolicy",
        ),
        "repro.optim.tabu": ("TabuConfig", "TabuSearch", "run_tabu"),
        "repro.optim.tracking": (
            "BestTracker",
            "ParetoPoint",
            "ParetoTracker",
            "TrajectoryRecorder",
        ),
        "repro.schedule.neighborhood": (
            "Move",
            "applied_copy",
            "apply_move",
            "changed_region",
            "inverse_move",
            "random_move",
        ),
    },
)
