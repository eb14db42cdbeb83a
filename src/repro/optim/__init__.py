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
* :mod:`~repro.optim.neighborhood` — the pairwise-move neighborhood
  (reorder / reassign) as first-class :class:`~repro.optim.
  neighborhood.Move` data;
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

from repro.optim.annealing import SAConfig, SimulatedAnnealing, run_sa
from repro.optim.evaluation import EvaluationFields, EvaluationService
from repro.optim.exchange import Incumbent, IncumbentSource
from repro.optim.loop import LoopOutcome, SearchLoop, StepOutcome
from repro.optim.neighborhood import (
    Move,
    applied_copy,
    apply_move,
    changed_region,
    inverse_move,
    random_move,
)
from repro.optim.objective import (
    MAKESPAN,
    MakespanObjective,
    ObjectiveBackend,
    WeightedObjective,
    resolve_objective,
    weighted,
)
from repro.optim.observers import Observer, ObserverBus
from repro.optim.result import SearchResult
from repro.optim.stop import (
    STOP_ITERATIONS,
    STOP_STALL,
    STOP_TIME,
    StopPolicy,
)
from repro.optim.tabu import TabuConfig, TabuSearch, run_tabu
from repro.optim.tracking import (
    BestTracker,
    ParetoPoint,
    ParetoTracker,
    TrajectoryRecorder,
)

__all__ = [
    "MAKESPAN",
    "STOP_ITERATIONS",
    "STOP_STALL",
    "STOP_TIME",
    "BestTracker",
    "EvaluationFields",
    "EvaluationService",
    "Incumbent",
    "IncumbentSource",
    "MakespanObjective",
    "ObjectiveBackend",
    "ParetoPoint",
    "ParetoTracker",
    "WeightedObjective",
    "LoopOutcome",
    "Move",
    "Observer",
    "ObserverBus",
    "SAConfig",
    "SearchLoop",
    "SearchResult",
    "SimulatedAnnealing",
    "StepOutcome",
    "StopPolicy",
    "TabuConfig",
    "TabuSearch",
    "TrajectoryRecorder",
    "applied_copy",
    "apply_move",
    "changed_region",
    "inverse_move",
    "random_move",
    "resolve_objective",
    "run_sa",
    "run_tabu",
    "weighted",
]
