"""Scenario scoring: B schedules × S scenarios over the scalar walker.

A risk objective needs the makespan of every candidate schedule under
every sampled scenario.  Scenario ``s`` gets one scalar backend built
from its matrices, so the full ``(S, B)`` matrix is an ``S × B`` loop of
``makespan`` calls — no new walk code, and both network models
(``"contention-free"`` and ``"nic"``) come for free.

Two classes:

* :class:`ScenarioEvaluator` — owns the per-scenario backends and
  produces scenario-makespan vectors/matrices;
* :class:`ScenarioBackend` — the
  :class:`~repro.optim.objective.ObjectiveBackend` the
  :class:`~repro.optim.evaluation.EvaluationService` installs for
  scenario objectives: every scalar an engine compares (``makespan``,
  delta scalars) is the *reduced risk statistic*, while
  ``evaluate`` / ``finish_times`` still report the nominal schedule
  (result assembly and SE's goodness phase run on nominal durations).
  The incremental tier is exact but unaccelerated: ``evaluate_delta``
  re-scores the full string over all scenarios and ignores the cutoff
  (a risk statistic has no per-position lower bound to prune on), so
  batches and tabu neighborhoods are scored in one scenario-major
  sweep instead (:meth:`ScenarioBackend.makespans`).

>>> from repro.optim.objective import resolve_objective
>>> from repro.schedule.operations import random_valid_string
>>> from repro.stochastic.distributions import sample_scenarios
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=3)
>>> ev = ScenarioEvaluator(sample_scenarios(w, "uniform:0.3", 16, seed=5))
>>> s = random_valid_string(w.graph, w.num_machines, 0)
>>> ev.string_matrix([s]).shape  # (S, B)
(16, 1)
>>> p95 = resolve_objective("quantile:0.95")
>>> p95.reduce(ev.samples_string(s)) >= float(ev.samples_string(s).mean())
True
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.optim.evaluation import row_pairs
from repro.optim.objective import ObjectiveBackend, ScenarioObjective
from repro.schedule.backend import DEFAULT_NETWORK, make_simulator
from repro.schedule.encoding import ScheduleString
from repro.stochastic.distributions import ScenarioSet

__all__ = ["ScenarioEvaluator", "ScenarioBackend"]

_INF = float("inf")


class ScenarioEvaluator:
    """Scores schedule batches under every scenario of a
    :class:`~repro.stochastic.distributions.ScenarioSet`.

    Parameters
    ----------
    scenario_set:
        The sampled scenarios (see :func:`~repro.stochastic.
        distributions.sample_scenarios`).
    network:
        Simulator-backend name; scenario walks run under this network
        model, exactly like deterministic scoring.
    """

    __slots__ = ("_set", "_network", "_backends")

    def __init__(
        self, scenario_set: ScenarioSet, network: str = DEFAULT_NETWORK
    ):
        self._set = scenario_set
        self._network = network
        self._backends = [
            make_simulator(scenario_set.workload_for(s), network)
            for s in range(scenario_set.scenarios)
        ]

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def scenario_set(self) -> ScenarioSet:
        return self._set

    @property
    def scenarios(self) -> int:
        """The scenario count ``S``."""
        return self._set.scenarios

    @property
    def network(self) -> str:
        return self._network

    @property
    def workload(self):
        """The *nominal* workload the scenarios perturb."""
        return self._set.workload

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def matrix(self, orders: Any, machines: Any) -> np.ndarray:
        """The ``(S, B)`` scenario-makespan matrix of a batch.

        Row ``s`` holds every schedule's makespan under scenario ``s``
        — bit-identical to scoring the batch against a simulator built
        from that scenario's matrices.  The rows are converted once and
        read by every scenario.
        """
        return self.row_matrix(row_pairs(orders, machines))

    def row_matrix(self, rows: Sequence) -> np.ndarray:
        """The ``(S, B)`` matrix of ``(order, machines)`` *rows*,
        scenario-major: each scenario scores every row in turn."""
        out = [
            [backend.makespan(o, m) for o, m in rows]
            for backend in self._backends
        ]
        return np.array(out, dtype=float).reshape(self.scenarios, len(rows))

    def string_matrix(self, strings: Sequence[ScheduleString]) -> np.ndarray:
        """:meth:`matrix` over :class:`ScheduleString` objects."""
        return self.row_matrix([(s.order, s.machines) for s in strings])

    def samples(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> np.ndarray:
        """One schedule's ``(S,)`` scenario-makespan vector."""
        return self.matrix([list(order)], [list(machine_of)])[:, 0]

    def samples_string(self, string: ScheduleString) -> np.ndarray:
        """:meth:`samples` for a :class:`ScheduleString`."""
        return self.samples(string.order, string.machines)


class ScenarioBackend(ObjectiveBackend):
    """A backend whose every scalar is the reduced risk statistic.

    The :class:`~repro.optim.objective.ObjectiveBackend` of a scenario
    objective: built by the :class:`~repro.optim.evaluation.
    EvaluationService` when one is configured, never by engines
    directly.  Engines compare scalars; here each scalar is
    ``objective.reduce`` over the schedule's scenario makespans, and
    that reduction is all this class replaces.  ``evaluate`` /
    ``finish_times`` / the decoded schedules stay *nominal* — reported
    makespans in result assembly are real nominal makespans, and SE's
    goodness phase ranks subtasks by nominal finish times.  A risk
    objective is makespan-only: no cost model, no Pareto tracker.
    """

    def __init__(
        self,
        nominal: Any,
        evaluator: ScenarioEvaluator,
        objective: ScenarioObjective,
    ):
        super().__init__(nominal, objective, None)
        self._evaluator = evaluator

    # ------------------------------------------------------------------
    # reduced (risk) scoring
    # ------------------------------------------------------------------

    def _scalar(self, span, order, machine_of, candidate) -> float:
        """The reduction; the nominal *span* plays no part."""
        return self.makespan(order, machine_of)

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        return self._objective.reduce(
            self._evaluator.samples(order, machine_of)
        )

    def string_makespan(self, string: ScheduleString) -> float:
        return self._objective.reduce(
            self._evaluator.samples_string(string)
        )

    def makespans(self, rows: Sequence) -> list[float]:
        """The risk scalar of each ``(order, machine_of)`` row, in one
        scenario-major sweep.

        Each scenario's backend scores the whole batch before the next
        one starts (:meth:`ScenarioEvaluator.row_matrix`), so its tables
        stay in cache; each column of the ``(S, B)`` matrix is reduced by
        the same ``reduce`` call a single schedule gets, so a batch and
        single calls are ``==``.
        """
        reduce = self._objective.reduce
        return [reduce(col) for col in self._evaluator.row_matrix(rows).T]

    def string_makespans(
        self, strings: Sequence[ScheduleString]
    ) -> list[float]:
        """:meth:`makespans` over :class:`ScheduleString` objects."""
        return self.makespans([(s.order, s.machines) for s in strings])

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = _INF,
        region_end: Optional[int] = None,
    ) -> float:
        """The candidate's risk scalar (full scenario re-evaluation).

        A risk statistic over scenarios admits no incremental
        suffix-only shortcut (every scenario's walk differs), so this
        scores the whole string and ignores *cutoff* — exact, never a
        spurious ``inf``, just without branch-and-bound savings.
        """
        return self.makespan(order, machine_of)

    def score_moves(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        moves: Sequence,
        tabu: Sequence[bool],
        best_known: float,
    ) -> tuple[float, int, int]:
        """Tabu's pick among *moves*: the candidates scored in one
        scenario-major sweep (:meth:`~repro.optim.objective.
        ObjectiveBackend.score_applied`), since a delta here would
        re-score every scenario without pruning.  *state* is unused."""
        return self.score_applied(order, machine_of, moves, tabu, best_known)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioBackend({self._objective.name}, "
            f"S={self._evaluator.scenarios})"
        )
