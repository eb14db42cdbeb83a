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
  :class:`~repro.schedule.backend.SimulatorBackend`-shaped wrapper the
  :class:`~repro.optim.evaluation.EvaluationService` installs for
  scenario objectives: every scalar an engine compares (``makespan``,
  delta scalars) is the *reduced risk statistic*, while
  ``evaluate`` / ``finish_times`` still report the nominal schedule
  (result assembly and SE's goodness phase run on nominal durations).
  The incremental tier is exact but unaccelerated: ``evaluate_delta``
  re-scores the full string over all scenarios and ignores the cutoff
  (a risk statistic has no per-position lower bound to prune on).

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
from repro.optim.objective import ScenarioObjective, _ScalarizedState
from repro.schedule.backend import DEFAULT_NETWORK, make_simulator
from repro.schedule.encoding import ScheduleString
from repro.schedule.valid_range import place_by_probes
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
        return self._loop(row_pairs(orders, machines))

    def _loop(self, rows: list) -> np.ndarray:
        """The ``(S, B)`` matrix of ``(order, machines)`` *rows*."""
        out = [
            [backend.makespan(o, m) for o, m in rows]
            for backend in self._backends
        ]
        return np.array(out, dtype=float).reshape(self.scenarios, len(rows))

    def string_matrix(self, strings: Sequence[ScheduleString]) -> np.ndarray:
        """:meth:`matrix` over :class:`ScheduleString` objects."""
        return self._loop([(s.order, s.machines) for s in strings])

    def samples(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> np.ndarray:
        """One schedule's ``(S,)`` scenario-makespan vector."""
        return self.matrix([list(order)], [list(machine_of)])[:, 0]

    def samples_string(self, string: ScheduleString) -> np.ndarray:
        """:meth:`samples` for a :class:`ScheduleString`."""
        return self.samples(string.order, string.machines)


class ScenarioBackend:
    """A backend whose every scalar is the reduced risk statistic.

    The scenario-objective twin of
    :class:`~repro.optim.objective.ObjectiveBackend`: built by the
    :class:`~repro.optim.evaluation.EvaluationService` when a scenario
    objective is configured, never by engines directly.  Engines
    compare scalars; here each scalar is ``objective.reduce`` over the
    schedule's scenario makespans.  ``evaluate`` / ``finish_times`` /
    the decoded schedules stay *nominal* — reported makespans in
    result assembly are real nominal makespans, and SE's goodness
    phase ranks subtasks by nominal finish times.  Batches skip this
    wrapper: the service reduces each column of the evaluator's
    ``(S, B)`` matrix with the same :meth:`ScenarioObjective.reduce`.
    """

    def __init__(
        self,
        nominal: Any,
        evaluator: ScenarioEvaluator,
        objective: ScenarioObjective,
    ):
        self._nominal = nominal
        self._evaluator = evaluator
        self._objective = objective

    # ------------------------------------------------------------------
    # identity / passthrough
    # ------------------------------------------------------------------

    @property
    def base(self) -> Any:
        """The wrapped nominal backend."""
        return self._nominal

    @property
    def objective(self) -> ScenarioObjective:
        return self._objective

    @property
    def evaluator(self) -> ScenarioEvaluator:
        return self._evaluator

    @property
    def workload(self):
        return self._nominal.workload

    def evaluate(self, string: ScheduleString) -> Any:
        """The nominal backend's full result (real schedule/makespan)."""
        return self._nominal.evaluate(string)

    def finish_times(self, string: ScheduleString) -> list[float]:
        return self._nominal.finish_times(string)

    # ------------------------------------------------------------------
    # reduced (risk) scoring
    # ------------------------------------------------------------------

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

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> _ScalarizedState:
        state = self._nominal.prepare(order, machine_of)
        return _ScalarizedState(state, self.makespan(order, machine_of))

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

    def place(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        task: int,
        candidates: Sequence[int],
        all_positions: bool = False,
    ) -> tuple[float, int, int, int]:
        """The probe loop of :func:`~repro.schedule.valid_range.
        place_by_probes` over this backend's :meth:`evaluate_delta`, so
        every probe is the risk scalar over all scenarios."""
        return place_by_probes(
            self, state, order, machine_of, task, candidates, all_positions
        )

    def score_moves(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        moves: Sequence,
        tabu: Sequence[bool],
        best_known: float,
    ) -> tuple[float, int, int]:
        """Tabu's selection loop of :func:`~repro.optim.tabu.
        score_by_deltas` over this backend's :meth:`evaluate_delta`, so
        every candidate is the risk scalar over all scenarios."""
        from repro.optim.tabu import score_by_deltas

        return score_by_deltas(
            self, state, order, machine_of, moves, tabu, best_known
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioBackend({self._objective.name}, "
            f"S={self._evaluator.scenarios})"
        )
