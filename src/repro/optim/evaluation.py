"""The evaluation service: one object owning backend selection and cost.

:class:`EvaluationService` is the only code that decides how a schedule
is scored:

* **backend selection** — the ``network`` name resolves through
  :func:`repro.schedule.backend.make_simulator` exactly once, so
  single, delta and batch scoring share one scalar backend;
* **batch scoring** — :meth:`batch_makespans` /
  :meth:`batch_string_makespans` loop the scalar backend (its compiled
  C walker wherever a compiler is), so a weighted objective and the
  Pareto offers apply per row exactly as on single calls; a scenario
  objective's wrapper scores a batch in one scenario-major sweep.
  :meth:`prepare` / :meth:`evaluate_delta` expose the incremental tier,
  and :meth:`score_moves` a tabu neighborhood, scored as the backend
  (or its objective wrapper) decides;
* **cost accounting** — every scoring call increments one
  ``evaluations`` counter (full evaluation = 1, prepare = 1, delta = 1,
  batch = one per schedule, a tabu neighborhood's :meth:`score_moves`
  = one per candidate — the same arithmetic the engines used to
  maintain by hand), read back for the per-iteration trace records.
  Calls an engine makes on :attr:`backend` directly are not counted,
  nor is a :meth:`snapshot`: tabu re-anchors on a candidate its
  :meth:`score_moves` call already counted, and the SE allocator
  reports its probes with :meth:`count`.

>>> from repro.workloads import small_workload
>>> svc = EvaluationService(small_workload(seed=1))
>>> svc.evaluations
0
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.model.workload import Workload
from repro.optim.objective import MAKESPAN, ObjectiveBackend
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    check_network,
    check_platform,
    make_simulator,
    plain_schedule,
    resolve_platform,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.schedule.simulator import Schedule


class EvaluationService:
    """Schedule-cost oracle for one ``(workload, network)`` pair.

    Parameters
    ----------
    workload:
        The MSHC problem instance.
    prefer_batch:
        Accepted and ignored; ROADMAP item 1 deletes it.
    initial_avail, initial_nic_free:
        Optional per-machine busy state the backend is constructed
        against (see :func:`repro.schedule.backend.make_simulator`) —
        the residual-schedule evaluation mode of the online service:
        engines handed such a service optimise a job's schedule *given*
        machines still occupied by earlier jobs.
    pareto:
        Optional :class:`~repro.optim.tracking.ParetoTracker`; every
        point scored through this service is offered to it, so a run
        accumulates the (makespan, cost) front as a side effect.
    network, platform, objective, scenarios, distribution, scenario_seed:
        The evaluation settings of :class:`EvaluationFields` (whose
        :meth:`~EvaluationFields.evaluation_service` builds services
        from an engine config).  A non-default platform builds the
        backend against its speed-scaled matrix, boot state and billing
        table (see :func:`~repro.schedule.backend.make_simulator`); a
        weighted objective wraps the backend in an
        :class:`~repro.optim.objective.ObjectiveBackend` and a scenario
        objective in a :class:`~repro.stochastic.scenarios.
        ScenarioBackend` (the same wrapper, scoring the objective's
        reduction over the sampled perturbations), so SE, GA, SA and
        tabu optimise them without engine changes.  The default
        ``"makespan"`` uses the raw backend, bit-identical.  Scenario
        objectives cannot combine with residual initial state, Pareto
        tracking, or platforms with boot delays (boot is initial state).
    """

    __slots__ = (
        "_backend",
        "_raw",
        "_workload",
        "_network",
        "_calls",
        "_platform",
        "_objective",
        "_pareto",
        "_cost_model",
        "_scenario",
    )

    def __init__(
        self,
        workload: Workload,
        network: str = DEFAULT_NETWORK,
        prefer_batch: bool = True,
        initial_avail: Optional[Sequence[float]] = None,
        initial_nic_free: Optional[Sequence[float]] = None,
        platform=DEFAULT_PLATFORM,
        objective="makespan",
        pareto=None,
        scenarios: int = 0,
        distribution="deterministic",
        scenario_seed: int = 0,
    ):
        self._workload = workload
        self._network = network
        self._platform = platform
        self._raw = make_simulator(
            workload,
            network,
            initial_avail=initial_avail,
            initial_nic_free=initial_nic_free,
            platform=platform,
        )
        self._objective, dist_spec = scenario_settings(
            objective, scenarios, distribution
        )
        self._pareto = pareto
        self._cost_model = self._raw.cost_model
        self._scenario = None
        if self._objective.is_scenario:
            if pareto is not None:
                raise ValueError(
                    "Pareto tracking is not supported with scenario "
                    "objectives (risk objectives are makespan-only)"
                )
            if initial_avail is not None or initial_nic_free is not None:
                raise ValueError(
                    "scenario objectives do not support residual "
                    "(initial-state) evaluation"
                )
            if resolve_platform(platform).has_boot:
                raise ValueError(
                    f"platform {self.platform!r} has boot delays (initial "
                    "state), which scenario objectives do not support"
                )
            from repro.stochastic import ScenarioBackend, ScenarioEvaluator
            from repro.stochastic.distributions import sample_scenarios

            self._scenario = ScenarioEvaluator(
                sample_scenarios(
                    self.effective_workload,
                    dist_spec,
                    scenarios,
                    seed=scenario_seed,
                ),
                network=network,
            )
            self._backend = ScenarioBackend(
                self._raw, self._scenario, self._objective
            )
        elif self._objective.is_makespan and pareto is None:
            # the default: the unwrapped backend, bit-identical
            self._backend = self._raw
        else:
            if self._cost_model is None:
                self._cost_model = CostModel.zero(
                    self.effective_workload.exec_times.values
                )
            self._backend = ObjectiveBackend(
                self._raw, self._objective, self._cost_model, pareto
            )
        self._calls = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def network(self) -> str:
        return self._network

    @property
    def platform(self) -> str:
        """Canonical name of the platform this service evaluates under."""
        if self._platform == DEFAULT_PLATFORM:
            return DEFAULT_PLATFORM
        return resolve_platform(self._platform).name

    @property
    def objective(self) -> Any:
        """The resolved objective (``MAKESPAN`` unless configured)."""
        return self._objective

    @property
    def pareto(self) -> Any:
        """The attached :class:`ParetoTracker`, or ``None``."""
        return self._pareto

    @property
    def scenario_evaluator(self) -> Any:
        """The :class:`~repro.stochastic.scenarios.ScenarioEvaluator`
        behind a scenario objective, or ``None`` (the default)."""
        return self._scenario

    @property
    def scenarios(self) -> int:
        """Scenario count ``S`` of a scenario objective (0 otherwise)."""
        return 0 if self._scenario is None else self._scenario.scenarios

    @property
    def effective_workload(self) -> Workload:
        """The workload the backend actually evaluates — the platform's
        speed-scaled matrix, or the original object on ``"uniform"``.
        Heuristic phases (SE goodness, allocator candidate ranking)
        read this so their decisions see the same machine model their
        schedules are scored under."""
        return self._raw.workload

    @property
    def cost_model(self) -> Any:
        """The platform billing table (``None`` on the uniform platform
        with the default objective)."""
        return self._cost_model

    @property
    def backend(self) -> Any:
        """The underlying backend (for components like the SE allocator
        that take a :class:`~repro.schedule.backend.SimulatorBackend`)."""
        return self._backend

    @property
    def raw_backend(self) -> Any:
        """The scalar backend under any objective wrapper: the real
        makespan, no Pareto offers (SE reads its optimistic finish
        times from it)."""
        return self._raw

    @property
    def kernel_tier(self) -> str:
        """Always ``"sequential"``; ROADMAP item 1 deletes it."""
        return "sequential"

    @property
    def walker_tier(self) -> str:
        """The scalar walker serving every call, batches included:
        ``compiled`` (the C extension of :mod:`repro.schedule.walker`)
        or ``python``."""
        return self._raw.walker_tier

    @property
    def walker_reason(self) -> Optional[str]:
        """Why the Python walker serves (``None`` on the compiled tier):
        ``REPRO_WALKER=python``, no compiler, or the failed compile."""
        return self._raw.walker_reason

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    @property
    def evaluations(self) -> int:
        """Simulator calls made through (or reported to) this service."""
        return self._calls

    def count(self, calls: int) -> None:
        """Fold in calls a collaborator made on :attr:`backend` directly
        (e.g. the SE allocator's probe trials)."""
        self._calls += calls

    # ------------------------------------------------------------------
    # single-schedule tier
    # ------------------------------------------------------------------

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        self._calls += 1
        return self._backend.makespan(order, machine_of)

    def string_makespan(self, string: ScheduleString) -> float:
        self._calls += 1
        return self._backend.string_makespan(string)

    def evaluate(self, string: ScheduleString) -> Any:
        """Full evaluation (counted); returns the backend's result."""
        self._calls += 1
        return self._backend.evaluate(string)

    def schedule_of(self, string: ScheduleString) -> Schedule:
        """The plain :class:`Schedule` of *string* — **not** counted.

        Result assembly (re-evaluating the best string once at the end
        of a run) was never part of any engine's ``evaluations``
        accounting; this keeps it that way.  Always the *real* schedule
        (true makespan), whatever the objective.
        """
        return plain_schedule(self._raw.evaluate(string))

    def schedule_source(self) -> Callable[[ScheduleString], Schedule]:
        """:meth:`schedule_of` as a handle that keeps only what rebuilds
        the raw backend (its pickled state: the workload and initial
        machine state, not the backend's tables), so a run's result can
        hold it instead of an evaluated schedule."""
        return partial(
            _rebuilt_schedule, type(self._raw), self._raw.__getstate__()
        )

    def reported_makespan(self, string: ScheduleString, cost: float) -> float:
        """The makespan to report for a run's best *string* of *cost*.

        *cost* itself under the makespan objective; under a weighted or
        scenario objective *cost* is the scalar the engine compared, so
        the string's real makespan is reported.  Not counted, like
        :meth:`schedule_of`.
        """
        if self._objective.is_makespan:
            return cost
        return self._raw.string_makespan(string)

    def score_of(self, string: ScheduleString) -> ScheduleScore:
        """The ``(makespan, cost, busy)`` score of *string* — **not**
        counted, like :meth:`schedule_of`; real makespan, real dollars,
        whatever the objective."""
        return self._raw.string_score(string)

    def scalarize(self, makespan: float, cost: float) -> float:
        """The configured objective's scalar for one scored point."""
        return self._objective.scalarize(makespan, cost)

    # ------------------------------------------------------------------
    # incremental (delta) tier
    # ------------------------------------------------------------------

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> Any:
        """Snapshot *order*/*machine_of* for suffix-only re-evaluation
        (costs — and counts as — one full evaluation)."""
        self._calls += 1
        return self._backend.prepare(order, machine_of)

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float:
        self._calls += 1
        return self._backend.evaluate_delta(
            order, machine_of, first_changed, state, cutoff, region_end
        )

    def score_moves(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        moves: Sequence[Any],
        tabu: Sequence[bool],
        best_known: float,
    ) -> tuple[float, int, int]:
        """Tabu's ``(cost, index, admissible)`` pick among *moves* of
        the string *state* was prepared from (see the backends'
        ``score_moves``); counts one evaluation per move, the deltas it
        stands for."""
        self._calls += len(moves)
        return self._backend.score_moves(
            state, order, machine_of, moves, tabu, best_known
        )

    def snapshot(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> Any:
        """The raw backend's ``prepare`` — **not** counted, offered to
        no tracker: the state tabu scores a neighborhood against, taken
        of a candidate :meth:`score_moves` already counted."""
        return self._raw.prepare(order, machine_of)

    def draw_moves(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        rng: Any,
        count: int,
        reassign_prob: float = 0.5,
        avoid_noop: bool = False,
    ) -> list[Any]:
        """The raw backend's ``draw_moves`` — **not** counted: *count*
        random moves against *order* / *machine_of*, which read only the
        graph (tabu's neighborhood, an SA proposal)."""
        return self._raw.draw_moves(
            order, machine_of, rng, count, reassign_prob, avoid_noop
        )

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def batch_makespans(self, orders: Any, machines: Any) -> list[float]:
        """One scalar per ``(orders[i], machines[i])`` schedule: a loop
        of the scalar backend, which validates every row (a scenario
        objective's one scenario-major sweep)."""
        rows = row_pairs(orders, machines)
        if self._scenario is not None:
            costs = self._backend.makespans(rows)
        else:
            makespan = self._backend.makespan
            costs = [makespan(o, m) for o, m in rows]
        self._calls += len(costs)
        return costs

    def batch_string_makespans(
        self, strings: Sequence[ScheduleString]
    ) -> list[float]:
        """:meth:`batch_makespans` over :class:`ScheduleString` objects."""
        if self._scenario is not None:
            costs = self._backend.string_makespans(strings)
        else:
            costs = [self._backend.string_makespan(s) for s in strings]
        self._calls += len(costs)
        return costs


def scenario_settings(objective, scenarios: int, distribution) -> tuple:
    """:func:`~repro.stochastic.distributions.validate_scenario_settings`
    (``(objective, distribution spec)``, or ``ValueError``), with the
    deterministic default (``"makespan"``, no scenarios,
    ``"deterministic"``) answered as ``(MAKESPAN, None)`` without
    loading :mod:`repro.stochastic`: a deterministic run never samples.
    """
    if (
        objective == "makespan"
        and scenarios == 0
        and distribution == "deterministic"
    ):
        return MAKESPAN, None
    from repro.stochastic.distributions import validate_scenario_settings

    return validate_scenario_settings(objective, scenarios, distribution)


def _rebuilt_schedule(
    backend_cls: type, state: tuple, string: ScheduleString
) -> Schedule:
    """*string*'s schedule on a ``backend_cls`` rebuilt from *state*."""
    return plain_schedule(backend_cls(*state).evaluate(string))


def row_pairs(orders: Any, machines: Any) -> list:
    """The ``(order, machines)`` rows of a batch for a scalar walker.

    A NumPy matrix becomes lists of Python ints, the rows a scalar
    walker reads fastest; other sequences pass as given.  Raises
    ``ValueError`` when the row counts differ.
    """
    if isinstance(orders, np.ndarray):
        orders = orders.tolist()
    if isinstance(machines, np.ndarray):
        machines = machines.tolist()
    if len(orders) != len(machines):
        raise ValueError(
            f"orders has {len(orders)} rows but machines has {len(machines)}"
        )
    return list(zip(orders, machines))


@dataclass(kw_only=True)
class EvaluationFields:
    """The evaluation settings every engine config shares.

    :class:`~repro.core.config.SEConfig`, :class:`~repro.baselines.ga.
    config.GAConfig`, :class:`~repro.optim.annealing.SAConfig`,
    :class:`~repro.optim.tabu.TabuConfig` and random search's config
    inherit these six keyword-only fields, so ``SEConfig(network="nic")``
    and ``cfg.network`` work on every engine and
    :func:`dataclasses.fields` lists them with the engine's own.

    Attributes
    ----------
    network:
        Simulator backend the run optimises against: ``"contention-free"``
        (the paper's model, default) or ``"nic"`` (one outgoing link per
        machine; see :mod:`repro.extensions.contention`).  Checked
        against :func:`repro.schedule.backend.available_networks` (case
        does not matter) when the config is built.
    platform:
        Platform (machine catalog) name the run is costed against; the
        default ``"uniform"`` reproduces the historical behaviour bit
        for bit (see :mod:`repro.model.platform`).
    objective:
        ``"makespan"`` (default), ``"weighted:<w_m>:<w_c>"``, or a
        scenario (risk) objective ``mean`` / ``quantile:<q>`` /
        ``cvar:<q>`` / ``saa:<T>:<eps>`` — the scalar the engine
        compares (see :mod:`repro.optim.objective`).
    scenarios, distribution, scenario_seed:
        Monte-Carlo axis of the scenario objectives: sample
        ``scenarios`` perturbations of the matrices from
        ``distribution`` (``"lognormal:0.25"``, ``"uniform:0.2"``,
        ``"empirical:1,1,1,4"``, ...) under ``scenario_seed`` and
        optimise the objective's reduction over them (see
        :mod:`repro.stochastic`).  Only valid together with a scenario
        objective.
    """

    network: str = DEFAULT_NETWORK
    platform: str = DEFAULT_PLATFORM
    objective: str = "makespan"
    scenarios: int = 0
    distribution: str = "deterministic"
    scenario_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.network, str) or not self.network:
            raise ValueError(
                f"network must be a backend name string, got {self.network!r}"
            )
        check_network(self.network)
        check_platform(self.platform)
        scenario_settings(self.objective, self.scenarios, self.distribution)

    def evaluation_service(
        self, workload: Workload, **extra: Any
    ) -> EvaluationService:
        """The :class:`EvaluationService` scoring *workload* under these
        settings; *extra* passes through (``pareto=``, initial state)."""
        return EvaluationService(
            workload,
            self.network,
            platform=self.platform,
            objective=self.objective,
            scenarios=self.scenarios,
            distribution=self.distribution,
            scenario_seed=self.scenario_seed,
            **extra,
        )
