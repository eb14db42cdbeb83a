"""The evaluation service: one object owning backend selection and cost.

:class:`EvaluationService` is the only code that decides how a schedule
is scored:

* **backend selection** — the ``network`` name resolves through
  :func:`repro.schedule.backend.make_simulator` exactly once, so
  single, delta and batch scoring share one scalar backend;
* **batch routing** — :meth:`batch_makespans` /
  :meth:`batch_string_makespans` run the network's compiled kernel (the
  ``jit`` tier, see :func:`repro.schedule.backend.batch_kernel_factory`)
  when numba imports, ``prefer_batch`` is set and the backend starts
  from idle machines, and loop the scalar backend otherwise (the
  ``sequential`` tier, on the compiled C walker wherever a compiler
  is); a weighted objective's cost column, a scenario objective's
  reduction and the Pareto offers are applied here, once per batch.
  :meth:`prepare` / :meth:`evaluate_delta` expose the incremental tier;
  engines never touch kernel classes directly;
* **cost accounting** — every scoring call increments one
  ``evaluations`` counter (full evaluation = 1, prepare = 1, delta = 1,
  batch = one per schedule — the same arithmetic the engines used to
  maintain by hand), read back for the per-iteration trace records.
  Calls an engine makes on :attr:`backend` directly are not counted:
  tabu re-anchors its delta snapshot that way on a candidate a delta
  call already counted, and the SE allocator reports its probes with
  :meth:`count`.

>>> from repro.workloads import small_workload
>>> svc = EvaluationService(small_workload(seed=1))
>>> svc.kernel_tier in ("jit", "sequential")
True
>>> svc.evaluations
0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.model.workload import Workload
from repro.optim.objective import ObjectiveBackend
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    batch_kernel_factory,
    check_network,
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
        Whether to build the network's batch kernel (and its workload
        pack) on the ``jit`` tier.  When False the batch methods still
        *work* but loop the scalar backend, and :attr:`kernel_tier`
        reports ``sequential``.  Engines that never batch-score pass
        False so they skip the kernel's construction cost: SA, and SE,
        whose allocator scores every probe with a cutoff-pruned
        :meth:`evaluate_delta`.  GA, random search and tabu keep it
        True; tabu picks its route from :attr:`prefers_delta`, so the
        service, not a config field, decides how a candidate set is
        scored.
    initial_avail, initial_nic_free:
        Optional per-machine busy state the backend is constructed
        against (see :func:`repro.schedule.backend.make_simulator`) —
        the residual-schedule evaluation mode of the online service:
        engines handed such a service optimise a job's schedule *given*
        machines still occupied by earlier jobs.  Batch calls loop the
        scalar backend in this mode (the kernels pack idle machines).
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
        ScenarioBackend` scoring the objective's reduction over the
        sampled perturbations (batches skip both wrappers: the batch
        methods apply the objective to whole columns), so SE, GA, SA
        and tabu optimise them without engine changes.  The default
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
        "_kernel",
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
        from repro.stochastic.distributions import validate_scenario_settings

        self._objective, dist_spec = validate_scenario_settings(
            objective, scenarios, distribution
        )
        self._pareto = pareto
        self._cost_model = self._raw.cost_model
        self._scenario = None
        self._kernel = None
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
                prefer_batch=prefer_batch,
            )
            self._backend = ScenarioBackend(
                self._raw, self._scenario, self._objective
            )
        else:
            # the kernels pack idle machines, so residual state and boot
            # delays (initial state too) keep batches on the scalar loop
            if (
                prefer_batch
                and initial_avail is None
                and initial_nic_free is None
                and not resolve_platform(platform)
                .bind(workload.num_machines)
                .has_boot
            ):
                factory = batch_kernel_factory(network)
                if factory is not None:
                    self._kernel = factory(self.effective_workload)
            if self._objective.is_makespan and pareto is None:
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
    def kernel_tier(self) -> str:
        """The active batch tier: ``jit`` or ``sequential``.

        ``jit`` means batch calls run the network's compiled (numba)
        kernel; ``sequential`` the scalar loop (numba absent,
        ``prefer_batch=False``, a busy-state backend, or a network
        without a kernel).  Under a scenario objective it is the tier
        of the per-scenario scoring.
        """
        if self._scenario is not None:
            return self._scenario.kernel_tier
        if self._kernel is None:
            return "sequential"
        return self._kernel.kernel_tier

    @property
    def walker_tier(self) -> str:
        """The scalar walker serving single, prepare and delta calls:
        ``compiled`` (the C extension of :mod:`repro.schedule.walker`)
        or ``python``."""
        return self._raw.walker_tier

    @property
    def walker_reason(self) -> Optional[str]:
        """Why the Python walker serves (``None`` on the compiled tier):
        ``REPRO_WALKER=python``, no compiler, or the failed compile."""
        return self._raw.walker_reason

    @property
    def prefers_delta(self) -> bool:
        """True when a neighbourhood of candidates is cheaper to score
        one cutoff-pruned :meth:`evaluate_delta` at a time than in one
        batch call.

        False for a scenario objective (its delta re-scores all ``S``
        scenarios without pruning, so one ``B x S`` sweep wins), with a
        Pareto tracker attached (it must see every candidate, and a
        pruned delta offers nothing), and on the ``jit`` tier, whose
        compiled kernels keep the batch route.
        """
        return (
            self._scenario is None
            and self._pareto is None
            and self.kernel_tier != "jit"
        )

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

    def best_of(
        self, string: ScheduleString, cost: float
    ) -> tuple[Schedule, float]:
        """A run's best *string* as ``(schedule, makespan to report)``.

        Under a weighted or scenario objective *cost* is the scalar the
        engine compared, so the schedule's real makespan is reported in
        that mode.  Not counted, like :meth:`schedule_of`.
        """
        schedule = self.schedule_of(string)
        if self._objective.is_makespan:
            return schedule, cost
        return schedule, schedule.makespan

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

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def batch_makespans(
        self, orders: Any, machines: Any, validate: bool = True
    ) -> list[float]:
        """One scalar per ``(orders[i], machines[i])`` schedule.

        Routed through the network's batch kernel when one serves this
        service (see :attr:`kernel_tier`), a scalar loop otherwise —
        bit-identical either way.
        """
        if self._scenario is not None:
            costs = self._objective.reduce_matrix(
                self._scenario.matrix(orders, machines, validate=validate)
            ).tolist()
        elif self._kernel is None:
            makespan = self._backend.makespan
            costs = [makespan(o, m) for o, m in row_pairs(orders, machines)]
        else:
            costs = self._scalarized(
                self._kernel.makespans(orders, machines, validate=validate),
                machines,
                zip(orders, machines),
            )
        self._calls += len(costs)
        return costs

    def batch_string_makespans(
        self, strings: Sequence[ScheduleString], validate: bool = True
    ) -> list[float]:
        """:meth:`batch_makespans` over :class:`ScheduleString` objects."""
        if self._scenario is not None:
            costs = self._objective.reduce_matrix(
                self._scenario.string_matrix(strings, validate=validate)
            ).tolist()
        elif self._kernel is None:
            costs = [self._backend.string_makespan(s) for s in strings]
        else:
            costs = self._scalarized(
                self._kernel.string_makespans(strings, validate=validate),
                [s.machines for s in strings],
                strings,
            )
        self._calls += len(costs)
        return costs

    def _scalarized(
        self, spans: np.ndarray, machines: Any, candidates: Iterable
    ) -> list[float]:
        """The objective's scalars for a kernel's makespan column.

        The default objective takes the column as it is.  Otherwise the
        cost column is one gather into the billing table, every point
        is offered to the Pareto tracker, and the objective scalarizes
        both columns at once.
        """
        if self._backend is self._raw or not len(spans):
            return spans.tolist()
        costs = self._cost_model.batch_costs(
            np.asarray(machines, dtype=np.intp)
        )
        if self._pareto is not None:
            for span, cost, candidate in zip(
                spans.tolist(), costs.tolist(), candidates
            ):
                self._pareto.offer(span, cost, candidate)
        return self._objective.scalarize_arrays(spans, costs).tolist()


def row_pairs(orders: Any, machines: Any) -> list:
    """The ``(order, machines)`` rows of a batch for a scalar walker.

    A NumPy matrix becomes lists of Python ints, the rows a scalar
    walker reads fastest; other sequences pass as given.  Raises the
    batch kernel's ``ValueError`` when the row counts differ.
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
        from repro.stochastic.distributions import validate_scenario_settings

        if not isinstance(self.network, str) or not self.network:
            raise ValueError(
                f"network must be a backend name string, got {self.network!r}"
            )
        check_network(self.network)
        resolve_platform(self.platform)
        validate_scenario_settings(
            self.objective, self.scenarios, self.distribution
        )

    def evaluation_service(
        self, workload: Workload, prefer_batch: bool = True, **extra: Any
    ) -> EvaluationService:
        """The :class:`EvaluationService` scoring *workload* under these
        settings; *extra* passes through (``pareto=``, initial state)."""
        return EvaluationService(
            workload,
            self.network,
            prefer_batch=prefer_batch,
            platform=self.platform,
            objective=self.objective,
            scenarios=self.scenarios,
            distribution=self.distribution,
            scenario_seed=self.scenario_seed,
            **extra,
        )
