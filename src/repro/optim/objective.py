"""Bi-objective scalarization: optimise (makespan, cost) with any engine.

Every engine in this repo — SE, GA, SA, tabu, random — optimises one
scalar it reads back from the :class:`~repro.optim.evaluation.
EvaluationService`.  That is the whole trick of this module: instead of
teaching each engine about dollar cost, the service wraps its backend
in an :class:`ObjectiveBackend` whose every scalar *is already the
scalarized objective* ``w_m * makespan + w_c * cost``.  The engines'
comparisons, cutoffs, tabu aspiration and annealing acceptance then
optimise cost-aware without a single engine change.

* :func:`weighted` — the weighted-sum objective ``weighted(w_m, w_c)``;
* :data:`MAKESPAN` — the identity objective (scalar == makespan, bit
  for bit; the default everywhere, so golden results cannot move);
* :class:`ScenarioObjective` — the *risk* objectives over Monte-Carlo
  scenario makespans (``mean`` / ``quantile:q`` / ``cvar:q`` /
  ``saa:T:eps``; see :mod:`repro.stochastic` and
  ``docs/risk_aware.md``).  They carry only the *reduction* — sampling
  and scenario scoring live in
  :class:`~repro.stochastic.scenarios.ScenarioEvaluator`, and the
  service routes through a
  :class:`~repro.stochastic.scenarios.ScenarioBackend`, the
  :class:`ObjectiveBackend` below with the reduction as its scalar;
* :func:`resolve_objective` — parses the JSON/CLI-safe string forms
  ``"makespan"``, ``"weighted:<w_m>:<w_c>"``, ``"mean"``,
  ``"quantile:<q>"``, ``"cvar:<q>"`` and ``"saa:<T>:<eps>"``;
* :class:`ObjectiveBackend` — the
  :class:`~repro.schedule.backend.SimulatorBackend` wrapper.  It keeps
  the delta tier's branch-and-bound exact by transforming the caller's
  scalarized cutoff into a *span* cutoff (cost is known before the
  walk, since billing is per-task).  When a :class:`~repro.optim.
  tracking.ParetoTracker` is attached, every scored point is offered to
  it — one weighted run accumulates a whole front as a side effect.
  Each wrapper also decides how a tabu neighborhood is scored
  (``score_moves``), so the engine keeps one route.

>>> obj = resolve_objective("weighted:0.7:0.3")
>>> obj.scalarize(100.0, 10.0)
73.0
>>> resolve_objective("makespan").is_makespan
True
>>> p95 = resolve_objective("quantile:0.95")
>>> p95.is_scenario
True
>>> p95.reduce([3.0, 1.0, 2.0, 10.0])  # nearest-rank: 4th of 4
10.0
>>> resolve_objective("cvar:0.5").reduce([1.0, 2.0, 3.0, 4.0])
3.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.schedule.encoding import ScheduleString
from repro.schedule.neighborhood import (
    applied_copy,
    check_moves,
    score_by_deltas,
    select_move,
)
from repro.schedule.scoring import CostModel
from repro.schedule.valid_range import allocate_by_places

__all__ = [
    "MAKESPAN",
    "MakespanObjective",
    "WeightedObjective",
    "ScenarioObjective",
    "Objective",
    "OBJECTIVE_FORMS",
    "weighted",
    "resolve_objective",
    "ObjectiveBackend",
]

_INF = float("inf")


class MakespanObjective:
    """The identity objective: scalar == makespan, bit for bit."""

    name = "makespan"
    is_makespan = True
    is_scenario = False

    def scalarize(self, makespan: float, cost: float) -> float:
        return makespan

    def span_cutoff(self, cutoff: float, cost: float) -> float:
        return cutoff

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MakespanObjective()"


@dataclass(frozen=True)
class WeightedObjective:
    """The weighted sum ``w_makespan * makespan + w_cost * cost``.

    Weights must be finite, >= 0 and not both zero.  They are *not*
    normalised — callers wanting comparable magnitudes divide by
    reference scales first (``repro pareto`` uses a deterministic
    baseline's makespan and cost).
    """

    w_makespan: float
    w_cost: float

    is_makespan = False
    is_scenario = False

    def __post_init__(self) -> None:
        for label, w in (
            ("w_makespan", self.w_makespan),
            ("w_cost", self.w_cost),
        ):
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(
                    f"{label} must be finite and >= 0, got {w!r}"
                )
        if self.w_makespan == 0 and self.w_cost == 0:
            raise ValueError("at least one objective weight must be > 0")

    @property
    def name(self) -> str:
        return f"weighted:{self.w_makespan!r}:{self.w_cost!r}"

    def scalarize(self, makespan: float, cost: float) -> float:
        return self.w_makespan * makespan + self.w_cost * cost

    def span_cutoff(self, cutoff: float, cost: float) -> float:
        """The *makespan* cutoff equivalent to a scalarized *cutoff*.

        The delta tier prunes on the running span; since cost depends
        only on the machine assignment (known before the walk), the
        scalarized bound ``w_m * span + w_c * cost >= cutoff`` is a
        plain span bound.  One ``nextafter`` of slack keeps rounding
        from pruning a genuinely improving probe.
        """
        if cutoff == _INF:
            return _INF
        if self.w_makespan == 0:
            # scalar is span-independent: prune everything or nothing
            return _INF if self.w_cost * cost < cutoff else -_INF
        return math.nextafter(
            (cutoff - self.w_cost * cost) / self.w_makespan, _INF
        )


def _nearest_rank(q: float, n: int) -> int:
    """The 1-indexed nearest-rank of quantile *q* over *n* samples.

    Exactly :func:`repro.online.metrics.OnlineMetrics`'s percentile
    arithmetic (``max(1, ceil(q * n))``), so a risk objective's
    ``quantile:0.95`` and the online service's reported p95 agree on
    the same samples (pinned by ``tests/stochastic``).
    """
    return max(1, math.ceil(q * n))


@dataclass(frozen=True)
class ScenarioObjective:
    """A reduction of Monte-Carlo scenario makespans to one scalar.

    The engines still optimise a single float; under a scenario
    objective that float is a *risk statistic* of the schedule's
    makespan distribution, estimated over ``S`` sampled scenarios (the
    sample-average approximation of arXiv:2210.11889 — see
    ``docs/risk_aware.md``):

    * ``mean`` — the empirical expectation;
    * ``quantile:<q>`` — the nearest-rank q-quantile (``rank = max(1,
      ceil(q * S))`` of the ascending sort, matching
      :meth:`repro.online.metrics.OnlineMetrics` percentiles);
    * ``cvar:<q>`` — the mean of the tail *from the q-quantile up*
      (``S - rank + 1`` worst scenarios; ``cvar:0`` is the mean,
      ``S = 1`` is the single value);
    * ``saa:<T>:<eps>`` — the chance constraint ``P[makespan <= T] >=
      1 - eps``, scored by its SAA surrogate, the ``(1-eps)``-quantile:
      minimising the surrogate drives the constraint toward
      feasibility, and :meth:`feasible` reports whether the sampled
      constraint holds.

    Instances only *reduce*; scenario sampling and B×S batch scoring
    live in :class:`~repro.stochastic.scenarios.ScenarioEvaluator`.
    ``scalarize`` ignores cost (risk objectives are makespan-only), so
    trace/result assembly code that scalarizes real ``(makespan,
    cost)`` points keeps working.
    """

    kind: str
    q: float = 0.5
    target: float = 0.0
    eps: float = 0.0

    is_makespan = False
    is_scenario = True

    def __post_init__(self) -> None:
        if self.kind not in ("mean", "quantile", "cvar", "saa"):
            raise ValueError(
                f"unknown scenario objective kind {self.kind!r}; expected "
                "'mean', 'quantile', 'cvar' or 'saa'"
            )
        if self.kind == "quantile" and not (
            math.isfinite(self.q) and 0 < self.q <= 1
        ):
            raise ValueError(
                f"quantile level must be in (0, 1], got {self.q!r}"
            )
        if self.kind == "cvar" and not (
            math.isfinite(self.q) and 0 <= self.q < 1
        ):
            raise ValueError(
                f"cvar level must be in [0, 1), got {self.q!r}"
            )
        if self.kind == "saa":
            if not (math.isfinite(self.target) and self.target > 0):
                raise ValueError(
                    f"saa target T must be finite and > 0, got {self.target!r}"
                )
            if not (math.isfinite(self.eps) and 0 < self.eps < 1):
                raise ValueError(
                    f"saa eps must be in (0, 1), got {self.eps!r}"
                )

    @property
    def name(self) -> str:
        if self.kind == "mean":
            return "mean"
        if self.kind == "saa":
            return f"saa:{self.target:g}:{self.eps:g}"
        return f"{self.kind}:{self.q:g}"

    @property
    def level(self) -> float:
        """The quantile level the reduction sorts at (1.0 for ``mean``)."""
        if self.kind == "mean":
            return 1.0
        if self.kind == "saa":
            return 1.0 - self.eps
        return self.q

    def reduce(self, samples) -> float:
        """One scenario-makespan vector ``(S,)`` -> the risk scalar."""
        xs = np.asarray(samples, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError(
                f"samples must be a non-empty 1-d vector, got shape {xs.shape}"
            )
        if self.kind == "mean":
            return float(xs.mean())
        xs = np.sort(xs)
        rank = _nearest_rank(self.level, xs.size)
        if self.kind == "cvar":
            return float(xs[rank - 1 :].mean())
        return float(xs[rank - 1])

    def feasible(self, samples) -> bool:
        """Whether the sampled chance constraint holds (``saa`` only)."""
        if self.kind != "saa":
            raise ValueError(
                f"feasible() is only defined for 'saa' objectives, not "
                f"{self.name!r}"
            )
        return self.reduce(samples) <= self.target

    def scalarize(self, makespan: float, cost: float) -> float:
        return makespan


Objective = Union[MakespanObjective, WeightedObjective, ScenarioObjective]

#: The objective grammar, one ``(form, needs_scenarios, description)``
#: triple per accepted spelling — the single source the CLI listing
#: (``repro algorithms``) and the docs point at.
OBJECTIVE_FORMS = (
    ("makespan", False, "schedule makespan (the default, bit-identical)"),
    (
        "weighted:<w_makespan>:<w_cost>",
        False,
        "weighted sum over (makespan, dollar cost)",
    ),
    ("mean", True, "mean makespan over Monte-Carlo scenarios"),
    (
        "quantile:<q>",
        True,
        "nearest-rank q-quantile of scenario makespans (e.g. quantile:0.95)",
    ),
    (
        "cvar:<q>",
        True,
        "mean of the scenario-makespan tail from the q-quantile up",
    ),
    (
        "saa:<T>:<eps>",
        True,
        "SAA chance constraint P[makespan <= T] >= 1-eps, "
        "scored by the (1-eps)-quantile",
    ),
)

#: The default objective — today's behaviour, golden-pinned.
MAKESPAN = MakespanObjective()


def weighted(w_makespan: float, w_cost: float) -> WeightedObjective:
    """The weighted-sum objective (see :class:`WeightedObjective`)."""
    return WeightedObjective(float(w_makespan), float(w_cost))


def resolve_objective(spec: Union[str, Objective]) -> Objective:
    """*spec* as an objective object.

    Accepts an objective instance or any JSON/CLI-safe string form of
    :data:`OBJECTIVE_FORMS`: ``"makespan"``,
    ``"weighted:<w_m>:<w_c>"`` (e.g. ``"weighted:0.7:0.3"``), or a
    scenario reduction — ``"mean"``, ``"quantile:<q>"``,
    ``"cvar:<q>"``, ``"saa:<T>:<eps>"`` (which additionally need
    ``scenarios >= 1`` wherever they are evaluated).
    """
    if isinstance(
        spec, (MakespanObjective, WeightedObjective, ScenarioObjective)
    ):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"objective must be a name string or objective, got {spec!r}"
        )
    if spec == "makespan":
        return MAKESPAN
    if spec == "mean":
        return ScenarioObjective("mean")
    try:
        if spec.startswith("weighted:"):
            parts = spec.split(":")
            if len(parts) == 3:
                return weighted(float(parts[1]), float(parts[2]))
        elif spec.startswith(("quantile:", "cvar:")):
            kind, _, level = spec.partition(":")
            return ScenarioObjective(kind, q=float(level))
        elif spec.startswith("saa:"):
            parts = spec.split(":")
            if len(parts) == 3:
                return ScenarioObjective(
                    "saa", target=float(parts[1]), eps=float(parts[2])
                )
    except ValueError as e:
        raise ValueError(f"bad objective {spec!r}: {e}") from None
    raise ValueError(
        f"unknown objective {spec!r}; expected one of: "
        + ", ".join(form for form, _, _ in OBJECTIVE_FORMS)
    )


class _ScalarizedState:
    """A delta state whose ``makespan`` is the scalarized objective.

    Engines treat delta states as opaque apart from ``makespan`` /
    ``pos_of`` / ``as_schedule()`` (the :class:`~repro.schedule.backend.
    SimulatorBackend` contract), so this thin proxy is all the
    incremental tier needs: the scalar they compare is the objective,
    the schedule they decode is the real one.
    """

    __slots__ = ("base", "makespan")

    def __init__(self, base: Any, scalar: float):
        self.base = base
        self.makespan = scalar

    @property
    def pos_of(self):
        return self.base.pos_of

    def as_schedule(self):
        return self.base.as_schedule()


class ObjectiveBackend:
    """A backend whose every scalar is the scalarized objective.

    Wraps any :class:`~repro.schedule.backend.SimulatorBackend`; built
    by the :class:`~repro.optim.evaluation.EvaluationService` when a
    non-default objective (or a Pareto tracker) is requested.  The
    default makespan objective never constructs one — the unwrapped
    backend stays bit-identical.

    ``evaluate`` still returns the inner backend's real result (result
    assembly wants true makespans); everything an engine *compares* —
    ``makespan``, ``string_makespan``, delta scalars, prepared-state
    ``makespan`` — is scalarized.  The scenario wrapper,
    :class:`~repro.stochastic.scenarios.ScenarioBackend`, derives from
    this class and replaces only the scalar: the reduction over
    scenarios.

    The wrapper also decides how a tabu neighborhood is scored
    (:meth:`score_moves`): by pruned deltas, unless a Pareto tracker
    must see every candidate's exact point.
    """

    def __init__(
        self,
        inner: Any,
        objective: Objective,
        cost_model: Optional[CostModel],
        pareto: Optional[Any] = None,
    ):
        self._inner = inner
        self._objective = objective
        self._cm = cost_model
        self._pareto = pareto

    # ------------------------------------------------------------------
    # identity / passthrough
    # ------------------------------------------------------------------

    @property
    def base(self) -> Any:
        """The wrapped (unscalarized) backend."""
        return self._inner

    @property
    def objective(self) -> Objective:
        return self._objective

    @property
    def workload(self):
        return self._inner.workload

    def finish_times(self, string) -> list[float]:
        return self._inner.finish_times(string)

    def shuffle(self, order, rng, num_moves: int) -> list[int]:
        """The inner backend's ``shuffle``: the graph is the same."""
        return self._inner.shuffle(order, rng, num_moves)

    def evaluate(self, string) -> Any:
        """The inner backend's full result (real schedule/makespan)."""
        result = self._inner.evaluate(string)
        if self._pareto is not None:
            cost = self._cm.cost(string.machines)
            self._offer(result.makespan, cost, string)
        return result

    def prepare(self, order, machine_of) -> _ScalarizedState:
        state = self._inner.prepare(order, machine_of)
        scalar = self._scalar(
            state.makespan, order, machine_of, (order, machine_of)
        )
        return _ScalarizedState(state, scalar)

    def allocate(
        self, string, selected, candidates, all_positions: bool = False
    ) -> tuple[Any, int, int]:
        """SE's allocation phase, :func:`~repro.schedule.valid_range.
        allocate_by_places` over this backend's :meth:`prepare` and
        :meth:`evaluate_delta`, so every prepare and probe is scalarized
        and offered to the Pareto tracker."""
        return allocate_by_places(
            self, string, selected, candidates, all_positions
        )

    # ------------------------------------------------------------------
    # scalarized scoring
    # ------------------------------------------------------------------

    def _offer(self, span: float, cost: float, candidate: Any) -> None:
        if self._pareto is not None and span != _INF:
            self._pareto.offer(span, cost, candidate)

    def _scalar(self, span: float, order, machine_of, candidate) -> float:
        """The scalar of the schedule *order* / *machine_of*, whose walk
        gave *span*; the point is offered to the tracker as
        *candidate*."""
        cost = self._cm.cost(machine_of)
        self._offer(span, cost, candidate)
        return self._objective.scalarize(span, cost)

    def makespan(self, order, machine_of) -> float:
        span = self._inner.makespan(order, machine_of)
        return self._scalar(span, order, machine_of, (order, machine_of))

    def string_makespan(self, string) -> float:
        span = self._inner.string_makespan(string)
        return self._scalar(span, string.order, string.machines, string)

    def string_makespans(self, strings) -> list[float]:
        """:meth:`string_makespan` of each of *strings*, in order."""
        return [self.string_makespan(s) for s in strings]

    def evaluate_delta(
        self,
        order,
        machine_of,
        first_changed: int,
        state: Any,
        cutoff: float = _INF,
        region_end: Optional[int] = None,
    ) -> float:
        cost = self._cm.cost(machine_of)
        span = self._inner.evaluate_delta(
            order,
            machine_of,
            first_changed,
            getattr(state, "base", state),
            self._objective.span_cutoff(cutoff, cost),
            region_end,
        )
        if span == _INF:  # pruned: not better than the cutoff
            return _INF
        self._offer(span, cost, (order, machine_of))
        return self._objective.scalarize(span, cost)

    def score_moves(
        self,
        state: Any,
        order,
        machine_of,
        moves,
        tabu,
        best_known: float,
    ) -> tuple[float, int, int]:
        """Tabu's ``(cost, index, admissible)`` pick among *moves*.

        With no Pareto tracker, :func:`~repro.schedule.neighborhood.
        score_by_deltas` over this backend's :meth:`evaluate_delta`, so
        every candidate is scalarized and a loser stops at its cutoff.
        A tracker must see every candidate's exact point, which a
        pruned delta does not give, so then each candidate is scored in
        full (:meth:`score_applied`).  *state* is a snapshot of *order*
        / *machine_of*, wrapped or raw.
        """
        if self._pareto is None:
            return score_by_deltas(
                self, state, order, machine_of, moves, tabu, best_known
            )
        return self.score_applied(order, machine_of, moves, tabu, best_known)

    def score_applied(
        self, order, machine_of, moves, tabu, best_known: float
    ) -> tuple[float, int, int]:
        """:func:`~repro.schedule.neighborhood.select_move` on exact
        costs: each move applied to a copy of *order* / *machine_of*,
        the copies scored by one :meth:`string_makespans` call.  The
        neighborhood is checked as :func:`~repro.schedule.neighborhood.
        check_moves` checks it."""
        string = ScheduleString(order, machine_of, self.workload.num_machines)
        check_moves(string, self.workload.graph, moves, tabu)
        costs = self.string_makespans([applied_copy(string, m) for m in moves])
        return select_move(tabu, best_known, lambda i, _cutoff: costs[i])
