"""Online dispatch policies and the re-optimisation window.

Two decision layers drive the service:

**Frontier dispatch** — when a job arrives, a deterministic list
scheduler places its whole DAG against the machines *as they are*: the
per-machine availability (and, under ``"nic"``, per-NIC reservation)
vectors seed the scheduler's EFT queries via the ``initial_avail`` /
``initial_nic_free`` plumbing added to every baseline.  The registry
:data:`DISPATCH_POLICIES` exposes the classic heuristics (OLB, min-min,
max-min, HEFT) under their service names.

**Re-optimisation** — on a periodic tick, the service rolls back every
committed job none of whose subtasks has started yet and hands each
incumbent string to the PR-4 optim core (simulated annealing or tabu
search) running against the *current* machine state through an
:class:`~repro.optim.evaluation.EvaluationService` constructed with
``initial_avail`` / ``initial_nic_free``.  The window is budgeted by the
engine's :class:`~repro.optim.stop.StopPolicy`; if the budget is too
tight to find a strictly better string the **incumbent is kept
unchanged** (and, by the clamping argument in
:mod:`repro.online.simulator`, re-evaluates bit-identically), so a
zero-iteration window is a no-op rather than a perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.baselines.base import BaselineResult
from repro.baselines.heft import heft
from repro.baselines.minmin import max_min, min_min
from repro.baselines.olb import olb
from repro.model.workload import Workload
from repro.optim.annealing import SAConfig, run_sa
from repro.optim.evaluation import EvaluationService
from repro.optim.tabu import TabuConfig, run_tabu
from repro.schedule.backend import DEFAULT_NETWORK
from repro.schedule.encoding import ScheduleString

#: Dispatch policy name -> baseline callable.  All share the signature
#: ``(workload, network, initial_avail=..., initial_nic_free=...)``.
DISPATCH_POLICIES: Dict[str, Callable[..., BaselineResult]] = {
    "olb": olb,
    "min-min": min_min,
    "max-min": max_min,
    "heft": heft,
}

#: Re-optimisation engine name -> functional runner.
REOPT_ENGINES = ("tabu", "sa")


def dispatch(
    policy: str,
    workload: Workload,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
) -> BaselineResult:
    """Run dispatch *policy* against the given machine state."""
    try:
        fn = DISPATCH_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {policy!r}; "
            f"available: {sorted(DISPATCH_POLICIES)}"
        ) from None
    return fn(
        workload,
        network,
        initial_avail=initial_avail,
        initial_nic_free=initial_nic_free,
    )


@dataclass(frozen=True)
class ReoptConfig:
    """Parameters of the periodic re-optimisation window.

    Attributes
    ----------
    interval:
        Simulated-time gap between ticks.
    engine:
        ``"tabu"`` (neighborhoods of cutoff-pruned deltas) or ``"sa"``
        (delta-scored proposals).
    max_iterations:
        Engine iteration budget per job per window — the deterministic
        deadline.  ``0`` is legal and keeps every incumbent (tested
        edge case).
    time_limit:
        Optional wall-clock cap in seconds per job per window.  Leaving
        it ``None`` (the default) keeps runs exactly replayable;
        setting it trades determinism for a hard latency bound.
    """

    interval: float = 50.0
    engine: str = "tabu"
    max_iterations: int = 40
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.engine not in REOPT_ENGINES:
            raise ValueError(
                f"unknown reopt engine {self.engine!r}; "
                f"available: {list(REOPT_ENGINES)}"
            )
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(
                f"time_limit must be > 0, got {self.time_limit}"
            )


def improve_residual(
    workload: Workload,
    incumbent: ScheduleString,
    config: ReoptConfig,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> Tuple[ScheduleString, float, bool]:
    """Try to improve *incumbent* against the current machine state.

    Returns ``(string, makespan, improved)``.  The engine starts from
    the incumbent and scores through an :class:`EvaluationService`
    seeded with the in-flight machine state, so its objective is the
    *residual* completion time.  The new string is adopted only when
    **strictly** better than the incumbent's re-evaluated cost —
    otherwise the exact incumbent object is returned, which the caller
    re-commits bit-identically.
    """
    service = EvaluationService(
        workload,
        network,
        initial_avail=initial_avail,
        initial_nic_free=initial_nic_free,
    )
    incumbent_cost = service.string_makespan(incumbent)
    if config.max_iterations == 0:
        return incumbent, incumbent_cost, False
    if config.engine == "tabu":
        result = run_tabu(
            workload,
            TabuConfig(
                max_iterations=config.max_iterations,
                time_limit=config.time_limit,
                network=network,
                seed=seed,
            ),
            initial=incumbent,
            service=service,
        )
    else:
        result = run_sa(
            workload,
            SAConfig(
                max_iterations=config.max_iterations,
                time_limit=config.time_limit,
                network=network,
                seed=seed,
            ),
            initial=incumbent,
            service=service,
        )
    if result.best_makespan < incumbent_cost:
        return result.best_string, result.best_makespan, True
    return incumbent, incumbent_cost, False
