"""Simulator backends: one cost model per network assumption.

The paper's model (and :class:`~repro.schedule.simulator.Simulator`)
assumes a fully connected, contention-free network.  Realistic models —
starting with the one-NIC-per-machine serialisation of
:class:`~repro.extensions.contention.ContentionSimulator` — change the
cost of the *same* schedule string, and therefore change what the
optimisers should optimise.  This module makes the choice a first-class,
string-keyed parameter:

* :class:`SimulatorBackend` — the structural protocol every backend
  implements: ``makespan`` / ``evaluate`` plus the incremental tier
  (``prepare`` → delta state → ``evaluate_delta``, and ``place``, the
  SE allocation step for one subtask) that the SE allocator and the GA
  offspring loop run on;
* :func:`make_simulator` — ``(workload, network)`` → scalar backend.

One table names every network's scalar backend.  The table is resolved
on first use, so importing :mod:`repro.schedule` does not import the
extension layer that holds the NIC backend.  A batch is a loop over
the scalar backend, run by
:class:`~repro.optim.evaluation.EvaluationService`.

Because the selector is a plain string, it travels everywhere the
algorithms do: ``SEConfig(network="nic")``, ``GAConfig(network="nic")``,
``heft(w, network="nic")``, ``AlgorithmSpec.make("se", network="nic")``,
``repro sweep --network nic``.

The **platform** axis works the same way, orthogonally to the network:
a :class:`~repro.model.platform.PlatformSpec` (instance catalog with
speed factors, $/hour prices and boot delays) registered under a string
name.  ``make_simulator(w, network, platform="cloud")`` scales the
execution-time matrix by instance speed, folds boot delays into the
initial availability, and attaches the billing table so the backend's
``score`` reports dollar cost next to makespan.  The default
``"uniform"`` platform changes *nothing* — same workload object, no
billing table — so it is bit-identical to the historical ETC path
(golden-pinned).

>>> from repro.schedule.backend import available_networks, make_simulator
>>> available_networks()
['contention-free', 'nic']
>>> available_platforms()
['cloud', 'spot', 'uniform']
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> type(make_simulator(w, "contention-free")).__name__
'Simulator'
>>> type(make_simulator(w, "nic")).__name__
'ContentionSimulator'
>>> make_simulator(w, "contention-free", platform="spot").cost_model.is_free
False
>>> make_simulator(w, "contention-free").cost_model is None
True
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, Protocol, Sequence, runtime_checkable

from repro.model.workload import Workload
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule

#: The paper's model; the default everywhere a ``network`` is accepted.
DEFAULT_NETWORK = "contention-free"

#: The built-in NIC-serialisation model (see ``repro.extensions.contention``).
NIC_NETWORK = "nic"

#: The identity platform; the default everywhere a ``platform`` is accepted.
DEFAULT_PLATFORM = "uniform"


@runtime_checkable
class SimulatorBackend(Protocol):
    """What every schedule-cost backend must offer.

    The contract mirrors :class:`~repro.schedule.simulator.Simulator`:

    * ``makespan`` / ``string_makespan`` — scalar cost of a string;
    * ``evaluate`` — full evaluation; the result must expose ``makespan``
      and per-task ``start`` / ``finish`` / ``order`` / ``machine_of``
      (richer backends may return a wrapper, e.g.
      :class:`~repro.extensions.contention.ContentionSchedule`);
    * ``prepare`` / ``evaluate_delta`` — the incremental tier: a
      per-position snapshot of the evaluation state such that a string
      sharing a prefix with the base can be re-scored suffix-only, with
      ``cutoff`` branch-and-bound pruning.  ``evaluate_delta`` results
      must be **bit-identical** to a full ``makespan`` call on the same
      string (property-tested for both built-in backends);
    * ``place`` — the best re-placement of one subtask over a list of
      candidate machines, with the probe count: the loop of
      :func:`~repro.schedule.valid_range.place_by_probes` (the scalar
      backends run it in one compiled walker call, ``==``);
    * ``score_moves`` — tabu's pick among a neighborhood of moves, with
      the admissible count: the loop of :func:`~repro.optim.tabu.
      score_by_deltas` (one compiled walker call on the scalar
      backends, ``==``);
    * ``finish_times`` — per-subtask finish times (SE's ``Ci`` input).

    The delta state is backend-specific; callers treat it as opaque
    apart from ``makespan`` / ``pos_of`` / ``as_schedule()``.
    """

    @property
    def workload(self) -> Workload: ...

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float: ...

    def string_makespan(self, string: ScheduleString) -> float: ...

    def evaluate(self, string: ScheduleString) -> Any: ...

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> Any: ...

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float: ...

    def place(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        task: int,
        candidates: Sequence[int],
        all_positions: bool = False,
    ) -> tuple[float, int, int, int]: ...

    def score_moves(
        self,
        state: Any,
        order: Sequence[int],
        machine_of: Sequence[int],
        moves: Sequence[Any],
        tabu: Sequence[bool],
        best_known: float,
    ) -> tuple[float, int, int]: ...

    def finish_times(self, string: ScheduleString) -> list[float]: ...


#: Every network model: name -> its scalar backend, as a
#: ``module:attribute`` path resolved on first use.
_NETWORK_TABLE: Dict[str, str] = {
    DEFAULT_NETWORK: "repro.schedule.simulator:Simulator",
    NIC_NETWORK: "repro.extensions.contention:ContentionSimulator",
}


def check_network(network: str) -> str:
    """*network*'s table key (names are case-insensitive).

    Raises
    ------
    ValueError
        If *network* names no network model.
    """
    key = network.lower()
    if key not in _NETWORK_TABLE:
        raise ValueError(
            f"unknown network model {network!r}; available: "
            f"{', '.join(available_networks())}"
        )
    return key


#: Platform specs keyed by name (see ``repro.model.platform``).
_PLATFORMS: Dict[str, Any] = {}


def register_platform(spec) -> Any:
    """Register a :class:`~repro.model.platform.PlatformSpec` under its
    own (unique, lower-cased) name; returns the spec for chaining.

    Registration must happen at import time of a module the runner's
    worker processes also import, so ``platform=`` strings resolve in
    every process.
    """
    key = spec.name.lower()
    if key in _PLATFORMS:
        raise ValueError(f"platform {key!r} already registered")
    _PLATFORMS[key] = spec
    return spec


def _ensure_platform_builtins() -> None:
    if DEFAULT_PLATFORM not in _PLATFORMS:
        from repro.model.platform import (
            CLOUD_PLATFORM,
            SPOT_PLATFORM,
            UNIFORM_PLATFORM,
        )

        for spec in (UNIFORM_PLATFORM, CLOUD_PLATFORM, SPOT_PLATFORM):
            if spec.name not in _PLATFORMS:
                register_platform(spec)


def available_platforms() -> list[str]:
    """All registered platform names, sorted."""
    _ensure_platform_builtins()
    return sorted(_PLATFORMS)


def resolve_platform(platform) -> Any:
    """*platform* (name or spec object) as a
    :class:`~repro.model.platform.PlatformSpec`.

    Raises
    ------
    ValueError
        If a string names no registered platform.
    """
    if not isinstance(platform, str):
        return platform  # an ad-hoc PlatformSpec, used directly
    _ensure_platform_builtins()
    try:
        return _PLATFORMS[platform.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; available: "
            f"{', '.join(available_platforms())}"
        ) from None


def platform_state(
    workload: Workload,
    platform,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
):
    """Resolve *platform* into plain simulator inputs.

    Returns ``(workload, initial_avail, initial_nic_free)`` with the
    execution-time matrix speed-scaled and boot delays folded into the
    initial state (NIC state too under NIC-style networks — an unbooted
    machine's NIC is down).  The uniform platform returns the inputs
    unchanged (same objects), preserving bit-identity.

    This is the entry point the incremental baselines (HEFT, min-min,
    OLB, ...) use so their EFT decision phase sees exactly the machine
    model their reported schedule is measured under.
    """
    spec = resolve_platform(platform)
    if spec.is_uniform:
        return workload, initial_avail, initial_nic_free
    bound = spec.bind(workload.num_machines)
    workload = bound.apply(workload)
    if bound.has_boot:
        initial_avail = bound.combine_avail(initial_avail)
        if network.lower() == NIC_NETWORK or initial_nic_free is not None:
            initial_nic_free = bound.combine_avail(initial_nic_free)
    return workload, initial_avail, initial_nic_free


def available_networks() -> list[str]:
    """All network-model names, sorted."""
    return sorted(_NETWORK_TABLE)


def make_simulator(
    workload: Workload,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
    platform=DEFAULT_PLATFORM,
) -> SimulatorBackend:
    """The scalar simulator backend for *workload* under *network*.

    ``initial_avail`` (and, for the ``"nic"`` model, ``initial_nic_free``)
    construct the backend against machines that are already busy with
    earlier work — the substrate of the online scheduling service
    (:mod:`repro.online`).

    ``platform`` selects a registered
    :class:`~repro.model.platform.PlatformSpec` (or takes one directly):
    the backend is built against the speed-scaled execution matrix, with
    boot delays as initial state and the billing table attached — its
    ``score`` / ``string_score`` then report dollar cost next to
    makespan.  The default ``"uniform"`` platform leaves the workload
    object and the initial state untouched and attaches no billing
    table, so it is bit-identical to the historical path.

    Raises
    ------
    ValueError
        If *network* names no network model, or *platform* no
        registered platform.
    """
    module, _, name = _NETWORK_TABLE[check_network(network)].partition(":")
    scalar_cls = getattr(importlib.import_module(module), name)
    spec = resolve_platform(platform)
    workload, initial_avail, initial_nic_free = platform_state(
        workload, spec, network, initial_avail, initial_nic_free
    )
    kwargs: Dict[str, Any] = {"initial_avail": initial_avail}
    if initial_nic_free is not None:
        kwargs["initial_nic_free"] = initial_nic_free
    if not spec.is_uniform:
        from repro.schedule.scoring import CostModel

        prices = spec.bind(workload.num_machines).prices
        kwargs["cost_model"] = CostModel(workload.exec_times.values, prices)
    return scalar_cls(workload, **kwargs)


def plain_schedule(evaluated: Any) -> Schedule:
    """The plain :class:`Schedule` inside a backend's ``evaluate`` result.

    ``Simulator.evaluate`` already returns one; wrapper results (e.g.
    ``ContentionSchedule``) are unwrapped via their ``schedule``
    attribute.
    """
    inner = getattr(evaluated, "schedule", evaluated)
    if not isinstance(inner, Schedule):
        raise TypeError(
            f"cannot extract a Schedule from {type(evaluated).__name__}"
        )
    return inner
