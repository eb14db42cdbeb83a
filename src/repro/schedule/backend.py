"""Pluggable simulator backends: one cost model per network assumption.

The paper's model (and :class:`~repro.schedule.simulator.Simulator`)
assumes a fully connected, contention-free network.  Realistic models —
starting with the one-NIC-per-machine serialisation of
:class:`~repro.extensions.contention.ContentionSimulator` — change the
cost of the *same* schedule string, and therefore change what the
optimisers should optimise.  This module makes the choice a first-class,
string-keyed parameter:

* :class:`SimulatorBackend` — the structural protocol every backend
  implements: ``makespan`` / ``evaluate`` plus the incremental tier
  (``prepare`` → delta state → ``evaluate_delta``) that the SE allocator
  and the GA offspring loop run on;
* :func:`make_simulator` — ``(workload, network)`` → backend instance;
* :func:`register_network` — downstream code can plug in its own model
  (registration must happen at import time of a module the runner's
  worker processes also import, exactly like algorithm registration).

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
``score`` / ``batch_scores`` report dollar cost next to makespan.  The
default ``"uniform"`` platform changes *nothing* — same workload
object, no extra keyword reaches the backend factory — so it is
bit-identical to the historical ETC path (golden-pinned).

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

from typing import Any, Callable, Dict, Optional, Protocol, Sequence, runtime_checkable

from repro.model.workload import Workload
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule, Simulator

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

    def finish_times(self, string: ScheduleString) -> list[float]: ...


#: A backend factory: workload -> backend instance.
BackendFactory = Callable[[Workload], SimulatorBackend]

_NETWORKS: Dict[str, BackendFactory] = {DEFAULT_NETWORK: Simulator}

#: Batch-kernel factories keyed by network name (see ``vectorized.py``).
_BATCH_NETWORKS: Dict[str, Callable[[Workload], Any]] = {}

#: Compiled-kernel factories keyed by network name (see ``jit.py``).
_JIT_NETWORKS: Dict[str, Callable[[Workload], Any]] = {}


def register_network(name: str):
    """Decorator registering a backend factory under *name* (unique)."""

    def deco(factory: BackendFactory) -> BackendFactory:
        key = name.lower()
        if key in _NETWORKS:
            raise ValueError(f"network model {key!r} already registered")
        _NETWORKS[key] = factory
        return factory

    return deco


def register_batch_network(name: str):
    """Decorator registering a *batch kernel* factory under *name*.

    A batch kernel offers ``makespans(orders, machines)`` /
    ``string_makespans(strings)`` returning one float per schedule,
    bit-identical to the network's scalar backend, plus an
    ``is_vectorized`` flag.  Networks without a registered kernel fall
    back to a sequential loop over their scalar backend when callers
    request ``make_simulator(..., batch=True)``.
    """

    def deco(factory):
        key = name.lower()
        if key in _BATCH_NETWORKS:
            raise ValueError(
                f"batch kernel for network {key!r} already registered"
            )
        _BATCH_NETWORKS[key] = factory
        return factory

    return deco


def register_jit_network(name: str):
    """Decorator registering a *compiled* (JIT) kernel factory.

    A JIT kernel is a drop-in for the network's NumPy batch kernel
    (same batch API, bit-identical results) that additionally reports
    ``kernel_tier == "jit"``.  Selection order is jit > vectorized >
    sequential (see :func:`kernel_tier`); a network registering only a
    NumPy kernel keeps working exactly as before.
    """

    def deco(factory):
        key = name.lower()
        if key in _JIT_NETWORKS:
            raise ValueError(
                f"jit kernel for network {key!r} already registered"
            )
        _JIT_NETWORKS[key] = factory
        return factory

    return deco


#: Platform specs keyed by name (see ``repro.model.platform``).
_PLATFORMS: Dict[str, Any] = {}


def register_platform(spec) -> Any:
    """Register a :class:`~repro.model.platform.PlatformSpec` under its
    own (unique, lower-cased) name; returns the spec for chaining.

    Like network registration, this must happen at import time of a
    module the runner's worker processes also import, so ``platform=``
    strings resolve in every process.
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


def platform_cost_vectorized(platform) -> bool:
    """Whether *platform*'s cost path stays vectorized in the batch tier.

    Boot delays become initial machine state, and initial state always
    routes batch evaluation through the sequential scalar fallback (the
    kernels pack idle machines) — so only zero-boot platforms keep the
    one-gather vectorized cost column.  Surfaced by ``repro algorithms``
    / ``repro run --verbose`` next to the per-network batch modes.

    >>> platform_cost_vectorized("uniform"), platform_cost_vectorized("spot")
    (True, True)
    >>> platform_cost_vectorized("cloud")  # 0.3 boot on every tier
    False
    """
    return not resolve_platform(platform).has_boot


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


def _ensure_builtins() -> None:
    # The NIC backend lives one layer up (repro.extensions.contention) and
    # registers itself at import; import it lazily so repro.schedule keeps
    # no import-time dependency on the extension layer.  The vectorized
    # batch kernels register the "contention-free" and "nic" fast paths
    # the same way.
    if NIC_NETWORK not in _NETWORKS:
        import repro.extensions.contention  # noqa: F401  (registers "nic")
    if DEFAULT_NETWORK not in _BATCH_NETWORKS:
        import repro.schedule.vectorized  # noqa: F401
    if NIC_NETWORK not in _BATCH_NETWORKS:
        import repro.schedule.vectorized_contention  # noqa: F401
    if DEFAULT_NETWORK not in _JIT_NETWORKS:
        # always importable: the module keeps a plain-Python fallback
        # and only *selects* itself when numba (or an override) says so
        import repro.schedule.jit  # noqa: F401


def available_networks() -> list[str]:
    """All registered network-model names, sorted."""
    _ensure_builtins()
    return sorted(_NETWORKS)


def kernel_tier(network: str) -> str:
    """The batch tier ``make_simulator(..., batch=True)`` selects now.

    ``"jit"`` when the network registered a compiled kernel and the
    compiled tier is selected (numba importable, or ``REPRO_KERNEL=jit``
    forcing it), ``"vectorized"`` for a NumPy kernel, ``"sequential"``
    for networks with neither.  Backends constructed with initial
    machine state always run ``"sequential"`` regardless of this answer
    (the kernels pack idle machines).  Surfaced by ``repro algorithms``
    so the active tier is visible, not guessed; a run reports the tier
    that actually served it (``EvaluationService.kernel_tier``).

    Raises
    ------
    ValueError
        If ``REPRO_KERNEL`` is set to an unknown mode, or demands
        ``jit`` on an installation without numba.
    """
    _ensure_builtins()
    from repro.schedule import jit as jit_mod

    key = network.lower()
    if key in _JIT_NETWORKS and jit_mod.jit_selected():
        return "jit"
    if key in _BATCH_NETWORKS:
        return "vectorized"
    return "sequential"


def batch_kernel_factory(network: str):
    """The batch-kernel factory of *network*'s active tier, or ``None``.

    For callers that build kernels directly against pre-packed tensors
    (the scenario tier constructs one kernel per sampled scenario,
    sharing DAG-structure tables across them); everyone else should go
    through :func:`make_simulator` with ``batch=True``.  Honors the
    same jit > vectorized selection (and ``REPRO_KERNEL`` override) as
    :func:`make_simulator`, so every batch-scoring path rides the
    compiled tier when it is available.
    """
    _ensure_builtins()
    key = network.lower()
    if kernel_tier(key) == "jit":
        return _JIT_NETWORKS[key]
    return _BATCH_NETWORKS.get(key)


def make_simulator(
    workload: Workload,
    network: str = DEFAULT_NETWORK,
    batch: bool = False,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
    platform=DEFAULT_PLATFORM,
) -> SimulatorBackend:
    """A simulator backend for *workload* under the *network* model.

    With ``batch=True`` the scalar backend is wrapped in a
    :class:`~repro.schedule.vectorized.BatchBackend` that additionally
    offers ``batch_makespans(orders, machines)`` /
    ``batch_string_makespans(strings)``: the network's best registered
    kernel tier — compiled :mod:`~repro.schedule.jit` kernels when
    numba imports (override with ``REPRO_KERNEL=numpy|jit``), else the
    NumPy kernel (:class:`~repro.schedule.vectorized.BatchSimulator`
    for ``"contention-free"``,
    :class:`~repro.schedule.vectorized_contention.
    ContentionBatchSimulator` for ``"nic"``), else a sequential scalar
    fallback for networks without one (see :func:`kernel_tier`).  All
    tiers are bit-identical.
    Scalar-tier methods are forwarded without overhead either way, so a
    batch-wrapped backend is a drop-in :class:`SimulatorBackend`.

    ``initial_avail`` (and, for NIC-style models, ``initial_nic_free``)
    construct the backend against machines that are already busy with
    earlier work — the substrate of the online scheduling service
    (:mod:`repro.online`).  The built-in backends accept both; a custom
    registered network must accept the corresponding keyword to be used
    with a non-``None`` value.  Because the vectorized batch kernels pack
    idle-machine state, a batch request with initial state always routes
    through the sequential scalar fallback (``is_vectorized`` reports
    ``False``), keeping results exact.

    ``platform`` selects a registered
    :class:`~repro.model.platform.PlatformSpec` (or takes one directly):
    the backend is built against the speed-scaled execution matrix, with
    boot delays as initial state (so platforms with boot also take the
    sequential batch fallback) and the billing table attached — its
    ``score`` / ``string_score`` and, under ``batch=True``,
    ``batch_scores`` then report dollar cost next to makespan.  The
    default ``"uniform"`` platform adds *nothing* to this call — same
    workload object, no extra keyword — and is therefore bit-identical
    to the historical path.  A custom registered network must accept a
    ``cost_model`` keyword to be used with a non-uniform platform.

    Raises
    ------
    ValueError
        If *network* names no registered backend, or *platform* no
        registered platform.
    """
    _ensure_builtins()
    key = network.lower()
    try:
        factory = _NETWORKS[key]
    except KeyError:
        raise ValueError(
            f"unknown network model {network!r}; available: "
            f"{', '.join(available_networks())}"
        ) from None
    spec = resolve_platform(platform)
    workload, initial_avail, initial_nic_free = platform_state(
        workload, spec, key, initial_avail, initial_nic_free
    )
    cost_model = None
    if not spec.is_uniform:
        from repro.schedule.scoring import CostModel

        prices = spec.bind(workload.num_machines).prices
        cost_model = CostModel(workload.exec_times.values, prices)
    kwargs: Dict[str, Any] = {}
    if initial_avail is not None:
        kwargs["initial_avail"] = initial_avail
    if initial_nic_free is not None:
        kwargs["initial_nic_free"] = initial_nic_free
    if cost_model is not None:
        scalar = factory(workload, cost_model=cost_model, **kwargs)
    else:
        scalar = factory(workload, **kwargs)
    if not batch:
        return scalar
    from repro.schedule.vectorized import BatchBackend, SequentialBatchKernel

    kernel_factory = batch_kernel_factory(key)
    if kernel_factory is None or kwargs:
        kernel = SequentialBatchKernel(scalar)
    else:
        kernel = kernel_factory(workload)
    return BatchBackend(scalar, kernel, cost_model=cost_model)


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
