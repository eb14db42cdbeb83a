"""Algorithm registry: names the runner can execute in worker processes.

Multiprocessing cannot ship closures across process boundaries, so the
experiment runner refers to algorithms **by name**: an
:class:`~repro.runner.spec.AlgorithmSpec` carries a registry key plus a
flat parameter mapping, and every worker resolves the key against this
module-level registry after import.  The built-in entries cover every
algorithm in the library; downstream code can add its own with
:func:`register_algorithm` (the registration must happen at import time
of a module the workers also import — e.g. the module defining the
experiment).

>>> from repro.runner import available_algorithms
>>> "se" in available_algorithms() and "heft" in available_algorithms()
True
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.model.workload import Workload


@dataclass
class CellOutcome:
    """What one algorithm run reports back to the experiment runner.

    ``trace_rows`` uses the plain-dict row format of
    :meth:`repro.analysis.trace.ConvergenceTrace.to_rows` so outcomes
    stay picklable and JSON-serialisable; deterministic heuristics leave
    it ``None``.
    """

    makespan: float
    evaluations: int = 0
    iterations: int = 0
    stopped_by: str = ""
    trace_rows: Optional[List[dict]] = None
    extras: dict = field(default_factory=dict)


#: An algorithm entry: (workload, seed, params) -> CellOutcome.
AlgorithmFn = Callable[[Workload, int, dict], CellOutcome]

#: Parameter-name source: a tuple of names, or a zero-arg callable
#: returning one (lazy, so declaring params never imports engine code).
ParamSource = Callable[[], tuple] | tuple

_REGISTRY: Dict[str, AlgorithmFn] = {}
_PARAMS: Dict[str, ParamSource] = {}


def register_algorithm(name: str, params: Optional[ParamSource] = None):
    """Decorator registering *fn* under *name* (lowercase, unique).

    *params* optionally declares the parameter names the entry accepts
    in its ``params`` dict (see :func:`algorithm_parameters`) — either a
    tuple of names or a lazy zero-arg callable returning one (e.g.
    reading a config dataclass's fields without importing it up front).
    """

    def deco(fn: AlgorithmFn) -> AlgorithmFn:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"algorithm {key!r} already registered")
        _REGISTRY[key] = fn
        if params is not None:
            _PARAMS[key] = params
        return fn

    return deco


def resolve_algorithm(name: str) -> AlgorithmFn:
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: "
            f"{', '.join(available_algorithms())}"
        ) from None


def available_algorithms() -> List[str]:
    return sorted(_REGISTRY)


def algorithm_parameters(name: str) -> tuple:
    """Registry parameter names of algorithm *name* (may be empty).

    These are the keys accepted in ``AlgorithmSpec.make(name, ...)`` —
    for the engine-backed entries, the fields of the engine's config
    dataclass.  Raises :class:`KeyError` for unknown algorithms with
    the same message as :func:`resolve_algorithm`.
    """
    resolve_algorithm(name)  # uniform unknown-name error
    source = _PARAMS.get(name.lower(), ())
    return tuple(source() if callable(source) else source)


# ----------------------------------------------------------------------
# the engine table
# ----------------------------------------------------------------------

#: Effectively-unbounded iteration cap for budget-only runs.
UNBOUNDED = 10**9

#: The iterative engines of the head-to-head comparison and the
#: portfolio race, in the race's default cycling order.
ENGINE_KINDS: Tuple[str, ...] = ("se", "ga", "sa", "tabu")


def _load(path: str) -> Any:
    """The object named by ``"module:name"`` (imported on first use)."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def string_pairs(string) -> dict:
    """A ScheduleString as plain lists (JSON/pickle-safe extras payload).

    Rebuild with ``ScheduleString(doc["order"], doc["machines"], l)``.
    """
    return {"order": list(string.order), "machines": list(string.machines)}


def _baseline_outcome(res) -> CellOutcome:
    """The outcome of a :class:`~repro.baselines.base.BaselineResult`."""
    return CellOutcome(
        makespan=res.makespan,
        evaluations=res.evaluations,
        extras={"best_string": string_pairs(res.string)},
    )


@dataclass(frozen=True)
class Engine:
    """One row of :data:`ENGINES`: how to configure and run one engine.

    Attributes
    ----------
    config / runner:
        ``"module:name"`` of the config dataclass and of the functional
        runner ``runner(workload, config, **hooks)``.  Both import on
        first use, so reading the table loads no engine code.
    label:
        Display name in ``repro run``'s summary line.
    cap:
        Config field holding the iteration cap.
    scale:
        Cap units per ``--iterations`` unit.  An SA iteration is one
        ~25 µs move proposal, far cheaper than an SE/GA iteration, so SA
        gets 50 per unit; random search draws 10 samples per unit.
    counts:
        Result attribute counting the iterations run; ``None`` when the
        runner returns a :class:`~repro.baselines.base.BaselineResult`.
    unit:
        What one counted iteration is called in ``repro run`` output.
    stall:
        Config field of the no-improvement stop rule (``None``: none).
    lift_stall:
        Whether capped and budgeted runs lift the stall rule: the GA's
        default (Wang et al.'s 150 generations) would end them early.
    clock:
        The overrides a wall-clock budget needs.  A multi-second budget
        means millions of SA proposals, so SA records its trace every
        50th proposal (plus every improvement) instead of each one.
    lenient:
        Whether :meth:`build` drops params the config does not declare
        (the random-search entry always ignored them) instead of
        raising.
    """

    config: str
    runner: str
    label: str = ""
    cap: str = "max_iterations"
    scale: int = 1
    counts: Optional[str] = "iterations"
    unit: str = "iterations"
    stall: Optional[str] = "stall_iterations"
    lift_stall: bool = False
    clock: Tuple[Tuple[str, Any], ...] = ()
    lenient: bool = False

    def config_class(self) -> type:
        return _load(self.config)

    def build(self, **params: Any) -> Any:
        """The engine's config from flat *params* (config field names)."""
        cls = self.config_class()
        if self.lenient:
            known = {f.name for f in fields(cls)}
            params = {k: v for k, v in params.items() if k in known}
        return cls(**params)

    def limits(
        self, cap: Optional[int] = None, time_limit: Optional[float] = None
    ) -> dict:
        """Config overrides for an iteration *cap* in the engine's own
        unit (``None``: unbounded) and an optional wall-clock
        *time_limit*; whichever limit hits first stops the run."""
        params: dict = {self.cap: UNBOUNDED if cap is None else cap}
        if self.lift_stall:
            params[self.stall] = None
        if time_limit is not None:
            params["time_limit"] = time_limit
            params.update(self.clock)
        return params

    def run(self, workload: Workload, config: Any, **hooks: Any) -> Any:
        """Run the engine; *hooks* are ``observers=`` / ``exchange=``."""
        return _load(self.runner)(workload, config, **hooks)

    def outcome(self, res: Any) -> CellOutcome:
        """The runner-facing :class:`CellOutcome` of a run's result."""
        if self.counts is None:
            return _baseline_outcome(res)
        extras = {
            name: getattr(res, name)
            for name in ("bias", "y_candidates")
            if hasattr(res, name)
        }
        extras["best_string"] = string_pairs(res.best_string)
        return CellOutcome(
            makespan=res.best_makespan,
            evaluations=res.evaluations,
            iterations=getattr(res, self.counts),
            stopped_by=res.stopped_by,
            trace_rows=res.trace.to_rows(),
            extras=extras,
        )


class _Race(Engine):
    """The portfolio race as a table row.

    An iteration-capped race runs in deterministic lockstep, so capped
    sweeps stay worker-count invariant; only a wall-clock budget opts
    into the deadline race.  Runner cells already execute inside worker
    processes, so islands default to the GIL-sharing ``thread`` mode
    instead of nesting a second process pool per cell (a spec can still
    pin ``mode="process"``).
    """

    def limits(
        self, cap: Optional[int] = None, time_limit: Optional[float] = None
    ) -> dict:
        if time_limit is None:
            return {"deadline": None, "max_iterations": cap, "sync_every": 5}
        return {"deadline": time_limit}

    def build(self, **params: Any) -> Any:
        params.setdefault("mode", "thread")
        return super().build(**params)

    def outcome(self, res: Any) -> CellOutcome:
        # the island rows of the race summary (``repro race --output``)
        doc = res.to_dict()
        return CellOutcome(
            makespan=res.best_makespan,
            evaluations=res.evaluations,
            iterations=res.iterations,
            stopped_by=res.islands[res.best_island].stopped_by,
            extras={
                key: doc[key]
                for key in ("best_string", "best_island", "best_kind", "islands")
            },
        )


#: The engine table: every dispatcher (``repro run``, the sweep spec
#: builder, :mod:`repro.analysis.compare`, the registry entries below and
#: the portfolio islands) configures and runs engines through it.
ENGINES: Dict[str, Engine] = {
    "se": Engine("repro.core:SEConfig", "repro.core:run_se", "SE"),
    "hybrid": Engine(
        "repro.core:SEConfig", "repro.extensions.hybrid:heft_seeded_se"
    ),
    "ga": Engine(
        "repro.baselines:GAConfig",
        "repro.baselines:run_ga",
        "GA",
        cap="max_generations",
        counts="generations",
        unit="generations",
        stall="stall_generations",
        lift_stall=True,
    ),
    "sa": Engine(
        "repro.optim:SAConfig",
        "repro.optim:run_sa",
        "SA",
        scale=50,
        unit="proposals",
        clock=(("record_every", 50),),
    ),
    "tabu": Engine("repro.optim:TabuConfig", "repro.optim:run_tabu", "tabu"),
    "random": Engine(
        "repro.baselines:RandomSearchConfig",
        "repro.baselines:run_random_search",
        cap="samples",
        scale=10,
        counts=None,
        unit="samples",
        stall=None,
        lenient=True,
    ),
    "portfolio": _Race(
        "repro.portfolio:RaceConfig", "repro.portfolio:run_race", stall=None
    ),
}

#: The deterministic heuristics: registry name -> ``repro.baselines``
#: function, each taking ``(workload, network=, platform=)``.
HEURISTICS = {"heft": "heft", "minmin": "min_min", "maxmin": "max_min", "olb": "olb"}


def heuristic(kind: str) -> Callable[..., Any]:
    """The ``repro.baselines`` function behind heuristic *kind*."""
    return _load(f"repro.baselines:{HEURISTICS[kind]}")


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------


def _engine_entry(kind: str) -> AlgorithmFn:
    entry = ENGINES[kind]

    def run(workload: Workload, seed: int, params: dict) -> CellOutcome:
        params = dict(params)
        # An explicit ``seed`` in params overrides the derived per-cell
        # seed: the derived seed keeps cells statistically independent;
        # pinning is for benchmarks that must reproduce one specific
        # published trajectory.
        config = entry.build(seed=params.pop("seed", seed), **params)
        return entry.outcome(entry.run(workload, config))

    return run


def _heuristic_entry(kind: str) -> AlgorithmFn:
    def run(workload: Workload, seed: int, params: dict) -> CellOutcome:
        # Deterministic heuristics take no seed; a spec may still pin one
        # (e.g. a grid sharing params across algorithms) — strip it
        # instead of crashing the worker with an unexpected kwarg.
        params = dict(params)
        params.pop("seed", None)
        return _baseline_outcome(heuristic(kind)(workload, **params))

    return run


def _config_fields(kind: str) -> Callable[[], tuple]:
    """Lazy param source: the field names of *kind*'s config dataclass."""
    return lambda: tuple(f.name for f in fields(ENGINES[kind].config_class()))


for _kind in ENGINES:
    register_algorithm(_kind, params=_config_fields(_kind))(
        _engine_entry(_kind)
    )
for _kind in HEURISTICS:
    register_algorithm(_kind, params=("network", "platform"))(
        _heuristic_entry(_kind)
    )
