"""The portfolio race driver: shard engines over workers, share the best.

:func:`run_race` answers the anytime question — "best schedule for this
workload within *deadline* seconds" — by racing islands (SE, GA, SA,
tabu, plus seeded restarts) concurrently and letting them trade
incumbents through a channel (:mod:`repro.portfolio.exchange`).  Three
execution modes, picked from the config:

* **process** (default) — one OS process per island via
  ``ProcessPoolExecutor`` and a
  :class:`~repro.portfolio.exchange.SharedChannel` over a
  ``multiprocessing.Manager``;
* **thread** — islands as threads over a
  :class:`~repro.portfolio.exchange.LocalChannel`; slower for CPU-bound
  engines (the GIL) but dependency-free and safe inside an already
  process-parallel harness (the runner's ``portfolio`` registry entry
  uses it);
* **lockstep** (``sync_every=N``) — threads over a
  :class:`~repro.portfolio.exchange.SyncChannel` that rendezvous every
  N own-iterations: slow, but every exchange is a pure function of
  seeds and iteration numbers, which is what the goldens pin.

Determinism contract: per-island RNG streams derive from ``(seed,
"island", i, kind)`` regardless of worker count, so each island's
*published* sequence is reproducible; in the asynchronous modes the
*arrival* iteration of a foreign incumbent depends on wall-clock
interleaving (documented race), while ``sync_every`` removes it.  With
``islands=1`` there is no channel at all and the run is bit-identical
to the solo engine.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro.model.workload import Workload
from repro.optim.evaluation import EvaluationFields
from repro.portfolio.islands import (
    ENGINE_KINDS,
    IslandOutcome,
    IslandSpec,
    build_islands,
    run_island,
)
from repro.schedule.backend import DEFAULT_NETWORK, DEFAULT_PLATFORM
from repro.workloads.presets import WorkloadSpec, build_workload

#: Execution modes of :func:`run_race` (``sync_every`` forces lockstep).
MODES = ("process", "thread")


@dataclass
class RaceConfig:
    """Parameters of one :func:`run_race` (see module docstring).

    Attributes
    ----------
    engines:
        Engine kinds to race, cycled across islands.
    islands:
        Island count; ``0`` (default) means one island per engine kind.
        ``1`` disables the exchange entirely (solo bit-identity).
    deadline:
        Wall-clock budget in seconds per island (each island's clock
        starts when it starts, so queued islands are not short-changed).
    max_iterations:
        Per-island iteration cap in each engine's own unit (SE/SA/tabu
        iterations, GA generations); required in lockstep mode, where a
        wall-clock stop would break determinism.
    sync_every:
        Deterministic-exchange stride: islands run in lockstep threads
        and rendezvous every N own-iterations.  Implies ``mode=
        "thread"``.
    exchange_interval:
        Poll stride override for all islands; default is per-engine
        (see :data:`repro.portfolio.islands.DEFAULT_INTERVALS`).
    mode:
        ``"process"`` (default) or ``"thread"``.
    workers:
        Max concurrent islands in process mode; default
        ``min(islands, cpu_count)``.
    network / platform:
        Backend and machine catalog every island optimises against.
    seed:
        Base seed; island *i* derives its stream from
        ``(seed, "island", i, kind)``.
    """

    engines: Tuple[str, ...] = ENGINE_KINDS
    islands: int = 0
    deadline: Optional[float] = 2.0
    max_iterations: Optional[int] = None
    sync_every: Optional[int] = None
    exchange_interval: Optional[int] = None
    mode: str = "process"
    workers: Optional[int] = None
    network: str = DEFAULT_NETWORK
    platform: str = DEFAULT_PLATFORM
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.engines, str):
            self.engines = tuple(
                e.strip() for e in self.engines.split(",") if e.strip()
            )
        else:
            self.engines = tuple(self.engines)
        for kind in self.engines:
            if kind not in ENGINE_KINDS:
                raise ValueError(
                    f"unknown engine kind {kind!r}; expected a subset of "
                    f"{', '.join(ENGINE_KINDS)}"
                )
        if not self.engines:
            raise ValueError("engines must name at least one engine kind")
        if self.islands < 0:
            raise ValueError(f"islands must be >= 0, got {self.islands}")
        if self.islands == 0:
            self.islands = len(self.engines)
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}"
            )
        if self.sync_every is not None:
            if self.sync_every < 1:
                raise ValueError(
                    f"sync_every must be >= 1, got {self.sync_every}"
                )
            if self.max_iterations is None:
                raise ValueError(
                    "lockstep mode (sync_every) requires max_iterations: "
                    "a wall-clock deadline would make the exchange "
                    "schedule timing-dependent"
                )
        if self.deadline is None and self.max_iterations is None:
            raise ValueError("set a deadline, max_iterations, or both")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.exchange_interval is not None and self.exchange_interval < 1:
            raise ValueError(
                f"exchange_interval must be >= 1, got {self.exchange_interval}"
            )
        # the engines' shared network/platform validation
        EvaluationFields(network=self.network, platform=self.platform)


@dataclass(frozen=True)
class RaceResult:
    """Outcome of one portfolio race.

    ``islands`` holds each island's condensed
    :class:`~repro.portfolio.islands.IslandOutcome`; the global winner
    is the cost-minimal island (ties broken by lowest island id, so the
    pick is deterministic whenever the island results are).
    """

    workload: str
    islands: Tuple[IslandOutcome, ...]
    best_makespan: float
    best_string: dict
    best_island: int
    wall_seconds: float
    config: RaceConfig = field(repr=False, default=None)

    @property
    def best_kind(self) -> str:
        """Engine kind of the winning island."""
        return self.islands[self.best_island].kind

    @property
    def evaluations(self) -> int:
        """Total simulator calls across all islands."""
        return sum(o.evaluations for o in self.islands)

    @property
    def iterations(self) -> int:
        """Total engine iterations across all islands."""
        return sum(o.iterations for o in self.islands)

    def combined_anytime(self) -> list:
        """The race-global anytime curve ``[(elapsed, best), ...]``.

        Each island's improvement events shift by its start offset onto
        one timeline; the merged curve keeps only strict improvements
        of the global best (ties keep the earliest arrival).
        """
        events = sorted(
            (o.start_offset + t, cost)
            for o in self.islands
            for t, cost in o.anytime
        )
        curve, best = [], float("inf")
        for t, cost in events:
            if cost < best:
                best = cost
                curve.append((t, cost))
        return curve

    def to_dict(self) -> dict:
        """JSON-safe summary (the CLI's ``--output`` payload)."""
        return {
            "workload": self.workload,
            "best_makespan": self.best_makespan,
            "best_island": self.best_island,
            "best_kind": self.best_kind,
            "best_string": self.best_string,
            "wall_seconds": self.wall_seconds,
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "combined_anytime": self.combined_anytime(),
            "islands": [
                {
                    "island": o.island,
                    "kind": o.kind,
                    "seed": o.seed,
                    "best_makespan": o.best_makespan,
                    "iterations": o.iterations,
                    "evaluations": o.evaluations,
                    "stopped_by": o.stopped_by,
                    "published": o.published,
                    "received": o.received,
                    "anytime": [list(e) for e in o.anytime],
                }
                for o in self.islands
            ],
        }


def _pick_best(outcomes: Sequence[IslandOutcome]) -> IslandOutcome:
    return min(outcomes, key=lambda o: (o.best_makespan, o.island))


def run_race(
    workload: Union[Workload, WorkloadSpec],
    config: Optional[RaceConfig] = None,
    engine_params: Optional[dict] = None,
) -> RaceResult:
    """Race a portfolio of engines on *workload*; see module docstring.

    Parameters
    ----------
    workload:
        The problem instance, or a :class:`WorkloadSpec` recipe (built
        once here, shipped to workers by pickle).
    config:
        The race parameters; defaults to ``RaceConfig()`` — all four
        engines, one island each, a 2 s deadline.
    engine_params:
        Optional per-kind config overrides, e.g. ``{"sa": {"cooling":
        0.9}}`` — applied on top of the race defaults (tests pin exact
        engine configs through this).
    """
    cfg = config or RaceConfig()
    if isinstance(workload, WorkloadSpec):
        workload = build_workload(workload)
    name = getattr(workload, "name", "") or "workload"

    specs = build_islands(
        cfg.engines,
        cfg.islands,
        cfg.seed,
        cfg.deadline,
        cfg.max_iterations,
        cfg.network,
        cfg.platform,
        interval=(
            cfg.sync_every
            if cfg.sync_every is not None
            else cfg.exchange_interval
        ),
        engine_params=engine_params,
    )

    t0 = time.perf_counter()
    epoch = time.time()
    if cfg.islands == 1:
        # solo runs skip the channel entirely: bit-identical to the
        # engine's own golden trajectory
        outcomes = [run_island(specs[0], workload, None, epoch)]
    elif cfg.sync_every is not None or cfg.mode == "thread":
        from repro.portfolio.exchange import LocalChannel, SyncChannel

        if cfg.sync_every is not None:
            channel = SyncChannel(len(specs))
        else:
            channel = LocalChannel()
        outcomes = _run_threads(specs, workload, epoch, channel)
    else:
        outcomes = _run_processes(specs, workload, epoch, cfg.workers)
    wall = time.perf_counter() - t0

    winner = _pick_best(outcomes)
    return RaceResult(
        workload=name,
        islands=tuple(sorted(outcomes, key=lambda o: o.island)),
        best_makespan=winner.best_makespan,
        best_string=winner.best_string,
        best_island=winner.island,
        wall_seconds=wall,
        config=cfg,
    )


def _run_threads(
    specs: Sequence[IslandSpec], workload: Workload, epoch: float, channel
) -> list[IslandOutcome]:
    """Every island on its own thread of this process, all trading
    through *channel*: a lockstep ``SyncChannel`` or a free-running
    ``LocalChannel``."""
    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        futures = [
            pool.submit(run_island, spec, workload, channel, epoch)
            for spec in specs
        ]
        return [f.result() for f in futures]


def _run_processes(
    specs: Sequence[IslandSpec],
    workload: Workload,
    epoch: float,
    workers: Optional[int],
) -> list[IslandOutcome]:
    import multiprocessing

    from repro.portfolio.exchange import SharedChannel

    max_workers = min(
        len(specs), workers if workers else (os.cpu_count() or 1)
    )
    with multiprocessing.Manager() as manager:
        channel = SharedChannel.create(manager)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(run_island, spec, workload, channel, epoch)
                for spec in specs
            ]
            return [f.result() for f in futures]
