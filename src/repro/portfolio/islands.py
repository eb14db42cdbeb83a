"""Island construction and execution: one engine run per island.

An :class:`IslandSpec` is the picklable recipe for one island — engine
kind, derived seed, flat config overrides, exchange interval — built by
:func:`build_islands` from a :class:`~repro.portfolio.driver.RaceConfig`.
Islands cycle through the requested engine kinds; once every kind has an
island, further islands are seeded *restarts* (same kind, fresh RNG
stream via :func:`~repro.utils.rng.derive_seed`).

:func:`run_island` executes one spec against a workload — inside a
worker process, a thread, or inline — wiring the island's
:class:`~repro.portfolio.exchange.IncumbentExchange` into the engine as
both observer (publish) and incumbent source (poll), and condenses the
result into a picklable :class:`IslandOutcome` whose ``anytime`` list
carries only the improvement events ``(elapsed_seconds, best)`` of the
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.model.workload import Workload
from repro.runner.registry import ENGINE_KINDS, ENGINES, string_pairs
from repro.runner.registry import UNBOUNDED  # noqa: F401  (re-export)
from repro.utils.rng import derive_seed

#: Default poll stride per engine kind, tuned to iteration granularity:
#: an SA proposal is ~25 µs while a shared-channel poll is ~0.1 ms, so
#: SA polls every 500th proposal; SE/GA/tabu iterations cost hundreds of
#: evaluations each, so a poll every 5-10 iterations is already <1%.
DEFAULT_INTERVALS = {"se": 5, "ga": 5, "sa": 500, "tabu": 10}

#: Island-only overrides: SA records every 100th proposal (plus every
#: improvement), coarser than the table's wall-clock stride, so a
#: multi-second race cannot grow an unbounded trace.
ISLAND_OVERRIDES = {"sa": {"record_every": 100}}


@dataclass(frozen=True)
class IslandSpec:
    """Picklable recipe for one island's engine run."""

    island: int
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    interval: int = 10


@dataclass(frozen=True)
class IslandOutcome:
    """Picklable result of one island (see :func:`run_island`)."""

    island: int
    kind: str
    seed: int
    best_makespan: float
    best_string: dict
    iterations: int
    evaluations: int
    stopped_by: str
    published: int
    received: int
    start_offset: float
    runtime_seconds: float
    #: improvement events: ``[(elapsed_seconds, best_makespan), ...]``
    anytime: list


def engine_defaults(
    kind: str,
    deadline: Optional[float],
    max_iterations: Optional[int],
    network: str,
    platform: str,
) -> dict:
    """The flat config-override dict for a race island of *kind*.

    Deadline-driven islands get an unbounded iteration cap and no stall
    rule (an island that stops early would idle its core), on top of
    the engine table's limits and :data:`ISLAND_OVERRIDES`.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; expected one of "
            f"{', '.join(ENGINE_KINDS)}"
        )
    entry = ENGINES[kind]
    return {
        "network": network,
        "platform": platform,
        **entry.limits(max_iterations, deadline),
        entry.stall: None,
        **ISLAND_OVERRIDES.get(kind, {}),
    }


def build_islands(
    engines: Sequence[str],
    islands: int,
    base_seed: int,
    deadline: Optional[float],
    max_iterations: Optional[int],
    network: str,
    platform: str,
    interval: Optional[int] = None,
    engine_params: Optional[dict] = None,
) -> list[IslandSpec]:
    """Expand a race configuration into per-island specs.

    Island *i* runs ``engines[i % len(engines)]``; its seed derives from
    ``(base_seed, "island", i, kind)`` so any island subset reproduces
    independently of worker count.  The one exception is a single-island
    race: it keeps ``base_seed`` verbatim, which is what makes
    ``--islands 1`` bit-identical to the engine's solo golden run.
    *engine_params*, keyed by kind, overrides the race defaults field by
    field (tests pin exact engine configs through it).
    """
    if islands < 1:
        raise ValueError(f"islands must be >= 1, got {islands}")
    if not engines:
        raise ValueError("engines must name at least one engine kind")
    specs = []
    overrides = engine_params or {}
    for i in range(islands):
        kind = engines[i % len(engines)]
        params = engine_defaults(
            kind, deadline, max_iterations, network, platform
        )
        params.update(overrides.get(kind, {}))
        seed = (
            base_seed
            if islands == 1
            else derive_seed(base_seed, "island", i, kind)
        )
        specs.append(
            IslandSpec(
                island=i,
                kind=kind,
                seed=seed,
                params=params,
                interval=(
                    interval
                    if interval is not None
                    else DEFAULT_INTERVALS[kind]
                ),
            )
        )
    return specs


def _improvement_events(trace) -> list:
    """Compress a trace to its strict best-so-far improvements."""
    events, best = [], float("inf")
    for r in trace:
        if r.best_makespan < best:
            best = r.best_makespan
            events.append((float(r.elapsed_seconds), float(best)))
    return events


def run_island(
    spec: IslandSpec,
    workload: Workload,
    channel=None,
    race_epoch: Optional[float] = None,
) -> IslandOutcome:
    """Run one island's engine; the worker-process entry point.

    With a *channel*, the island's :class:`IncumbentExchange` is wired
    into the engine as observer + incumbent source; its ``finish()``
    always runs (even on an engine crash) so a lockstep channel never
    deadlocks the other islands.  ``race_epoch`` is a ``time.time()``
    stamp taken by the driver; the offset of this island's start against
    it aligns per-island trace clocks into one race-global timeline.
    """
    import time

    from repro.portfolio.exchange import IncumbentExchange

    exchange = None
    if channel is not None:
        exchange = IncumbentExchange(channel, spec.island, spec.interval)
    observers = (exchange,) if exchange is not None else ()

    start = time.time()
    offset = 0.0 if race_epoch is None else max(0.0, start - race_epoch)
    t0 = time.perf_counter()
    try:
        entry = ENGINES[spec.kind]
        res = entry.run(
            workload,
            entry.build(seed=spec.seed, **spec.params),
            observers=observers,
            exchange=exchange,
        )
    finally:
        if exchange is not None:
            exchange.finish()
    runtime = time.perf_counter() - t0

    return IslandOutcome(
        island=spec.island,
        kind=spec.kind,
        seed=spec.seed,
        best_makespan=float(res.best_makespan),
        best_string=string_pairs(res.best_string),
        iterations=getattr(res, entry.counts),
        evaluations=res.evaluations,
        stopped_by=res.stopped_by,
        published=exchange.published if exchange is not None else 0,
        received=exchange.received if exchange is not None else 0,
        start_offset=offset,
        runtime_seconds=runtime,
        anytime=_improvement_events(res.trace),
    )
