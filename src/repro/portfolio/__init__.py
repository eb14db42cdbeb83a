"""Anytime parallel portfolio search: race every engine, share the best.

The answer to "a user submits a job and wants the best schedule in 2
seconds": shard SE / GA / SA / tabu (plus seeded restarts) across a
worker pool, let them trade best-so-far strings mid-run through an
incumbent channel, and return the global best at the deadline together
with per-island and combined anytime curves.

Quickstart (executable — CI runs it under ``--doctest-modules``):

    >>> from repro.portfolio import RaceConfig, run_race
    >>> from repro.workloads import small_workload
    >>> w = small_workload(seed=3)
    >>> res = run_race(w, RaceConfig(
    ...     engines=("se", "tabu"), islands=2, deadline=None,
    ...     max_iterations=6, sync_every=3, seed=1))
    >>> len(res.islands)
    2
    >>> res.best_makespan == min(o.best_makespan for o in res.islands)
    True

Layers:

* :mod:`repro.portfolio.exchange` — the incumbent channels (in-process,
  manager-backed cross-process, deterministic lockstep) and the
  :class:`IncumbentExchange` observer/source endpoint;
* :mod:`repro.portfolio.islands` — island specs, per-engine race
  defaults, and the worker-side :func:`run_island` entry point;
* :mod:`repro.portfolio.driver` — :func:`run_race` over the three
  execution modes, :class:`RaceConfig`, :class:`RaceResult`.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.portfolio.driver": ("MODES", "RaceConfig", "RaceResult", "run_race"),
        "repro.portfolio.exchange": (
            "EXTERNAL_SOURCE",
            "IncumbentExchange",
            "LocalChannel",
            "SharedChannel",
            "SyncChannel",
        ),
        "repro.portfolio.islands": (
            "DEFAULT_INTERVALS",
            "ENGINE_KINDS",
            "IslandOutcome",
            "IslandSpec",
            "build_islands",
            "run_island",
        ),
    },
)
