"""The parallel experiment runner: spec in, results out.

:func:`run_experiment` expands an
:class:`~repro.runner.spec.ExperimentSpec` into cells and executes them —
inline for ``workers=1``, on a :class:`~concurrent.futures.
ProcessPoolExecutor` otherwise.  Three properties the rest of the repo
relies on:

* **Determinism** — per-cell seeds derive from the cell coordinates
  (see :func:`repro.runner.spec.derive_seed`), and results are returned
  in canonical cell order, so the outcome is identical for any worker
  count and any completion order (wall-clock-limited cells excepted:
  their RNG streams are still deterministic but their stopping point is
  physical time).
* **Resume** — with a ``cache_dir``, every finished cell persists
  immediately as one JSON file keyed by a content fingerprint; re-running
  the same experiment skips finished cells, and a changed algorithm
  parameter or workload recipe changes the fingerprint and forces a
  re-run of exactly the affected cells.
* **Progress** — an optional callback fires after every finished cell;
  :func:`print_progress` is a ready-made stderr reporter.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Callable, Optional

from repro.runner.registry import resolve_algorithm
from repro.runner.results import (
    RESULT_SCHEMA_VERSION,
    CellResult,
    ExperimentResult,
)
from repro.runner.spec import ExperimentCell, ExperimentSpec
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    resolve_platform,
)
from repro.schedule.metrics import normalized_makespan
from repro.workloads.presets import build_workload

#: Progress callback: (cells done, cells total, the cell that finished,
#: True when served from cache).
ProgressFn = Callable[[int, int, CellResult, bool], None]


def _platform_view(workload, platform: str):
    """``(effective workload, cost model | None)`` for a cell's platform.

    The effective workload carries the platform's speed-scaled matrix
    (the original object on ``"uniform"``), so normalized makespans are
    measured against the bounds of the machines the cell actually ran
    on.  Unknown platform names (a worker without a downstream
    registration) degrade to the uniform view instead of crashing.
    """
    try:
        spec = resolve_platform(platform)
    except ValueError:
        return workload, None
    if spec.is_uniform:
        return workload, None
    from repro.schedule.scoring import CostModel

    bound = spec.bind(workload.num_machines)
    scaled = bound.apply(workload)
    return scaled, CostModel(scaled.exec_times.values, bound.prices)


def _cell_cost(cost_model, outcome) -> float:
    """Dollar cost of the cell's winning schedule.

    Billing is per-task (cost depends only on the machine assignment),
    so the ``best_string`` extras payload is enough — no re-simulation.
    Cells without one (custom registry entries) report 0.0.
    """
    best = outcome.extras.get("best_string")
    if cost_model is None or best is None:
        return 0.0
    try:
        return float(cost_model.cost(best["machines"]))
    except (KeyError, ValueError, TypeError):
        return 0.0


def run_cell(cell: ExperimentCell) -> CellResult:
    """Execute one cell (this is the function worker processes run).

    The workload is rebuilt per cell (specs must stay picklable), but
    the expensive part — deriving the batch kernels'
    :class:`~repro.schedule.vectorized.WorkloadPack` tensors — is not:
    every kernel construction resolves through the per-process
    fingerprint-keyed pack cache
    (:func:`~repro.schedule.vectorized.get_workload_pack`), so a sweep
    with many cells over few workloads packs each workload once per
    worker process instead of once per cell.
    """
    workload = build_workload(cell.workload)
    fn = resolve_algorithm(cell.algo.kind)
    params = cell.algo.params_dict()
    # record the seed the algorithm actually uses: an explicit params
    # seed overrides the derived per-cell seed (see registry._seed_of);
    # bool is an int subclass, so seed=True must not be recorded as 1
    effective_seed = params.get("seed", cell.seed)
    if not isinstance(effective_seed, int) or isinstance(
        effective_seed, bool
    ):
        effective_seed = cell.seed
    t0 = time.perf_counter()
    outcome = fn(workload, cell.seed, params)
    runtime = time.perf_counter() - t0
    cls = workload.classification
    platform = str(params.get("platform", DEFAULT_PLATFORM))
    effective, cost_model = _platform_view(workload, platform)
    return CellResult(
        cell_id=cell.cell_id(),
        algorithm=cell.algorithm,
        workload=cell.workload_name,
        connectivity=cls.connectivity,
        heterogeneity=cls.heterogeneity,
        ccr=float(cls.ccr) if cls.ccr is not None else float("nan"),
        num_tasks=workload.num_tasks,
        num_machines=workload.num_machines,
        seed=effective_seed,
        network=str(params.get("network", DEFAULT_NETWORK)),
        platform=platform,
        cost=_cell_cost(cost_model, outcome),
        objective=str(params.get("objective", "makespan")),
        scenarios=int(params.get("scenarios", 0) or 0),
        makespan=float(outcome.makespan),
        normalized=normalized_makespan(effective, float(outcome.makespan)),
        evaluations=outcome.evaluations,
        iterations=outcome.iterations,
        stopped_by=outcome.stopped_by,
        runtime_seconds=runtime,
        trace=outcome.trace_rows,
        extras=outcome.extras,
    )


def workers_from_env(default: int = 1, var: str = "REPRO_WORKERS") -> int:
    """Worker count from the environment (used by the benchmarks).

    ``REPRO_WORKERS=8 pytest benchmarks`` fans every runner-backed
    benchmark out over 8 processes; unset/invalid values fall back to
    *default* (serial — the reproducible configuration for timing runs).
    """
    raw = os.environ.get(var, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def print_progress(done: int, total: int, cell: CellResult, cached: bool) -> None:
    """Default progress reporter: one stderr line per finished cell."""
    src = "cache" if cached else f"{cell.runtime_seconds:.1f}s"
    sys.stderr.write(
        f"[{done:>{len(str(total))}}/{total}] {cell.algorithm} on "
        f"{cell.workload}: makespan {cell.makespan:.1f} ({src})\n"
    )


def _cache_path(cache_dir: Path, cell: ExperimentCell, with_traces: bool) -> Path:
    mode = "t" if with_traces else "p"
    return cache_dir / f"{cell.cell_id()}.{mode}{cell.fingerprint()[:16]}.json"


def _load_cached(path: Path) -> Optional[CellResult]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if doc.get("version") != RESULT_SCHEMA_VERSION:
        return None
    try:
        return CellResult.from_dict(doc["cell"])
    except TypeError:
        return None


def warmup_worker() -> bool:
    """Per-process warmup of the compiled kernel tier (pool initializer).

    When the jit tier is active, the first batch evaluation in a fresh
    worker pays the one-off numba compile (seconds); a sweep with many
    workers pays it once *per worker*, and a deadline-bound portfolio
    race would burn its budget compiling.  Calling
    :func:`repro.schedule.jit.warmup` in the pool initializer moves that
    cost before any cell/island work starts.  Without numba (the
    ``sequential`` tier) this is a cheap no-op returning False.
    """
    from repro.schedule import jit

    return jit.numba_available() and jit.warmup()


def _tmp_path(path: Path) -> Path:
    """A per-process scratch sibling of *path*.

    Several runner processes may share one ``cache_dir`` (parallel
    shards, or two sweeps resuming the same cache); a fixed ``.tmp``
    name would let them scribble over each other's half-written files
    mid-flight.  The pid suffix keeps writers disjoint; the final
    ``replace`` stays atomic either way.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def _store_cached(path: Path, result: CellResult) -> None:
    payload = json.dumps(
        {"version": RESULT_SCHEMA_VERSION, "cell": result.to_dict()}
    )
    tmp = _tmp_path(path)
    try:
        tmp.write_text(payload)
        tmp.replace(path)  # atomic: a crash never leaves a torn cache entry
    except BaseException:
        # a failed write/rename must not leak the pid-suffixed scratch
        # file into the cache dir (resume scans would accumulate them)
        tmp.unlink(missing_ok=True)
        raise


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    cache_dir: Optional[str | Path] = None,
    progress: Optional[ProgressFn] = None,
    keep_traces: bool = True,
) -> ExperimentResult:
    """Run every cell of *spec*; see the module docstring for guarantees.

    Parameters
    ----------
    workers:
        Process count; ``1`` runs inline (no pool, easiest to debug).
    cache_dir:
        Directory for per-cell resume files; ``None`` disables caching.
    progress:
        Callback fired after every cell (including cache hits).
    keep_traces:
        ``False`` strips convergence traces from results *and* cache
        files — much smaller artifacts when only makespans matter.
        Plain and with-trace cache entries are kept apart, so flipping
        the flag re-runs rather than silently losing data.
    """
    cells = spec.cells()
    total = len(cells)
    results: dict[int, CellResult] = {}
    done = 0

    cache: Optional[Path] = None
    if cache_dir is not None:
        cache = Path(cache_dir)
        cache.mkdir(parents=True, exist_ok=True)

    def finish(cell: ExperimentCell, result: CellResult, cached: bool) -> None:
        nonlocal done
        if not keep_traces:
            result.trace = None
        if cache is not None and not cached:
            _store_cached(_cache_path(cache, cell, keep_traces), result)
        results[cell.index] = result
        done += 1
        if progress is not None:
            progress(done, total, result, cached)

    pending: list[ExperimentCell] = []
    for cell in cells:
        hit = None
        if cache is not None:
            hit = _load_cached(_cache_path(cache, cell, keep_traces))
        if hit is not None:
            finish(cell, hit, cached=True)
        else:
            pending.append(cell)

    if workers <= 1 or len(pending) <= 1:
        for cell in pending:
            finish(cell, run_cell(cell), cached=False)
    else:
        max_workers = min(workers, len(pending))
        with ProcessPoolExecutor(
            max_workers=max_workers, initializer=warmup_worker
        ) as pool:
            futures = {pool.submit(run_cell, cell): cell for cell in pending}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for fut in finished:
                    finish(futures[fut], fut.result(), cached=False)

    ordered = [results[i] for i in sorted(results)]
    return ExperimentResult(name=spec.name, cells=ordered)
