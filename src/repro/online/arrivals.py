"""Job-arrival streams for the online scheduling service.

The offline library schedules one :class:`~repro.model.workload.Workload`
at a time.  The online service (:mod:`repro.online.simulator`) instead
consumes a :class:`JobStream` — a time-ordered sequence of
:class:`JobArrival` records, each carrying a declarative
:class:`~repro.workloads.presets.WorkloadSpec` whose ``t_arrival`` field
says *when* the job enters the system.  Streams come from two sources:

* :func:`poisson_stream` — a Poisson(λ) process with per-job seeds
  derived via :func:`~repro.utils.rng.derive_seed`, so the same
  ``(rate, num_jobs, template, seed)`` coordinates rebuild the exact
  same stream on any platform;
* :func:`load_trace` — a JSON trace file previously written by
  :func:`save_trace`, the replay path: a trace pins every arrival time
  and every job seed, so a service run over it is exactly repeatable.

Ties in arrival time are pinned to **generation order** (stable sort),
which the simulator's event heap preserves — simultaneous arrivals are
dispatched in the order the stream lists them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Sequence, Union

from repro.utils.rng import as_rng, derive_seed
from repro.workloads.presets import WorkloadSpec

#: Trace file schema version (bump on incompatible layout changes).
TRACE_VERSION = 1


@dataclass(frozen=True)
class JobArrival:
    """One job entering the service.

    ``spec.t_arrival`` is the authoritative arrival instant; ``job_id``
    is a stable label used in event logs and per-job records.
    """

    job_id: str
    spec: WorkloadSpec

    def __post_init__(self) -> None:
        t = self.spec.t_arrival
        if not (isinstance(t, (int, float)) and t >= 0.0 and t == t):
            raise ValueError(
                f"job {self.job_id!r} has invalid t_arrival {t!r}"
            )

    @property
    def t_arrival(self) -> float:
        return float(self.spec.t_arrival)


class JobStream:
    """A finite, time-ordered sequence of :class:`JobArrival`\\ s.

    Construction sorts by ``t_arrival`` with a **stable** sort, so jobs
    arriving at the same instant keep their given order (the service's
    documented tie-break).  All jobs must target the same machine count —
    the service owns one fixed pool of machines.
    """

    __slots__ = ("_arrivals", "_num_machines")

    def __init__(self, arrivals: Sequence[JobArrival]):
        arr = list(arrivals)
        seen: set[str] = set()
        for a in arr:
            if a.job_id in seen:
                raise ValueError(f"duplicate job_id {a.job_id!r}")
            seen.add(a.job_id)
        machines = {a.spec.num_machines for a in arr}
        if len(machines) > 1:
            raise ValueError(
                f"all jobs must share one machine pool, got sizes "
                f"{sorted(machines)}"
            )
        self._num_machines = machines.pop() if machines else 0
        self._arrivals: tuple[JobArrival, ...] = tuple(
            sorted(arr, key=lambda a: a.t_arrival)
        )

    @property
    def num_machines(self) -> int:
        """Machine-pool size (0 for the empty stream)."""
        return self._num_machines

    @property
    def arrivals(self) -> tuple[JobArrival, ...]:
        return self._arrivals

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[JobArrival]:
        return iter(self._arrivals)

    def __getitem__(self, i: int) -> JobArrival:
        return self._arrivals[i]

    def horizon(self) -> float:
        """Last arrival time (0 for the empty stream)."""
        return self._arrivals[-1].t_arrival if self._arrivals else 0.0


def poisson_stream(
    rate: float,
    num_jobs: int,
    template: WorkloadSpec,
    seed: int = 0,
) -> JobStream:
    """A Poisson(λ = *rate*) arrival stream of *num_jobs* jobs.

    Inter-arrival gaps are exponential with mean ``1/rate``; each job is
    *template* with its own derived seed (so every job is a distinct DAG
    of the same declarative class) and ``t_arrival`` set.  Fully
    deterministic in ``(rate, num_jobs, template, seed)``.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if num_jobs < 0:
        raise ValueError(f"num_jobs must be >= 0, got {num_jobs}")
    rng = as_rng(derive_seed("online-arrivals", seed))
    t = 0.0
    out = []
    for i in range(num_jobs):
        t += float(rng.exponential(1.0 / rate))
        spec = replace(
            template,
            seed=derive_seed("online-job", seed, i),
            t_arrival=t,
            name=f"job-{i:04d}",
        )
        out.append(JobArrival(job_id=f"job-{i:04d}", spec=spec))
    return JobStream(out)


def _spec_to_doc(spec: WorkloadSpec) -> dict:
    doc = {f.name: getattr(spec, f.name) for f in fields(WorkloadSpec)}
    if doc["seed"] is not None and not isinstance(doc["seed"], int):
        raise ValueError(
            "only integer (or None) spec seeds are trace-serialisable, "
            f"got {type(doc['seed']).__name__}"
        )
    return doc


def save_trace(stream: JobStream, path: Union[str, Path]) -> None:
    """Write *stream* as a replayable JSON trace file."""
    doc = {
        "version": TRACE_VERSION,
        "jobs": [
            {"job_id": a.job_id, "spec": _spec_to_doc(a.spec)}
            for a in stream
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_trace(path: Union[str, Path]) -> JobStream:
    """Load a trace written by :func:`save_trace`."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("version")
    if version != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version!r} (expected {TRACE_VERSION})"
        )
    known = {f.name for f in fields(WorkloadSpec)}
    arrivals = []
    for job in doc["jobs"]:
        spec_doc = {k: v for k, v in job["spec"].items() if k in known}
        arrivals.append(
            JobArrival(job_id=job["job_id"], spec=WorkloadSpec(**spec_doc))
        )
    return JobStream(arrivals)


def mean_job_work(template: WorkloadSpec, samples: int = 5) -> float:
    """Mean total execution work of one *template* job, in machine-time.

    Builds *samples* jobs with derived seeds and averages
    ``sum_t mean_m E[m, t]`` — the expected computing demand one job
    places on the pool.  Used to pick an arrival rate for a target
    utilisation (see :func:`rate_for_utilisation`).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    from repro.workloads.presets import build_workload

    total = 0.0
    for i in range(samples):
        w = build_workload(
            replace(template, seed=derive_seed("online-work-probe", i))
        )
        e = w.exec_times.values
        total += float(e.mean(axis=0).sum())
    return total / samples


def rate_for_utilisation(
    template: WorkloadSpec, utilisation: float, samples: int = 5
) -> float:
    """Arrival rate λ giving the pool an offered load of *utilisation*.

    Offered load ρ = λ · W / l with W the mean work per job
    (:func:`mean_job_work`) and l the machine count, so
    λ = ρ · l / W.  A value near 0.7 keeps the service busy but stable —
    the regime the benchmarks and the soak test target.
    """
    if not 0.0 < utilisation:
        raise ValueError(f"utilisation must be > 0, got {utilisation}")
    work = mean_job_work(template, samples=samples)
    if work <= 0:
        raise ValueError("template jobs have zero mean work")
    return utilisation * template.num_machines / work
