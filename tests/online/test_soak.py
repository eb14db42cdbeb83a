"""Soak test: the service under sustained load, 1000+ jobs.

Marked ``slow`` and excluded from the default (tier-1) run; CI's
dedicated slow job runs it with ``pytest -m slow``.  The point is scale:
invariants that hold on 4-job property examples must survive a thousand
jobs of Poisson traffic at ~0.7 offered load, with re-optimisation
windows firing throughout, in bounded memory and sane wall time.

"Bounded memory" is pinned as a per-job cap on the bytes the finished
result keeps (tracemalloc over the run): its job views keep each job's
string and scored-against state, not its schedule or workload.
"""

import gc
import tracemalloc

import pytest

from repro.online import (
    DynamicSimulator,
    ReoptConfig,
    poisson_stream,
    rate_for_utilisation,
)
from repro.workloads.presets import WorkloadSpec

pytestmark = pytest.mark.slow

TEMPLATE = WorkloadSpec(num_tasks=6, num_machines=4)
NUM_JOBS = 1000
#: Bytes a finished 1000-job result may keep per job.  The result keeps
#: ~2,870 B per job (events, records, views); when the views kept every
#: evaluated schedule it kept ~3,920 B (Python 3.11).
KEPT_BYTES_PER_JOB = 3_400


def _run(stream):
    reopt = ReoptConfig(interval=10_000.0, engine="tabu", max_iterations=8)
    return DynamicSimulator(
        stream, network="nic", policy="heft", reopt=reopt, seed=1
    ).run()


@pytest.fixture(scope="module")
def soak_run():
    """``(stream, result, bytes the result keeps)``."""
    rate = rate_for_utilisation(TEMPLATE, 0.7)
    stream = poisson_stream(rate, NUM_JOBS, TEMPLATE, seed=123)
    # a short run first, so imports and one-off caches are not counted
    _run(poisson_stream(rate, 5, TEMPLATE, seed=1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = _run(stream)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return stream, result, kept


@pytest.fixture(scope="module")
def soak_result(soak_run):
    stream, result, _ = soak_run
    return stream, result


class TestSoak:
    def test_every_job_completes(self, soak_result):
        stream, result = soak_result
        assert result.metrics.num_jobs == NUM_JOBS
        assert len(result.jobs) == NUM_JOBS
        completed = {r.job_id for r in result.records}
        assert completed == {a.job_id for a in stream}

    def test_conservation_at_scale(self, soak_result):
        stream, result = soak_result
        per_job: dict[str, int] = {}
        for e in result.events:
            if e["type"] == "task_done":
                per_job[e["job"]] = per_job.get(e["job"], 0) + 1
        assert all(
            per_job[a.job_id] == a.spec.num_tasks for a in stream
        )

    def test_event_log_is_monotone(self, soak_result):
        _, result = soak_result
        times = [e["t"] for e in result.events]
        assert times == sorted(times)

    def test_flow_times_are_positive_and_finite(self, soak_result):
        _, result = soak_result
        for r in result.records:
            assert 0.0 < r.flow_time < float("inf")
            assert r.t_completed >= r.t_arrival

    def test_throughput_tracks_arrival_rate(self, soak_result):
        """At stable load the service drains what arrives: long-run
        throughput within 20% of the offered rate."""
        stream, result = soak_result
        rate = (len(stream) - 1) / (
            stream.horizon() - stream[0].t_arrival
        )
        assert result.metrics.throughput == pytest.approx(rate, rel=0.20)

    def test_latency_stays_bounded(self, soak_result):
        """No runaway queueing: p99 flow within a small multiple of the
        mean (the stream is stable at 0.7 load, not saturated)."""
        _, result = soak_result
        m = result.metrics
        assert m.p99_flow <= 20.0 * m.mean_flow
        assert m.max_flow <= 40.0 * m.mean_flow

    def test_kept_memory_is_bounded_per_job(self, soak_run):
        _, result, kept = soak_run
        assert len(result.jobs) == NUM_JOBS
        assert kept / NUM_JOBS <= KEPT_BYTES_PER_JOB

    def test_replay_at_scale(self, soak_result):
        """The full 1000-job run replays identically (metrics-level
        check; the byte-level guarantee is pinned on smaller runs)."""
        stream, result = soak_result
        again = _run(stream)
        assert again.metrics == result.metrics
        assert len(again.events) == len(result.events)
