"""A finished run's job views rebuild what the run committed.

:class:`~repro.online.simulator.CommittedJobView` keeps each job's
string and the machine state it was last scored against, and rebuilds
``schedule`` / ``evaluated`` on first read.  These tests pin that the
rebuilt schedules are ``==`` to the run's own last commitment of every
job, on both networks, with and without re-optimisation windows that
re-commit jobs, on both walker tiers; that a kept result holds no
schedule and no workload until a view is read; and that the run itself
lets go of a job's workload once the job has finished.
"""

import gc
import types
import weakref
from dataclasses import replace

import pytest

from repro.extensions.contention import ContentionSchedule
from repro.model.workload import Workload
from repro.online import (
    DynamicSimulator,
    JobArrival,
    JobStream,
    ReoptConfig,
    poisson_stream,
    rate_for_utilisation,
)
from repro.online import simulator as online_simulator
from repro.schedule.simulator import Schedule
from repro.workloads.presets import WorkloadSpec
from tests.routes import walker

TEMPLATE = WorkloadSpec(num_tasks=8, num_machines=3)
NETWORKS = ("contention-free", "nic")
REOPT = ReoptConfig(interval=30.0, engine="tabu", max_iterations=6)


def stream():
    rate = rate_for_utilisation(TEMPLATE, 0.9)
    return poisson_stream(rate, 10, TEMPLATE, seed=5)


def run_spied(monkeypatch, stream, network, reopt):
    """Run the service; returns the result and, per job index, the
    commitments the run made (``(schedule, evaluated)``, in order)."""
    commits = {}
    inner = online_simulator.DynamicSimulator._evaluate_committed

    def spy(self, job, *args):
        inner(self, job, *args)
        commits.setdefault(job.index, []).append((job.schedule, job.evaluated))

    monkeypatch.setattr(
        online_simulator.DynamicSimulator, "_evaluate_committed", spy
    )
    result = DynamicSimulator(
        stream, network=network, policy="heft", reopt=reopt, seed=3
    ).run()
    return result, commits


def reachable(root):
    """Every object reachable from *root* through ``gc.get_referents``,
    not descending into classes, modules or code."""
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType)
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def holds(root, kinds):
    return any(isinstance(obj, kinds) for obj in reachable(root))


@pytest.mark.parametrize("tier", ["python", "compiled"])
@pytest.mark.parametrize("reopt", [None, REOPT], ids=["no-reopt", "reopt"])
@pytest.mark.parametrize("network", NETWORKS)
def test_views_rebuild_the_last_commitment(monkeypatch, network, reopt, tier):
    with walker(tier):
        result, commits = run_spied(monkeypatch, stream(), network, reopt)
        if reopt is not None:
            # the windows must re-commit jobs, or the case shows nothing
            assert max(len(c) for c in commits.values()) >= 2
        assert len(result.jobs) == len(commits)
        for index, view in enumerate(result.jobs):
            schedule, evaluated = commits[index][-1]
            assert view.schedule.start == schedule.start
            assert view.schedule.finish == schedule.finish
            assert view.schedule == schedule
            if network == "nic":
                assert view.evaluated.transfers == evaluated.transfers
            else:
                assert view.evaluated == evaluated


@pytest.mark.parametrize("network", NETWORKS)
def test_a_kept_result_holds_no_schedule_until_a_view_is_read(network):
    result = DynamicSimulator(
        stream(), network=network, policy="heft", reopt=REOPT, seed=3
    ).run()
    held = (Schedule, ContentionSchedule, Workload)
    assert not holds(result, held)
    view = result.jobs[0]
    assert view.schedule.makespan > 0.0
    assert holds(result, Schedule)
    assert not holds(result.jobs[1:], held)


def test_a_job_without_an_integer_seed_keeps_its_workload(monkeypatch):
    """Building a seedless spec again would draw another DAG, so its
    view keeps the run's workload and still rebuilds the commitment."""
    arrivals = [
        JobArrival("a", replace(TEMPLATE, seed=None, t_arrival=0.0)),
        JobArrival("b", replace(TEMPLATE, seed=7, t_arrival=1.0)),
    ]
    result, commits = run_spied(monkeypatch, JobStream(arrivals), "nic", None)
    seedless, seeded = result.jobs
    assert isinstance(seedless.workload, Workload)
    assert seeded.workload is None
    for index, view in enumerate(result.jobs):
        schedule, evaluated = commits[index][-1]
        assert view.schedule == schedule
        assert view.evaluated.transfers == evaluated.transfers


class _Tracked(Workload):
    """A workload a weak reference can follow."""

    __slots__ = ("__weakref__",)


def test_a_finished_seeded_job_lets_go_of_its_workload(monkeypatch):
    """A job whose ``job_done`` has fired can never be rolled back, so
    the run drops its workload then: at the last arrival of a long
    stream, no workload of a job finished by then is still alive."""
    jobs = poisson_stream(
        rate_for_utilisation(TEMPLATE, 0.7), 40, TEMPLATE, seed=11
    )
    refs = []
    alive_at_last_arrival = set()
    inner = online_simulator.build_workload

    def tracked(spec):
        if len(refs) == len(jobs) - 1:
            gc.collect()
            alive_at_last_arrival.update(
                i for i, ref in enumerate(refs) if ref() is not None
            )
        w = inner(spec)
        w = _Tracked(
            w.graph, w.exec_times, w.transfer_times, w.classification, w.name
        )
        refs.append(weakref.ref(w))
        return w

    monkeypatch.setattr(online_simulator, "build_workload", tracked)
    result = DynamicSimulator(
        jobs, network="nic", policy="heft", reopt=REOPT, seed=3
    ).run()
    assert len(refs) == len(jobs)  # one build per arrival, none by views
    t_last = jobs[len(jobs) - 1].t_arrival
    done = {r.job_id: r.t_completed for r in result.records}
    # job_done runs before an arrival at the same instant
    finished = {i for i, a in enumerate(jobs) if done[a.job_id] <= t_last}
    assert len(finished) >= len(jobs) // 2  # or the case shows nothing
    assert not finished & alive_at_last_arrival
