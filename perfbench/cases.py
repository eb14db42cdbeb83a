"""The benchmark's workloads: inputs from a seed, one episode per input,
and the checks on each episode's output.

A workload is a pool of inputs built from the seed.  One *pass* runs one
*episode* on every input of the pool, each to a fixed iteration cap, so
a pass is a fixed amount of work.  An episode is a closed loop of
*steps*: one client, and a step starts only after the previous one
returned.  Engines are driven through ``SimulatedEvolution.run`` and
``run_tabu``, the service through ``DynamicSimulator.run``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

import repro.online.simulator as online_simulator
from repro.core import SEConfig, SimulatedEvolution
from repro.online import (
    DynamicSimulator,
    ReoptConfig,
    poisson_stream,
    rate_for_utilisation,
)
from repro.optim.evaluation import EvaluationService
from repro.optim.tabu import TabuConfig, run_tabu
from repro.schedule.backend import make_simulator
from repro.schedule.timeline import verify_schedule
from repro.workloads import figure5_workload
from repro.workloads.presets import WorkloadSpec, build_workload

import calibrate

#: Jobs of the serve workload: 20 tasks on 8 machines.
JOB_TEMPLATE = WorkloadSpec(num_tasks=20, num_machines=8)
UTILISATION = 0.7
REOPT = ReoptConfig(interval=50.0, engine="tabu", max_iterations=40)
NEIGHBORHOOD = 24

#: Span that covers one step, per engine kind; its self time is the
#: engine's own work between the layer calls it makes.
STEP_SPANS = {"se": "core.step", "tabu": "optim.step", "serve": "online.reopt"}


@dataclass(frozen=True)
class Case:
    """One workload.

    ``kind`` is ``"se"``, ``"tabu"`` or ``"serve"``; ``pool`` is the
    number of inputs per pass; ``iterations`` the engine's iteration cap
    per episode; ``jobs`` the jobs per arrival stream (serve only);
    ``target_iteration`` fixes each episode's time-to-target goal as the
    best objective the run holds after that iteration;
    ``calibrate_every`` is the number of steps between two runs of the
    calibration unit (a count, not a time, so that the run allocates
    the same objects at the same steps every time); ``calibrator`` names
    the loop of :data:`calibrate.LOOPS` that slows like the case's steps.
    """

    name: str
    kind: str
    network: str
    pool: int
    iterations: int = 0
    jobs: int = 0
    target_iteration: int = 0
    calibrate_every: int = 1
    calibrator: str = "python"


#: The four workloads; README.md says why each exists.  Pools and caps
#: size one pass to 8-18 seconds on a 2-vCPU host, so that a 20-second
#: run makes one or two.  An SE episode is one iteration: SE step cost
#: follows the selection-set size, which shrinks over a run, so a mix
#: of iterations would make the step medians swing with the seed.
CASES = {
    c.name: c
    for c in (
        Case("se-plain", "se", "contention-free", pool=160, iterations=1,
             target_iteration=1),
        Case("se-nic", "se", "nic", pool=56, iterations=1, target_iteration=1),
        Case("tabu-plain", "tabu", "contention-free", pool=16, iterations=150,
             target_iteration=75, calibrate_every=3, calibrator="numpy"),
        Case("serve-nic", "serve", "nic", pool=32, jobs=6),
    )
}


def member_seed(seed: int, member: int) -> int:
    """Seed of pool input *member* of a run seeded *seed*."""
    return seed * 1000 + member


def build_inputs(case: Case, seed: int, count: Optional[int] = None) -> list:
    """The first *count* inputs of the pool (all by default): fig5
    workloads, or Poisson job streams for serve."""
    members = range(case.pool if count is None else count)
    if case.kind == "serve":
        rate = rate_for_utilisation(JOB_TEMPLATE, UTILISATION)
        return [
            poisson_stream(rate, case.jobs, JOB_TEMPLATE, member_seed(seed, i))
            for i in members
        ]
    return [figure5_workload(seed=member_seed(seed, i)) for i in members]


def build_service(case: Case, inp) -> EvaluationService:
    """The evaluation service the case's engine builds for *inp*."""
    if case.kind == "se":
        # SEConfig's default delta probes ask for no batch kernel
        return EvaluationService(inp, case.network, prefer_batch=False)
    if case.kind == "tabu":
        return EvaluationService(inp, case.network, prefer_batch=True)
    # one service per improve_residual call, against busy machines
    w = build_workload(inp[0].spec)
    busy = [1.0] * w.num_machines
    return EvaluationService(
        w, case.network, prefer_batch=True, initial_avail=busy,
        initial_nic_free=busy,
    )


class StepClock:
    """Times each step and runs the calibration unit between steps.

    Engines call :meth:`incoming` at the top of every step (it is their
    portfolio incumbent hook and never delivers one) and notify
    :meth:`observer` at its end.  ``busy()`` is wall time minus the
    calibration time spent so far.

    The calibration loop named *calibrator* runs after every
    *calibrate_every* steps.  The host's speed drifts between regimes
    that last seconds, so each step is normalised by the calibration
    samples taken just before and after it (:meth:`normalised`), not by
    a run-wide figure.
    """

    def __init__(
        self,
        tracer=None,
        step_span: str = "core.step",
        calibrate_every=1,
        calibrator: str = "python",
    ):
        self.tracer = tracer
        self._span = tracer.name_id(step_span) if tracer is not None else 0
        self.steps: list[float] = []
        self.step_ends: list[float] = []
        self.selected: list[int] = []
        self.calibrations: list[float] = []
        self.calibration_s = 0.0
        #: per step, the index of the first calibration sample after it
        self._next_cal: list[int] = []
        self._every = calibrate_every
        self._unit, self.reference_s = calibrate.LOOPS[calibrator]
        self._t0 = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        t = perf_counter()
        self.calibrations.append(self._unit())
        self.calibration_s += perf_counter() - t

    def busy(self) -> float:
        return perf_counter() - self.calibration_s

    def start(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.step = len(self.steps)
            tracer.enter(self._span)
        self._t0 = perf_counter()

    def stop(self) -> None:
        end = perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.exit()
            tracer.step = -1
        dur = end - self._t0
        self.steps.append(dur)
        self.step_ends.append(end - self.calibration_s)
        self._next_cal.append(len(self.calibrations))
        if len(self.steps) % self._every == 0:
            self._calibrate()

    def slowdown(self, i: int) -> float:
        """Host slowdown during step *i*: the mean of the calibration
        samples around it over the loop's reference time."""
        cal = self.calibrations
        k = self._next_cal[i]
        after = cal[k] if k < len(cal) else cal[k - 1]
        return (cal[k - 1] + after) / 2 / self.reference_s

    def normalised(self, first: int = 0, last: Optional[int] = None) -> list:
        """Step times ``first:last`` as on the reference host."""
        last = len(self.steps) if last is None else last
        return [self.steps[i] / self.slowdown(i) for i in range(first, last)]

    # engine hooks -----------------------------------------------------
    def incoming(self, iteration: int, current_cost: float) -> None:
        self.start()
        return None

    def observer(self, record, _string) -> None:
        self.stop()
        self.selected.append(record.num_selected or 0)


@dataclass
class Episode:
    """One episode's timings and output.

    Its steps are ``clock.steps[first_step:first_step + steps]``; the
    first ``target_steps`` of them reach the time-to-target goal (for
    the service: every job done).
    """

    member: int
    first_step: int
    steps: int
    objective: float
    time_to_target_s: float
    target_steps: int
    fingerprint: tuple
    result: Any = None
    selected: list = field(default_factory=list)


def make_engine(case: Case, inp, eseed: int, clock: Optional[StepClock] = None):
    """Configure the case's engine for one episode on *inp*; returns a
    zero-argument callable that runs it with *clock*'s step hooks."""
    if case.kind == "serve":
        service = DynamicSimulator(
            inp, network=case.network, policy="heft", reopt=REOPT, seed=eseed
        )
        return lambda: _run_serve(service, clock)
    hooks = {"observers": [clock.observer], "exchange": clock} if clock else {}
    if case.kind == "se":
        engine = SimulatedEvolution(
            SEConfig(seed=eseed, max_iterations=case.iterations,
                     network=case.network)
        )
        return lambda: engine.run(inp, **hooks)
    cfg = TabuConfig(
        seed=eseed,
        max_iterations=case.iterations,
        neighborhood_size=NEIGHBORHOOD,
        network=case.network,
    )
    return lambda: run_tabu(inp, cfg, **hooks)


def run_episode(
    case: Case, member: int, inp, seed: int, clock: StepClock
) -> Episode:
    """Run one episode on pool input *member*; steps land in *clock*."""
    first = len(clock.steps)
    began = clock.busy()
    result = make_engine(case, inp, member_seed(seed, member), clock)()
    busy = clock.busy() - began
    steps = len(clock.steps) - first
    if case.kind == "serve":
        return Episode(
            member, first, steps, result.metrics.mean_flow, busy, steps,
            (result.event_log_json(),), result,
        )
    best = result.trace.best_makespans()
    target = best[case.target_iteration - 1]
    hit = next(i for i, b in enumerate(best) if b <= target)
    return Episode(
        member,
        first,
        steps,
        result.best_makespan,
        clock.step_ends[first + hit] - began,
        hit + 1,
        (result.best_makespan, result.evaluations, result.iterations,
         tuple(result.best_string.order), tuple(result.best_string.machines)),
        result,
        clock.selected[first:],
    )


def _run_serve(service: DynamicSimulator, clock: StepClock):
    """One DynamicSimulator run; a step is one improve_residual call."""
    inner = online_simulator.improve_residual

    def step(*args, **kwargs):
        clock.start()
        out = inner(*args, **kwargs)
        clock.stop()
        if clock.tracer is not None:
            clock.tracer.count("online.reopt_calls")
            clock.tracer.count("online.reopt_improved", int(out[2]))
        return out

    online_simulator.improve_residual = step
    try:
        return service.run()
    finally:
        online_simulator.improve_residual = inner


def check_episode(case: Case, inp, ep: Episode) -> list[str]:
    """Output checks; returns one message per failed check."""
    if case.kind == "serve":
        return check_event_log(inp, ep.result.events, ep.steps)
    result = ep.result
    errors = []
    sim = make_simulator(inp, case.network)
    rescored = sim.string_makespan(result.best_string)
    if rescored != result.best_makespan:
        errors.append(
            f"member {ep.member}: best makespan {result.best_makespan!r} "
            f"but a fresh simulator scores {rescored!r}"
        )
    if case.network == "contention-free":
        try:
            verify_schedule(inp, sim.evaluate(result.best_string))
        except AssertionError as exc:
            errors.append(f"member {ep.member}: invalid schedule: {exc}")
    return errors


def check_event_log(stream, events, steps: Optional[int] = None) -> list[str]:
    """Every job done once, every task done once, time never decreasing,
    and (when *steps* is given) one re-optimisation step per rolled-back
    job."""
    errors = []
    jobs = Counter(e["job"] for e in events if e["type"] == "job_done")
    tasks = Counter(
        (e["job"], e["task"]) for e in events if e["type"] == "task_done"
    )
    for arr in stream:
        if jobs[arr.job_id] != 1:
            errors.append(f"{arr.job_id}: {jobs[arr.job_id]} job_done events")
        for t in range(arr.spec.num_tasks):
            if tasks[(arr.job_id, t)] != 1:
                errors.append(
                    f"{arr.job_id} task {t}: {tasks[(arr.job_id, t)]} "
                    "task_done events"
                )
    if len(jobs) != len(stream) or len(tasks) != sum(
        a.spec.num_tasks for a in stream
    ):
        errors.append("events name jobs or tasks outside the stream")
    times = [e["t"] for e in events]
    if any(b < a for a, b in zip(times, times[1:])):
        errors.append("event times decrease")
    if steps is not None:
        rolled = sum(e["rolled_back"] for e in events if e["type"] == "reopt")
        if rolled != steps:
            errors.append(f"{steps} re-optimisation steps for {rolled} rollbacks")
    return errors
