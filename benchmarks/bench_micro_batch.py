"""MICRO-BATCH — microbenchmarks of the evaluation service's batch route.

GA populations, random-search chunks and tabu neighbourhoods are scored
through :meth:`~repro.optim.evaluation.EvaluationService.batch_makespans`.
Without numba the service runs a batch as a loop over its scalar
backend, on the compiled C walker (:mod:`repro.schedule.walker`); with
numba it runs the network's ``jit`` kernel.  These benches time that
default route, on the compiled walker, against the historical
denominator — a loop of Python-walker ``makespan`` calls — at paper
scale (100 tasks, 20 machines), in exactly the call patterns the
engines use:

* MICRO-BATCH-GA     — one GA generation's population fitness (the
  headline number, population 128);
* MICRO-BATCH-SCALE  — the same at population 16 / 64 / 256;
* MICRO-BATCH-RAND   — random search end to end, chunked default
  against ``batch_size=1`` on the Python walker;
* MICRO-BATCH-SE     — the SE allocation probe stream: the batch route
  and the incremental-delta path against Python full makespans;
* MICRO-BATCH-NIC    — 128 schedules under NIC contention against the
  Python ``ContentionSimulator`` loop;
* MICRO-BATCH-NIC-GA — one GA generation's population fitness under
  ``network="nic"``.

Every case first asserts the two sides agree bit-for-bit, then times
them interleaved and records the ratios both as human-readable
artifacts and as :mod:`repro.perf` records in
``benchmarks/output/BENCH_micro.json`` for the CI perf gate.  Assertion
floors are deliberately far below the expected ratios so a loaded CI
machine cannot flake the suite; the *gate* lives in ``repro perf
check`` against the committed baseline.
"""

import numpy as np
import pytest

from repro.baselines.ga.chromosome import initial_population
from repro.baselines.random_search import random_search
from repro.extensions.contention import ContentionSimulator
from repro.optim.evaluation import EvaluationService
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import Simulator
from repro.schedule.valid_range import machine_slot_indices
from repro.schedule.walker import load
from repro.utils.rng import as_rng
from repro.workloads import figure5_workload
from walkers import best_of_interleaved, python_walker

#: The batch route runs on the compiled walker (opting out of the
#: Python-walker pin in ``conftest.py``), the denominators on the
#: Python one.
pytestmark = [
    pytest.mark.walker("compiled"),
    pytest.mark.skipif(
        load()[0] is None, reason=f"compiled walker unavailable: {load()[1]}"
    ),
]


def paper_scale_workload():
    return figure5_workload(seed=1)


def _python_tier(cls, workload):
    """A *cls* simulator of *workload* on the Python walker."""
    with python_walker():
        sim = cls(workload)
    assert sim.walker_tier == "python"
    return sim


def _service(workload, network="contention-free"):
    """The default evaluation service, on the compiled walker."""
    svc = EvaluationService(workload, network)
    assert svc.walker_tier == "compiled"
    return svc


def _population(workload, size, seed=7):
    rng = as_rng(seed)
    return initial_population(
        workload.graph, workload.num_machines, size, rng
    )


def _population_eval_times(sim, service, population):
    """(scalar, batch) best-of times for one population evaluation.

    Both callables are exactly what the GA engine runs per generation:
    the scalar loop calls the simulator's ``makespan`` per chromosome;
    the batch route hands the raw chromosome lists to the service.
    Works for any (scalar backend, service) pair whose results are
    bit-identical — asserted before timing.
    """
    orders = [c.scheduling for c in population]
    machines = [c.matching for c in population]

    def scalar():
        return [sim.makespan(o, m) for o, m in zip(orders, machines)]

    def batch():
        return service.batch_makespans(orders, machines)

    assert scalar() == batch()  # bit-identical fitness
    return best_of_interleaved(scalar, batch, budget=1.0)


def _ga_eval_times(workload, population):
    """Contention-free (scalar, batch) times for one population eval."""
    return _population_eval_times(
        _python_tier(Simulator, workload), _service(workload), population
    )


def test_micro_batch_ga_population(write_output, perf_log):
    """MICRO-BATCH-GA: the PR's headline speedup, measured honestly."""
    w = paper_scale_workload()
    size = 128
    pop = _population(w, size)
    t_scalar, t_batch = _ga_eval_times(w, pop)
    speedup = t_scalar / t_batch

    perf_log("MICRO-BATCH-GA", "speedup", round(speedup, 3), "x")
    perf_log(
        "MICRO-BATCH-GA",
        "scalar_per_eval",
        round(t_scalar / size * 1e6, 2),
        "us",
    )
    perf_log(
        "MICRO-BATCH-GA",
        "batch_per_eval",
        round(t_batch / size * 1e6, 2),
        "us",
    )
    write_output(
        "micro_batch_ga_population",
        "MICRO-BATCH-GA — GA population fitness: Python-walker loop vs "
        "the service's batch route\n\n"
        f"population {size} at paper scale ({w.num_tasks} tasks, "
        f"{w.num_machines} machines)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/generation "
        f"({t_scalar / size * 1e6:.1f} us/eval)\n"
        f"batch  : {t_batch * 1e3:.2f} ms/generation "
        f"({t_batch / size * 1e6:.1f} us/eval)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.06  # loose floor; the perf gate holds the bar


def test_micro_batch_population_scaling(write_output, perf_log):
    """MICRO-BATCH-SCALE: speedup across population sizes."""
    w = paper_scale_workload()
    lines = [
        "MICRO-BATCH-SCALE — batch route speedup vs population size\n"
    ]
    speedups = {}
    for size in (16, 64, 256):
        pop = _population(w, size, seed=size)
        t_scalar, t_batch = _ga_eval_times(w, pop)
        speedups[size] = t_scalar / t_batch
        lines.append(
            f"population {size:4d}: scalar {t_scalar * 1e3:7.2f} ms, "
            f"batch {t_batch * 1e3:7.2f} ms -> "
            f"{speedups[size]:.2f}x"
        )
        perf_log(
            "MICRO-BATCH-SCALE",
            f"speedup_pop{size}",
            round(speedups[size], 3),
            "x",
        )
    write_output("micro_batch_scaling", "\n".join(lines) + "\n")
    # batching must never lose badly
    assert speedups[16] >= 0.7
    assert speedups[256] >= 0.94  # loose floor; the perf gate holds the bar


def test_micro_batch_random_search(write_output, perf_log):
    """MICRO-BATCH-RAND: chunked batch scoring inside random_search."""
    w = paper_scale_workload()
    samples = 512

    def batched():
        return random_search(w, samples=samples, seed=11)

    def scalar():
        with python_walker():
            return random_search(w, samples=samples, seed=11, batch_size=1)

    res_b, res_s = batched(), scalar()
    assert res_b.makespan == res_s.makespan  # bit-identical search
    assert res_b.string == res_s.string
    t_scalar, t_batch = best_of_interleaved(scalar, batched, budget=1.0)
    speedup = t_scalar / t_batch

    perf_log(
        "MICRO-BATCH-RAND", "speedup_end_to_end", round(speedup, 3), "x"
    )
    write_output(
        "micro_batch_random_search",
        "MICRO-BATCH-RAND — random search: batch_size=1 on the Python "
        "walker vs the chunked default route\n\n"
        f"{samples} samples at paper scale, end to end (drawing the\n"
        "random strings is identical in both modes, so Amdahl caps this\n"
        "ratio well below the raw speedup of MICRO-BATCH-SCALE)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/run\n"
        f"batched: {t_batch * 1e3:.2f} ms/run\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.05  # loose floor; measured value recorded above


def test_micro_batch_se_probe_stream(write_output, perf_log):
    """MICRO-BATCH-SE: the SE allocation probe stream, three ways.

    Replays identical probe streams through (a) Python-walker full
    makespans, (b) the service's batch route per candidate set, and (c)
    the incremental-delta path with its branch-and-bound cutoff, on the
    Python walker like (a), asserting identical greedy outcomes.
    Records the batch-vs-full ratio.  SE's allocator scores every probe
    with a cutoff-pruned delta and has no batch mode; MICRO-COMPILED
    times those deltas on the compiled walker.
    """
    w = paper_scale_workload()
    sim = _python_tier(Simulator, w)
    service = _service(w)
    s = random_valid_string(w.graph, w.num_machines, 7)
    rng = np.random.default_rng(3)
    groups = []
    for _ in range(20):
        t = int(rng.integers(w.num_tasks))
        probes = []
        for m in rng.choice(w.num_machines, size=12, replace=False):
            for idx in machine_slot_indices(s, w.graph, t, int(m)):
                probes.append((idx, int(m)))
        groups.append((t, s.position_of(t), s.machine_of(t), probes))
    n_probes = sum(len(p) for _, _, _, p in groups)
    state = sim.prepare(s.order, s.machines)

    def full_pass():
        bests = []
        for t, orig, om, probes in groups:
            best = float("inf")
            for idx, m in probes:
                s.relocate(t, idx, m)
                cost = sim.makespan(s.order, s.machines)
                if cost < best:
                    best = cost
                s.relocate(t, orig, om)
            bests.append(best)
        return bests

    def batch_pass():
        bests = []
        for t, orig, om, probes in groups:
            orders, machines = [], []
            for idx, m in probes:
                s.relocate(t, idx, m)
                orders.append(s.order.copy())
                machines.append(s.machines.copy())
                s.relocate(t, orig, om)
            costs = service.batch_makespans(orders, machines, validate=False)
            best = float("inf")
            for cost in costs:
                if cost < best:
                    best = cost
            bests.append(best)
        return bests

    def delta_pass():
        bests = []
        for t, orig, om, probes in groups:
            best = float("inf")
            for idx, m in probes:
                s.relocate(t, idx, m)
                first, last = (orig, idx) if orig < idx else (idx, orig)
                cost = sim.evaluate_delta(
                    s.order, s.machines, first, state, best, last
                )
                if cost < best:
                    best = cost
                s.relocate(t, orig, om)
            bests.append(best)
        return bests

    assert full_pass() == batch_pass() == delta_pass()

    t_full, t_batch, t_delta = best_of_interleaved(
        full_pass, batch_pass, delta_pass
    )
    batch_speedup = t_full / t_batch
    delta_speedup = t_full / t_delta

    perf_log(
        "MICRO-BATCH-SE", "speedup_vs_full", round(batch_speedup, 3), "x"
    )
    write_output(
        "micro_batch_se_probes",
        "MICRO-BATCH-SE — SE probe stream: Python full vs the batch "
        "route vs Python incremental delta\n\n"
        f"probe stream: {n_probes} probes over {len(groups)} selected "
        f"subtasks at paper scale\n"
        f"full  : {t_full * 1e3:.2f} ms/pass\n"
        f"batch : {t_batch * 1e3:.2f} ms/pass ({batch_speedup:.2f}x)\n"
        f"delta : {t_delta * 1e3:.2f} ms/pass ({delta_speedup:.2f}x)\n"
        "SE scores probes by delta: its cutoff prunes most of each "
        "probe's walk,\nwhich a batch cannot exploit\n",
    )
    assert batch_speedup >= 0.66  # loose floor; measured value recorded


def test_micro_batch_nic_kernel(write_output, perf_log):
    """MICRO-BATCH-NIC: batch-vs-scalar makespan throughput under "nic".

    128 schedules scored through the service's "nic" batch route vs the
    Python-walker ``ContentionSimulator`` loop.  Bit-identity is
    asserted before timing.
    """
    w = paper_scale_workload()
    size = 128
    service = _service(w, "nic")
    scalar = _python_tier(ContentionSimulator, w)
    strings = [
        random_valid_string(w.graph, w.num_machines, seed)
        for seed in range(size)
    ]

    def scalar_loop():
        return [scalar.string_makespan(s) for s in strings]

    def batch():
        return service.batch_string_makespans(strings)

    assert scalar_loop() == batch()  # bit-identical makespans
    t_scalar, t_batch = best_of_interleaved(scalar_loop, batch, budget=1.0)
    speedup = t_scalar / t_batch

    perf_log("MICRO-BATCH-NIC", "speedup", round(speedup, 3), "x")
    perf_log(
        "MICRO-BATCH-NIC",
        "scalar_per_eval",
        round(t_scalar / size * 1e6, 2),
        "us",
    )
    perf_log(
        "MICRO-BATCH-NIC",
        "batch_per_eval",
        round(t_batch / size * 1e6, 2),
        "us",
    )
    write_output(
        "micro_batch_nic_kernel",
        "MICRO-BATCH-NIC — NIC-contention makespans: Python-walker loop "
        "vs the service's batch route\n\n"
        f"batch of {size} schedules at paper scale ({w.num_tasks} tasks, "
        f"{w.num_machines} machines)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/batch "
        f"({t_scalar / size * 1e6:.1f} us/eval)\n"
        f"batch  : {t_batch * 1e3:.2f} ms/batch "
        f"({t_batch / size * 1e6:.1f} us/eval)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.16  # loose floor; the perf gate holds the bar


def test_micro_batch_nic_ga_population(write_output, perf_log):
    """MICRO-BATCH-NIC-GA: GA population fitness under NIC contention.

    The exact call the GA engine makes per generation with
    ``GAConfig(network="nic")`` — chromosome lists in, one batch call
    out.
    """
    w = paper_scale_workload()
    size = 128
    pop = _population(w, size)
    t_scalar, t_batch = _population_eval_times(
        _python_tier(ContentionSimulator, w), _service(w, "nic"), pop
    )
    speedup = t_scalar / t_batch

    perf_log("MICRO-BATCH-NIC-GA", "speedup", round(speedup, 3), "x")
    write_output(
        "micro_batch_nic_ga_population",
        "MICRO-BATCH-NIC-GA — GA population fitness under NIC "
        "contention: Python-walker loop vs the service's batch route\n\n"
        f"population {size} at paper scale ({w.num_tasks} tasks, "
        f"{w.num_machines} machines)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/generation "
        f"({t_scalar / size * 1e6:.1f} us/eval)\n"
        f"batch  : {t_batch * 1e3:.2f} ms/generation "
        f"({t_batch / size * 1e6:.1f} us/eval)\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.5  # loose floor; the perf gate holds the bar
