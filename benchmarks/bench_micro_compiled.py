"""MICRO-COMPILED — the compiled scalar walker against the Python walker.

:mod:`repro.schedule.walker` builds a C walker that serves
``makespan`` / ``prepare`` / ``evaluate_delta`` of both scalar backends.
These benches measure it at paper scale (fig5: 100 tasks, 20 machines):

* ``makespan_speedup`` / ``nic_makespan_speedup`` — one full walk,
  compiled vs Python;
* ``delta_stream_speedup`` / ``nic_delta_stream_speedup`` — the
  MICRO-DELTA and MICRO-CONT-DELTA probe streams (the SE allocation
  step's relocate / score / revert cycle with the best-so-far cutoff),
  compiled vs Python;
* ``loop_vs_numpy_pop{16,64,256}`` (and ``nic_...``) — the evaluation
  service's batch call on the compiled scalar loop against the NumPy
  kernel; above 1 the loop wins.  This is the measurement ROADMAP item
  3(b) asks for before the NumPy kernels can go.

Each case asserts the two sides agree bit-for-bit before timing.  Unlike
every other bench module, this one runs on the compiled walker
(``WALKER`` below; see ``benchmarks/conftest.py``), and its Python
sides are built with ``REPRO_WALKER=python`` explicitly.
"""

import time

import numpy as np
import pytest

from bench_micro_simulator import _se_probe_groups
from repro.baselines.ga.chromosome import initial_population
from repro.extensions.contention import ContentionSimulator
from repro.optim.evaluation import EvaluationService
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import Simulator
from repro.schedule.walker import ENV, load
from repro.utils.rng import as_rng
from repro.workloads import figure5_workload

#: Opt out of the Python-walker pin in ``conftest.py``.
WALKER = "compiled"

pytestmark = pytest.mark.skipif(
    load()[0] is None, reason=f"compiled walker unavailable: {load()[1]}"
)


def best_of(*fns, budget: float = 2.0) -> list[float]:
    """Minimum wall-clock time of each of *fns* over *budget* s.

    The calls interleave (one of each per round), so a change in host
    speed, which on a shared machine lasts seconds, hits every side of
    the ratio alike.
    """
    for fn in fns:
        fn()  # warm-up
    best = [float("inf")] * len(fns)
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _tiers(cls, workload, monkeypatch):
    """``(compiled, python)`` simulators of *cls* for *workload*."""
    fast = cls(workload)
    monkeypatch.setenv(ENV, "python")
    slow = cls(workload)
    monkeypatch.delenv(ENV)
    assert (fast.walker_tier, slow.walker_tier) == ("compiled", "python")
    return fast, slow


@pytest.mark.parametrize(
    "cls, metric",
    [
        (Simulator, "makespan_speedup"),
        (ContentionSimulator, "nic_makespan_speedup"),
    ],
)
def test_micro_compiled_makespan(cls, metric, monkeypatch, write_output,
                                 perf_log):
    w = figure5_workload(seed=1)
    fast, slow = _tiers(cls, w, monkeypatch)
    strings = [random_valid_string(w.graph, w.num_machines, s) for s in range(32)]

    def run(sim):
        return [sim.makespan(s.order, s.machines) for s in strings]

    assert run(fast) == run(slow)
    t_fast, t_slow = best_of(lambda: run(fast), lambda: run(slow))
    speedup = t_slow / t_fast
    per = {name: t / len(strings) * 1e6 for name, t in
           (("compiled", t_fast), ("python", t_slow))}
    perf_log("MICRO-COMPILED", metric, round(speedup, 3), "x")
    write_output(
        f"micro_compiled_{metric}",
        f"MICRO-COMPILED — {cls.__name__}.makespan at paper scale\n\n"
        f"compiled: {per['compiled']:.2f} us/walk\n"
        f"python  : {per['python']:.2f} us/walk\n"
        f"speedup : {speedup:.2f}x\n",
    )
    assert speedup >= 5.0  # loose floor; the perf gate holds the bar


@pytest.mark.parametrize(
    "cls, metric",
    [
        (Simulator, "delta_stream_speedup"),
        (ContentionSimulator, "nic_delta_stream_speedup"),
    ],
)
def test_micro_compiled_delta_stream(cls, metric, monkeypatch, write_output,
                                     perf_log):
    """The MICRO-DELTA / MICRO-CONT-DELTA probe stream on both tiers."""
    w = figure5_workload(seed=1)
    fast, slow = _tiers(cls, w, monkeypatch)
    s = random_valid_string(w.graph, w.num_machines, 7)
    groups = _se_probe_groups(w, s, np.random.default_rng(3))
    n_probes = sum(len(p) for _, _, _, p in groups)

    def delta_pass(sim):
        state = sim.prepare(s.order, s.machines)
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

    assert delta_pass(fast) == delta_pass(slow)  # identical greedy outcomes
    t_fast, t_slow = best_of(lambda: delta_pass(fast), lambda: delta_pass(slow))
    speedup = t_slow / t_fast
    perf_log("MICRO-COMPILED", metric, round(speedup, 3), "x")
    perf_log(
        "MICRO-COMPILED",
        metric.replace("stream_speedup", "per_probe"),
        round(t_fast / n_probes * 1e6, 3),
        "us",
    )
    write_output(
        f"micro_compiled_{metric}",
        f"MICRO-COMPILED — {cls.__name__} SE probe stream "
        f"({n_probes} probes, {len(groups)} subtasks)\n\n"
        f"compiled: {t_fast * 1e3:.2f} ms/pass "
        f"({t_fast / n_probes * 1e6:.2f} us/probe)\n"
        f"python  : {t_slow * 1e3:.2f} ms/pass "
        f"({t_slow / n_probes * 1e6:.2f} us/probe)\n"
        f"speedup : {speedup:.2f}x\n",
    )
    assert speedup >= 3.0  # loose floor; the perf gate holds the bar


@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_micro_compiled_loop_vs_numpy(network, monkeypatch, write_output,
                                      perf_log):
    """The service's scalar loop on the compiled walker against the
    network's NumPy kernel, on GA populations of 16, 64 and 256."""
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    w = figure5_workload(seed=1)
    kernel = EvaluationService(w, network=network)
    loop = EvaluationService(w, network=network, prefer_batch=False)
    assert kernel.kernel_tier == "vectorized"
    assert (loop.kernel_tier, loop.walker_tier) == ("sequential", "compiled")
    prefix = "" if network == "contention-free" else "nic_"
    lines = [f"MICRO-COMPILED — {network}: compiled scalar loop vs NumPy "
             "kernel (above 1: the loop wins)\n"]
    for size in (16, 64, 256):
        pop = initial_population(
            w.graph, w.num_machines, size, as_rng(size)
        )
        orders = [c.scheduling for c in pop]
        machines = [c.matching for c in pop]
        assert loop.batch_makespans(orders, machines) == kernel.batch_makespans(
            orders, machines
        )
        t_loop, t_numpy = best_of(
            lambda: loop.batch_makespans(orders, machines),
            lambda: kernel.batch_makespans(orders, machines),
            budget=1.0,
        )
        ratio = t_numpy / t_loop
        perf_log(
            "MICRO-COMPILED", f"{prefix}loop_vs_numpy_pop{size}",
            round(ratio, 3), "x",
        )
        lines.append(
            f"population {size:4d}: loop {t_loop / size * 1e6:7.2f} us/row, "
            f"numpy {t_numpy / size * 1e6:7.2f} us/row -> {ratio:.2f}x"
        )
    write_output(f"micro_compiled_{prefix}loop_vs_numpy", "\n".join(lines) + "\n")
