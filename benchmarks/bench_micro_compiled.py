"""MICRO-COMPILED — the compiled scalar walker against the Python walker.

:mod:`repro.schedule.walker` builds a C walker that serves
``makespan`` / ``prepare`` / ``evaluate_delta`` of both scalar backends.
These benches measure it at paper scale (fig5: 100 tasks, 20 machines):

* ``makespan_speedup`` / ``nic_makespan_speedup`` — one full walk,
  compiled vs Python;
* ``delta_stream_speedup`` / ``nic_delta_stream_speedup`` — the
  MICRO-DELTA and MICRO-CONT-DELTA probe streams (the SE allocation
  step's relocate / score / revert cycle with the best-so-far cutoff),
  compiled vs Python.

``makespan_speedup`` / ``nic_makespan_speedup`` are the only gate on
the walker ratio: the evaluation service's batch route is a loop of
these walks, so a batch bench would re-time it.  The batch route is
timed only where its call shape adds cost (MICRO-BATCH-RAND,
MICRO-SCENARIO).

Each case asserts the two sides agree bit-for-bit before timing.  This
module runs on the compiled walker (its ``pytestmark`` carries
``walker("compiled")``; see ``benchmarks/conftest.py``), and its Python
sides are built with ``REPRO_WALKER=python`` explicitly.
"""

import numpy as np
import pytest

from repro.extensions.contention import ContentionSimulator
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import Simulator
from repro.schedule.walker import ENV, load
from repro.workloads import figure5_workload
from walkers import best_of_interleaved, replay_probe_stream, se_probe_groups

pytestmark = [
    pytest.mark.walker("compiled"),
    pytest.mark.skipif(
        load()[0] is None, reason=f"compiled walker unavailable: {load()[1]}"
    ),
]


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
    t_fast, t_slow = best_of_interleaved(lambda: run(fast), lambda: run(slow))
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
    groups = se_probe_groups(w, s, np.random.default_rng(3))
    n_probes = sum(len(p) for _, _, _, p in groups)

    def delta_pass(sim):
        state = sim.prepare(s.order, s.machines)
        return replay_probe_stream(sim, s, groups, state)

    assert delta_pass(fast) == delta_pass(slow)  # identical greedy outcomes
    t_fast, t_slow = best_of_interleaved(
        lambda: delta_pass(fast), lambda: delta_pass(slow)
    )
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
