"""Shared helpers of the MICRO benches: walker tiers, timing, probe streams.

A bench that times the compiled walker opts out of the Python-walker
pin in ``conftest.py`` and builds its Python-walker denominators inside
:func:`python_walker`.  :func:`best_of_interleaved` is the one timer of
every two-sided MICRO ratio.  :func:`se_probe_groups` and
:func:`replay_probe_stream` are the SE allocation step's probe stream,
shared by MICRO-DELTA, MICRO-CONT-DELTA and MICRO-COMPILED.
"""

import os
import time
from contextlib import contextmanager

from repro.schedule.valid_range import machine_slot_indices
from repro.schedule.walker import ENV


@contextmanager
def python_walker():
    """Build (or run) scalar simulators on the Python walker inside."""
    saved = os.environ.get(ENV)
    os.environ[ENV] = "python"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[ENV]
        else:
            os.environ[ENV] = saved


def best_of_interleaved(*fns, budget: float = 2.0) -> list[float]:
    """Minimum wall-clock time of each of *fns* over *budget* s.

    The calls interleave (one of each per round), so a change in host
    speed, which on a shared machine lasts seconds, hits every side of
    a ratio alike.
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


def se_probe_groups(workload, string, rng, tasks=30, y=12):
    """The allocator's probe stream: per selected task, every
    (machine, slot) candidate within the valid range."""
    groups = []
    for _ in range(tasks):
        t = int(rng.integers(workload.num_tasks))
        probes = []
        for m in rng.choice(workload.num_machines, size=y, replace=False):
            for idx in machine_slot_indices(
                string, workload.graph, t, int(m)
            ):
                probes.append((idx, int(m)))
        groups.append(
            (t, string.position_of(t), string.machine_of(t), probes)
        )
    return groups


def replay_probe_stream(sim, string, groups, state=None):
    """Best cost per group of *groups*, probing *string* in place.

    Each probe is the allocator's relocate / score / revert cycle.  It
    is scored by a full ``sim.makespan``, or, given the ``DeltaState``
    *state* of *string*, by ``sim.evaluate_delta`` with the group's
    best-so-far cost as cutoff.  Both routes pick the same bests.
    """
    bests = []
    for t, orig, om, probes in groups:
        best = float("inf")
        for idx, m in probes:
            string.relocate(t, idx, m)
            if state is None:
                cost = sim.makespan(string.order, string.machines)
            else:
                first, last = (orig, idx) if orig < idx else (idx, orig)
                cost = sim.evaluate_delta(
                    string.order, string.machines, first, state, best, last
                )
            if cost < best:
                best = cost
            string.relocate(t, orig, om)
        bests.append(best)
    return bests
