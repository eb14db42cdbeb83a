"""Module globals the benchmark harness wraps by name stay patchable.

``perfbench/`` times layers by replacing module attributes
(``setattr(module, name, wrapper)``), and its ``serve-nic`` workload
counts its steps the same way.  A wrapper only sees calls that look the
name up in the module at call time, so each of these must stay a
module-level global of the module that calls it; an import moved into
a function body would bypass the wrapper without failing anything.
"""

from collections import Counter

import pytest

import repro.core.engine as core_engine
import repro.online.policies as online_policies
import repro.online.simulator as online_simulator
from repro.core import SEConfig, SimulatedEvolution
from repro.online import DynamicSimulator, ReoptConfig, poisson_stream
from repro.workloads import small_workload
from repro.workloads.presets import WorkloadSpec

PATCH_POINTS = [
    (core_engine, "select_subtasks"),
    (online_policies, "run_tabu"),
    (online_simulator, "dispatch"),
    (online_simulator, "build_workload"),
    (online_simulator, "improve_residual"),
]


@pytest.fixture
def calls(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for module, name in PATCH_POINTS:
        original = getattr(module, name)

        def counting(*args, _original=original, _key=name, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def test_every_patch_point_is_called_through_its_module(calls):
    SimulatedEvolution(SEConfig(seed=1, max_iterations=2)).run(
        small_workload(seed=1)
    )
    stream = poisson_stream(
        0.01, 4, WorkloadSpec(num_tasks=8, num_machines=3), seed=7
    )
    DynamicSimulator(
        stream,
        network="nic",
        policy="heft",
        reopt=ReoptConfig(interval=50.0, engine="tabu", max_iterations=5),
        seed=3,
    ).run()
    assert {name: calls[name] > 0 for _, name in PATCH_POINTS} == {
        name: True for _, name in PATCH_POINTS
    }
