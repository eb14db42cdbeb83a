"""Bit-identity of SE and tabu under the non-makespan objectives.

``tests/data/golden_objectives.json`` pins the two engines on the
routes that ``golden_engines.json`` does not reach, on its workloads and
seeds and on both networks:

* ``weighted`` — ``objective="weighted:1:0.5"`` on the ``cloud``
  platform.  SE probes through the objective wrapper's ``place``; tabu
  scores its neighbourhoods through the wrapper's delta route.
* ``pareto`` — the same runs with a
  :class:`~repro.optim.tracking.ParetoTracker` on the service, so every
  scored point is offered to it (tabu then scores whole neighbourhoods
  in one batch call).
* ``cvar`` — ``objective="cvar:0.9"`` over 8 ``uniform:0.3`` scenarios.

Each cell stores the best string, the reported makespan, the statistic
the engine compared (the trace's best), ``evaluations``, the trace and,
for ``pareto``, the front and the offer count.  Every cell replays on
both walker tiers.

Regenerate (only when a change is meant to move these numbers)::

    PYTHONPATH=src:. python -m tests.test_golden_objectives
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import SEConfig, SimulatedEvolution
from repro.optim import TabuConfig, TabuSearch
from repro.optim.evaluation import EvaluationFields
from repro.optim.tracking import ParetoTracker
from repro.workloads import WorkloadSpec, build_workload, small_workload
from tests.routes import walker

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_objectives.json"

#: The workloads, networks and seeds of ``golden_engines.json``.
WORKLOADS = {
    "small-s3": lambda: small_workload(seed=3),
    "spec-12x3": lambda: build_workload(
        WorkloadSpec(num_tasks=12, num_machines=3, seed=5, name="g1")
    ),
}
NETWORKS = ("contention-free", "nic")
SEEDS = (1, 7)

#: Route name -> the evaluation settings of its runs.
ROUTES = {
    "weighted": dict(objective="weighted:1:0.5", platform="cloud"),
    "pareto": dict(objective="weighted:1:0.5", platform="cloud"),
    "cvar": dict(
        objective="cvar:0.9", scenarios=8, distribution="uniform:0.3"
    ),
}

ENGINES = {
    "se": (SEConfig, SimulatedEvolution),
    "tabu": (TabuConfig, TabuSearch),
}


def cell_keys() -> list[str]:
    return [
        f"{route}|{engine}|{wname}|{network}|s{seed}"
        for route in ROUTES
        for engine in ENGINES
        for wname in WORKLOADS
        for network in NETWORKS
        for seed in SEEDS
    ]


def run_cell(key: str) -> dict:
    """Run the cell *key* and return its record."""
    route, engine, wname, network, s = key.split("|")
    config_cls, engine_cls = ENGINES[engine]
    config = config_cls(
        seed=int(s[1:]), max_iterations=8, network=network, **ROUTES[route]
    )
    tracker = None
    if route == "pareto":
        # SE builds its own service from its config, so the tracker
        # rides on the config's service factory
        tracker = ParetoTracker()
        config.evaluation_service = lambda w: EvaluationFields.evaluation_service(
            config, w, pareto=tracker
        )
    res = engine_cls(config).run(WORKLOADS[wname]())
    rows = [
        {k: v for k, v in row.items() if k != "elapsed_seconds"}
        for row in res.trace.to_rows()
    ]
    record = {
        "best_string": {
            "order": list(res.best_string.order),
            "machines": list(res.best_string.machines),
        },
        "best_makespan": res.best_makespan,
        "statistic": rows[-1]["best_makespan"],
        "iterations": res.iterations,
        "evaluations": res.evaluations,
        "trace": rows,
    }
    if tracker is not None:
        record["pareto_front"] = [[p.makespan, p.cost] for p in tracker.front]
        record["pareto_offers"] = tracker.offers
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("tier", ["compiled", "python"])
@pytest.mark.parametrize("key", cell_keys())
def test_cell_replays(golden, key, tier):
    with walker(tier):
        assert run_cell(key) == golden[key]


def test_every_cell_is_recorded(golden):
    assert sorted(golden) == sorted(cell_keys())


if __name__ == "__main__":
    doc = {key: run_cell(key) for key in cell_keys()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cells to {GOLDEN_PATH}")
