"""NIC transfer records against a golden, on both walker tiers.

``tests/data/golden_nic_transfers.json`` holds
``ContentionSimulator.evaluate(s).transfers`` for two seeded fig5
strings, each from idle machines and from a busy machine and NIC state.
It was recorded by the full Python walk that recorded every push as it
went, before ``evaluate`` became a ``prepare`` walk plus a replay of the
pushes; the replay performs the same float operations, so every record
must match exactly (no tolerances).  To re-record (only when the model
itself changes)::

    PYTHONPATH=src python -c "from tests.extensions.test_nic_transfer_golden
    import GOLDEN, dump, record; GOLDEN.write_text(dump(record()))"
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.extensions.contention import ContentionSimulator
from repro.schedule import ScheduleString
from repro.schedule.operations import random_valid_string
from repro.workloads import figure5_workload
from tests.routes import walker

GOLDEN = Path(__file__).parent.parent / "data" / "golden_nic_transfers.json"

_STATE_KEYS = ("initial_avail", "initial_nic_free")


def transfer_rows(result) -> list[list]:
    """*result*'s transfers as ``[item, producer, consumer, src, dst,
    start, finish]`` rows, in record order."""
    return [
        [
            t.item,
            t.producer,
            t.consumer,
            t.src_machine,
            t.dst_machine,
            t.start,
            t.finish,
        ]
        for t in result.transfers
    ]


def record() -> dict:
    """The golden document, evaluated by the code on the path."""
    w = figure5_workload(seed=1)
    l = w.num_machines
    rng = np.random.default_rng(23)
    strings = [random_valid_string(w.graph, l, rng) for _ in range(2)]
    busy = {
        key: [round(float(x), 3) for x in rng.uniform(0.0, 400.0, l)]
        for key in _STATE_KEYS
    }
    cases = []
    for s in strings:
        for state in ({}, busy):
            result = ContentionSimulator(w, **state).evaluate(s)
            cases.append(
                {
                    "order": list(s.order),
                    "machines": list(s.machines),
                    **state,
                    "makespan": result.makespan,
                    "transfers": transfer_rows(result),
                }
            )
    return {"workload": "figure5_workload(seed=1)", "cases": cases}


def dump(doc: dict) -> str:
    """*doc* as JSON with one transfer row per line."""
    lines = [
        "{",
        f' "workload": {json.dumps(doc["workload"])},',
        ' "cases": [',
    ]
    for i, case in enumerate(doc["cases"]):
        lines.append("  {")
        for key, value in case.items():
            if key != "transfers":
                lines.append(f"   {json.dumps(key)}: {json.dumps(value)},")
        rows = [f"    {json.dumps(row)}" for row in case["transfers"]]
        lines.append('   "transfers": [')
        lines.append(",\n".join(rows))
        lines.append("   ]")
        lines.append("  }" + ("," if i < len(doc["cases"]) - 1 else ""))
    lines += [" ]", "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fig5():
    return figure5_workload(seed=1)


def test_golden_covers_idle_and_busy_states(golden):
    cases = golden["cases"]
    assert len(cases) == 4
    assert sum("initial_nic_free" in c for c in cases) == 2
    assert all(len(c["transfers"]) > 100 for c in cases)


@pytest.mark.parametrize("tier", ("compiled", "python"))
@pytest.mark.parametrize("case", range(4))
def test_transfers_match_the_golden(golden, fig5, tier, case):
    doc = golden["cases"][case]
    state = {key: doc[key] for key in _STATE_KEYS if key in doc}
    with walker(tier):
        sim = ContentionSimulator(fig5, **state)
    s = ScheduleString(doc["order"], doc["machines"], fig5.num_machines)
    result = sim.evaluate(s)
    assert transfer_rows(result) == doc["transfers"]
    assert result.makespan == doc["makespan"]
