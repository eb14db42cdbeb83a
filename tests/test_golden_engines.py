"""Bit-identity of the refactored engines against pre-refactor goldens.

``tests/data/golden_engines.json`` was generated by the *pre-optim-core*
SE, GA and random-search implementations (the hand-rolled run loops of
PR 3) on fixed workloads, seeds and both simulator backends.  The
engines now run on the shared :mod:`repro.optim` core; these tests pin
that the refactor changed **nothing observable**: same best strings,
same makespans, same evaluation counts, same trace columns, record for
record.

``elapsed_seconds`` is wall time and inherently run-dependent; every
other record field must match exactly (no tolerances — the refactor
claims bit-identity, not approximation).

Two later additions ride on the same goldens:

* the **tabu** cells were generated with the scalar ``"nic"`` batch
  fallback, *before* the vectorized NIC kernel registered — so passing
  them today proves the kernel flip changed nothing observable for
  tabu (its batch accounting is one count per scored candidate on both
  paths);
* the GA ``"nic"`` cells were regenerated when the NIC kernel landed:
  best strings / makespans / generations are **unchanged** (asserted
  during regeneration), but ``evaluations`` shrank because batch
  scoring counts one evaluation per chromosome — the accounting of the
  contention-free cells too, and of the GA's only route today.

* the **SA** cells (``"sa"``) were recorded when SA's proposals moved
  from a Python draw per move to the backends' ``draw_moves``, on the
  tree before that change: a fast-cooling schedule
  (:data:`SA_PARAMS`), so each cell both accepts and rejects moves.

``TestGoldenPythonWalker`` reruns every cell on the Python walker, so
the goldens pin both walker tiers.

Record the SA cells (only when a change is meant to move them; the
other cells are left as they are)::

    PYTHONPATH=src:. python -m tests.test_golden_engines
"""

import json
from pathlib import Path

import pytest

from repro.analysis.trace import ConvergenceTrace
from repro.baselines import GAConfig, GeneticAlgorithm, random_search
from repro.core import SEConfig, SimulatedEvolution
from repro.optim import SAConfig, SimulatedAnnealing, TabuConfig, TabuSearch
from repro.workloads import WorkloadSpec, build_workload, small_workload
from tests.routes import walker

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_engines.json"

WORKLOADS = {
    "small-s3": lambda: small_workload(seed=3),
    "spec-12x3": lambda: build_workload(
        WorkloadSpec(num_tasks=12, num_machines=3, seed=5, name="g1")
    ),
}


#: The SA cells' settings: 40 proposals, cooling by half every 5.
SA_PARAMS = dict(max_iterations=40, steps_per_temp=5, cooling=0.5)


def golden_cells():
    doc = json.loads(GOLDEN_PATH.read_text())
    return sorted(doc.items())


def strip_time(rows):
    return [
        {k: v for k, v in row.items() if k != "elapsed_seconds"}
        for row in rows
    ]


def parse_key(key):
    wname, network, s = key.split("|")
    return WORKLOADS[wname](), network, int(s[1:])


def sa_record(key):
    """The SA cell of *key*, as it is stored."""
    w, network, seed = parse_key(key)
    res = SimulatedAnnealing(
        SAConfig(seed=seed, network=network, **SA_PARAMS)
    ).run(w)
    return {
        "best_makespan": res.best_makespan,
        "best_string": {
            "machines": list(res.best_string.machines),
            "order": list(res.best_string.order),
        },
        "evaluations": res.evaluations,
        "iterations": res.iterations,
        "trace": res.trace.to_rows(),
    }


@pytest.mark.parametrize("key,expected", golden_cells())
class TestGoldenBitIdentity:
    def test_se(self, key, expected):
        w, network, seed = parse_key(key)
        res = SimulatedEvolution(
            SEConfig(seed=seed, max_iterations=8, network=network)
        ).run(w)
        g = expected["se"]
        assert res.best_makespan == g["best_makespan"]
        assert list(res.best_string.order) == g["best_string"]["order"]
        assert list(res.best_string.machines) == g["best_string"]["machines"]
        assert res.iterations == g["iterations"]
        assert res.evaluations == g["evaluations"]
        assert strip_time(res.trace.to_rows()) == strip_time(g["trace"])

    def test_ga(self, key, expected):
        w, network, seed = parse_key(key)
        res = GeneticAlgorithm(
            GAConfig(
                seed=seed,
                population_size=8,
                max_generations=6,
                stall_generations=None,
                network=network,
            )
        ).run(w)
        g = expected["ga"]
        assert res.best_makespan == g["best_makespan"]
        assert list(res.best_string.order) == g["best_string"]["order"]
        assert list(res.best_string.machines) == g["best_string"]["machines"]
        assert res.generations == g["generations"]
        assert res.evaluations == g["evaluations"]
        assert strip_time(res.trace.to_rows()) == strip_time(g["trace"])

    def test_random_search(self, key, expected):
        w, network, seed = parse_key(key)
        trace = ConvergenceTrace()
        res = random_search(
            w, samples=40, seed=seed, network=network, trace=trace
        )
        g = expected["random"]
        assert res.makespan == g["makespan"]
        assert list(res.string.order) == g["string"]["order"]
        assert list(res.string.machines) == g["string"]["machines"]
        assert res.evaluations == g["evaluations"]
        assert strip_time(trace.to_rows()) == strip_time(g["trace"])

    def test_tabu(self, key, expected):
        w, network, seed = parse_key(key)
        res = TabuSearch(
            TabuConfig(seed=seed, max_iterations=8, network=network)
        ).run(w)
        g = expected["tabu"]
        assert res.best_makespan == g["best_makespan"]
        assert list(res.best_string.order) == g["best_string"]["order"]
        assert list(res.best_string.machines) == g["best_string"]["machines"]
        assert res.iterations == g["iterations"]
        assert res.evaluations == g["evaluations"]
        assert strip_time(res.trace.to_rows()) == strip_time(g["trace"])

    def test_sa(self, key, expected):
        got, g = sa_record(key), expected["sa"]
        assert {k: v for k, v in got.items() if k != "trace"} == {
            k: v for k, v in g.items() if k != "trace"
        }
        assert strip_time(got["trace"]) == strip_time(g["trace"])
        accepted = {row["num_selected"] for row in g["trace"]}
        assert accepted == {0, 1}  # the cell accepts and rejects moves


class TestGoldenPythonWalker(TestGoldenBitIdentity):
    """The same goldens hold when the Python walker scores every call,
    batches and deltas included: the walker tier changes no search
    decision and no ``evaluations`` count."""

    @pytest.fixture(autouse=True)
    def _python_walker(self):
        with walker("python"):
            yield


class TestGoldenChunking:
    """Random search scored one sample per batch call reproduces the
    goldens, which were recorded with the default chunk size."""

    @pytest.mark.parametrize(
        "key,expected",
        [kv for kv in golden_cells() if "|nic|" in kv[0]],
    )
    def test_random_unchunked_same_results(self, key, expected):
        w, network, seed = parse_key(key)
        res = random_search(
            w, samples=40, seed=seed, network=network, batch_size=1
        )
        g = expected["random"]
        assert res.makespan == g["makespan"]
        assert list(res.string.order) == g["string"]["order"]
        assert list(res.string.machines) == g["string"]["machines"]
        assert res.evaluations == g["evaluations"]


if __name__ == "__main__":
    doc = json.loads(GOLDEN_PATH.read_text())
    for key in doc:
        doc[key]["sa"] = sa_record(key)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
