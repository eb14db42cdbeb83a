"""Pins the engine parameters every dispatch caller builds.

``repro sweep`` turns ``--iterations`` / ``--budget`` and the risk flags
into one :class:`~repro.runner.spec.AlgorithmSpec` per registry
algorithm, and those params feed the cell fingerprints that key the
resume cache.  The race islands build their engine overrides through
:func:`~repro.portfolio.islands.engine_defaults`.  Both are pinned here
value for value, so a change to how engines are dispatched cannot
silently invalidate existing caches or change a race.  The head-to-head
configs of :func:`~repro.analysis.compare.compare_named` (``repro
compare``, ``repro figure 5|6|7``) are pinned the same way.
"""

import dataclasses
import hashlib

import pytest

import repro.runner as runner
from repro.cli import main
from repro.portfolio.islands import engine_defaults

SUITE = [
    "--tasks", "6", "--machines", "2", "--connectivities", "low",
    "--heterogeneities", "low", "--ccrs", "0.1", "--seeds", "0,1",
    "--quiet",
]
RISK_FLAGS = [
    "--objective", "mean", "--scenarios", "4",
    "--distribution", "lognormal:0.25",
]
RISK = {
    "objective": "mean",
    "scenarios": 4,
    "distribution": "lognormal:0.25",
    "scenario_seed": 0,
}
RISK_ALGOS = ("ga", "hybrid", "random", "sa", "se", "tabu")
U = 10**9

#: per-algorithm params of ``--iterations 7`` (network/platform aside)
ITERATION_PARAMS = {
    "se": {"max_iterations": 7},
    "hybrid": {"max_iterations": 7},
    "tabu": {"max_iterations": 7},
    "sa": {"max_iterations": 350},
    "ga": {"max_generations": 7, "stall_generations": None},
    "random": {"samples": 70},
    "portfolio": {"deadline": None, "max_iterations": 7, "sync_every": 5},
    "heft": {},
    "minmin": {},
    "maxmin": {},
    "olb": {},
}

#: per-algorithm params of ``--budget 0.5``
BUDGET_PARAMS = {
    "se": {"time_limit": 0.5, "max_iterations": U},
    "hybrid": {"time_limit": 0.5, "max_iterations": U},
    "tabu": {"time_limit": 0.5, "max_iterations": U},
    "sa": {"time_limit": 0.5, "max_iterations": U, "record_every": 50},
    "ga": {
        "time_limit": 0.5, "max_generations": U, "stall_generations": None,
    },
    "random": {"time_limit": 0.5, "samples": U},
    "portfolio": {"deadline": 0.5},
    "heft": {},
    "minmin": {},
    "maxmin": {},
    "olb": {},
}

#: sha256 over the sorted cell fingerprints of each sweep
FINGERPRINTS = {
    ("iterations", False): (
        "1b239d7cd89f6efaafade3fff00026e72752dafcaae125a01b7527d42136f24a"
    ),
    ("budget", False): (
        "89b74e12ad5faf36894c050fe18ee874751dcd2a8e53597eb2eece641bb9eb53"
    ),
    ("iterations", True): (
        "e72a5cb69fc9461e2bcd712f97daeb17959496c726d42d4e0d95b46c054b7d78"
    ),
    ("budget", True): (
        "17c9399a87c9be9ecf0cd8f5c67c93e0544df319e243b767b54168028c742054"
    ),
}


class _Captured(Exception):
    pass


def sweep_spec(monkeypatch, argv):
    """The ExperimentSpec ``repro sweep argv`` would run (not run)."""
    seen = {}

    def capture(spec, **_kw):
        seen["spec"] = spec
        raise _Captured

    monkeypatch.setattr(runner, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(["sweep", *argv])
    return seen["spec"]


@pytest.mark.parametrize("risk", [False, True], ids=["plain", "risk"])
@pytest.mark.parametrize("mode", ["iterations", "budget"])
def test_sweep_algorithm_specs(monkeypatch, capsys, mode, risk):
    # the built-in entries only: other tests register their own
    algos = RISK_ALGOS if risk else tuple(sorted(ITERATION_PARAMS))
    limit = ["--iterations", "7"] if mode == "iterations" else ["--budget", "0.5"]
    spec = sweep_spec(
        monkeypatch,
        ["--algos", ",".join(algos), *SUITE, *limit,
         *(RISK_FLAGS if risk else [])],
    )
    table = ITERATION_PARAMS if mode == "iterations" else BUDGET_PARAMS
    built = {name: algo for name, algo in spec.algorithms}
    assert sorted(built) == sorted(algos)
    for name in algos:
        expected = {
            "network": "contention-free",
            "platform": "uniform",
            **table[name],
            **(RISK if risk else {}),
        }
        assert built[name].kind == name
        assert built[name].params_dict() == expected, name
    fingerprints = "".join(sorted(c.fingerprint() for c in spec.cells()))
    digest = hashlib.sha256(fingerprints.encode()).hexdigest()
    assert digest == FINGERPRINTS[(mode, risk)]


ISLAND_STALL = {
    "se": {"stall_iterations": None},
    "ga": {"stall_generations": None},
    "sa": {"stall_iterations": None, "record_every": 100},
    "tabu": {"stall_iterations": None},
}


@pytest.mark.parametrize("kind", ["se", "ga", "sa", "tabu"])
def test_engine_defaults(kind):
    cap = "max_generations" if kind == "ga" else "max_iterations"
    assert engine_defaults(kind, 1.5, None, "nic", "cloud") == {
        "network": "nic",
        "platform": "cloud",
        cap: U,
        "time_limit": 1.5,
        **ISLAND_STALL[kind],
    }
    assert engine_defaults(kind, None, 6, "contention-free", "uniform") == {
        "network": "contention-free",
        "platform": "uniform",
        cap: 6,
        **ISLAND_STALL[kind],
    }


#: per-engine config fields ``compare_named`` sets under a 1.5 s budget
HEAD_TO_HEAD = {
    "se": {"max_iterations": U, "selection_bias": -0.1},
    "ga": {"max_generations": U, "stall_generations": None},
    "sa": {"max_iterations": U, "record_every": 50},
    "tabu": {"max_iterations": U},
}


@pytest.mark.parametrize("kind", sorted(HEAD_TO_HEAD))
def test_head_to_head_config(monkeypatch, tiny_workload, kind):
    from repro.analysis.compare import compare_named
    from repro.runner.registry import ENGINES, Engine

    seen = {}

    def capture(self, workload, config, **hooks):
        seen["config"] = config
        raise _Captured

    monkeypatch.setattr(Engine, "run", capture)
    with pytest.raises(_Captured):
        compare_named(
            tiny_workload, [kind], 1.5, seed=3, network="nic",
            platform="cloud",
        )
    config = seen["config"]
    expected = {
        "network": "nic",
        "platform": "cloud",
        "time_limit": 1.5,
        **HEAD_TO_HEAD[kind],
    }
    assert {k: getattr(config, k) for k in expected} == expected
    # every other field keeps the engine's default
    default = ENGINES[kind].build()
    for field in dataclasses.fields(config):
        if field.name not in expected and field.name != "seed":
            assert getattr(config, field.name) == getattr(
                default, field.name
            ), field.name


def test_figure_runs_se_against_ga(monkeypatch, capsys):
    seen = {}

    def capture(workload, algorithms, **kwargs):
        seen.update(algorithms=algorithms, **kwargs)
        raise _Captured

    # the figure handler imports compare_named when it runs
    monkeypatch.setattr("repro.analysis.compare.compare_named", capture)
    with pytest.raises(_Captured):
        main(["figure", "5", "--seed", "4", "--budget", "0.5", "--points", "3"])
    assert seen == {
        "algorithms": ["se", "ga"],
        "time_budget": 0.5,
        "grid_points": 3,
        "seed": 4,
    }
