"""Driver-level tests: config validation, execution modes, solo identity.

The ``islands=1`` cells re-check the race against
``tests/data/golden_engines.json`` — the acceptance criterion that a
single-island race is bit-identical to the engine's solo golden run
(same seed, no channel, no exchange overhead in the RNG stream).
"""

import json
from pathlib import Path

import pytest

from repro.optim import SAConfig, SimulatedAnnealing
from repro.portfolio import (
    IslandOutcome,
    RaceConfig,
    RaceResult,
    run_race,
)
from repro.workloads import WorkloadSpec, build_workload, small_workload

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_engines.json"

WORKLOADS = {
    "small-s3": lambda: small_workload(seed=3),
    "spec-12x3": lambda: build_workload(
        WorkloadSpec(num_tasks=12, num_machines=3, seed=5, name="g1")
    ),
}


def golden_cells():
    doc = json.loads(GOLDEN_PATH.read_text())
    return sorted(doc.items())


def parse_key(key):
    wname, network, s = key.split("|")
    return WORKLOADS[wname](), network, int(s[1:])


class TestRaceConfig:
    def test_engines_string_is_split(self):
        cfg = RaceConfig(engines="se, tabu", max_iterations=2)
        assert cfg.engines == ("se", "tabu")

    def test_islands_zero_means_one_per_engine(self):
        cfg = RaceConfig(engines=("se", "ga", "sa"), max_iterations=2)
        assert cfg.islands == 3

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(engines=("se", "heft")), "unknown engine kind"),
            (dict(engines=""), "at least one"),
            (dict(islands=-1), "islands"),
            (dict(mode="greenlet"), "mode"),
            (dict(sync_every=0, max_iterations=4), "sync_every"),
            (dict(sync_every=2), "requires max_iterations"),
            (dict(deadline=None), "deadline, max_iterations"),
            (dict(deadline=0.0), "deadline"),
            (dict(max_iterations=0), "max_iterations"),
            (dict(exchange_interval=0, max_iterations=2), "exchange_interval"),
            (dict(network=""), "network"),
            (dict(platform="no-such-platform"), "platform"),
            (dict(network="warp-drive"), "network"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RaceConfig(**kwargs)


@pytest.mark.parametrize("key,expected", golden_cells())
class TestSoloRaceBitIdentity:
    """``islands=1`` must replay the engine's solo golden trajectory."""

    def race(self, kind, workload, network, seed, iterations, **params):
        cfg = RaceConfig(
            engines=(kind,),
            islands=1,
            deadline=None,
            max_iterations=iterations,
            network=network,
            seed=seed,
        )
        return run_race(
            workload, cfg, engine_params={kind: params} if params else None
        )

    def assert_matches(self, res, g, iterations_key="iterations"):
        (island,) = res.islands
        assert res.best_makespan == g["best_makespan"]
        assert res.best_string["order"] == g["best_string"]["order"]
        assert res.best_string["machines"] == g["best_string"]["machines"]
        assert island.iterations == g[iterations_key]
        assert island.evaluations == g["evaluations"]

    def test_se(self, key, expected):
        w, network, seed = parse_key(key)
        res = self.race("se", w, network, seed, iterations=8)
        self.assert_matches(res, expected["se"])

    def test_ga(self, key, expected):
        w, network, seed = parse_key(key)
        res = self.race(
            "ga", w, network, seed, iterations=6, population_size=8
        )
        self.assert_matches(res, expected["ga"], iterations_key="generations")

    def test_tabu(self, key, expected):
        w, network, seed = parse_key(key)
        res = self.race("tabu", w, network, seed, iterations=8)
        self.assert_matches(res, expected["tabu"])


class TestSoloRaceSA:
    """SA has no pre-portfolio golden; pin solo identity against the
    engine API directly (same seed, same config fields the race sets)."""

    def test_matches_direct_engine_run(self):
        w = small_workload(seed=3)
        res = run_race(
            w,
            RaceConfig(
                engines=("sa",),
                islands=1,
                deadline=None,
                max_iterations=300,
                seed=7,
            ),
        )
        solo = SimulatedAnnealing(
            SAConfig(
                seed=7,
                max_iterations=300,
                stall_iterations=None,
                record_every=100,
                network="contention-free",
            )
        ).run(w)
        assert res.best_makespan == solo.best_makespan
        assert res.best_string["order"] == list(solo.best_string.order)
        assert res.best_string["machines"] == list(solo.best_string.machines)
        assert res.islands[0].evaluations == solo.evaluations


def strip_wallclock(res: RaceResult) -> dict:
    """The race summary minus every wall-clock-dependent field."""
    doc = res.to_dict()
    doc.pop("wall_seconds")
    doc.pop("combined_anytime")
    for island in doc["islands"]:
        island["anytime"] = [cost for _, cost in island["anytime"]]
    return doc


class TestLockstepDeterminism:
    CFG = dict(
        engines=("se", "ga", "sa", "tabu"),
        islands=4,
        deadline=None,
        max_iterations=6,
        sync_every=2,
        seed=11,
    )

    def test_repeat_runs_identical_modulo_wallclock(self):
        w = small_workload(seed=3)
        a = run_race(w, RaceConfig(**self.CFG))
        b = run_race(w, RaceConfig(**self.CFG))
        assert strip_wallclock(a) == strip_wallclock(b)

    def test_exchange_actually_happened(self):
        res = run_race(small_workload(seed=3), RaceConfig(**self.CFG))
        assert sum(o.published for o in res.islands) >= 1
        assert res.best_makespan == min(
            o.best_makespan for o in res.islands
        )


class TestThreadMode:
    def test_race_runs_and_picks_min(self):
        res = run_race(
            small_workload(seed=3),
            RaceConfig(
                engines=("se", "tabu"),
                islands=2,
                deadline=None,
                max_iterations=4,
                mode="thread",
                seed=2,
            ),
        )
        assert len(res.islands) == 2
        assert res.best_makespan == min(o.best_makespan for o in res.islands)
        assert res.best_kind == res.islands[res.best_island].kind
        assert res.workload == "small-medium"

    def test_workload_spec_is_built(self):
        res = run_race(
            WorkloadSpec(num_tasks=10, num_machines=2, seed=4, name="spec-w"),
            RaceConfig(
                engines=("tabu",),
                islands=2,
                deadline=None,
                max_iterations=3,
                mode="thread",
                seed=5,
            ),
        )
        assert res.workload == "spec-w"


class TestProcessMode:
    def test_cross_process_race(self):
        res = run_race(
            small_workload(seed=3),
            RaceConfig(
                engines=("se", "tabu"),
                islands=2,
                deadline=None,
                max_iterations=4,
                mode="process",
                workers=2,
                seed=2,
            ),
        )
        assert len(res.islands) == 2
        assert res.best_makespan == min(o.best_makespan for o in res.islands)
        assert all(o.start_offset >= 0 for o in res.islands)


def make_island(island, kind, best, anytime, offset=0.0):
    return IslandOutcome(
        island=island,
        kind=kind,
        seed=island,
        best_makespan=best,
        best_string={"order": [0], "machines": [0]},
        iterations=3,
        evaluations=10,
        stopped_by="max_iterations",
        published=1,
        received=0,
        start_offset=offset,
        runtime_seconds=1.0,
        anytime=anytime,
    )


class TestRaceResult:
    def result(self):
        islands = (
            make_island(0, "se", 50.0, [(0.1, 80.0), (0.5, 50.0)]),
            make_island(1, "tabu", 60.0, [(0.2, 60.0)], offset=1.0),
        )
        return RaceResult(
            workload="w",
            islands=islands,
            best_makespan=50.0,
            best_string=islands[0].best_string,
            best_island=0,
            wall_seconds=2.0,
        )

    def test_combined_anytime_shifts_and_filters(self):
        # island 1 starts at +1.0s, so its 60.0 lands at t=1.2 — after
        # island 0 already reached 50.0: not a global improvement
        assert self.result().combined_anytime() == [
            (0.1, 80.0),
            (0.5, 50.0),
        ]

    def test_aggregates(self):
        res = self.result()
        assert res.best_kind == "se"
        assert res.evaluations == 20
        assert res.iterations == 6

    def test_to_dict_is_json_safe(self):
        doc = self.result().to_dict()
        roundtrip = json.loads(json.dumps(doc))
        assert roundtrip["best_kind"] == "se"
        assert len(roundtrip["islands"]) == 2


class TestRunnerRegistryEntry:
    def test_portfolio_cell_outcome(self):
        from repro.runner.registry import resolve_algorithm

        fn = resolve_algorithm("portfolio")
        out = fn(
            small_workload(seed=3),
            3,
            {
                "engines": "se,tabu",
                "islands": 2,
                "deadline": None,
                "max_iterations": 3,
            },
        )
        assert out.makespan > 0
        assert out.extras["best_kind"] in ("se", "tabu")
        assert len(out.extras["islands"]) == 2
        assert out.stopped_by

    def test_portfolio_listed_with_params(self):
        from repro.runner.registry import (
            algorithm_parameters,
            available_algorithms,
        )

        assert "portfolio" in available_algorithms()
        params = algorithm_parameters("portfolio")
        assert "engines" in params and "sync_every" in params
