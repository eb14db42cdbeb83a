"""Unit tests for island specs, race defaults, and run_island."""

import pytest

from repro.portfolio import (
    DEFAULT_INTERVALS,
    ENGINE_KINDS,
    LocalChannel,
    build_islands,
    run_island,
)
from repro.portfolio.islands import UNBOUNDED, engine_defaults
from repro.runner.spec import derive_seed
from repro.workloads import small_workload


class TestEngineDefaults:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            engine_defaults("heft", 1.0, None, "contention-free", "uniform")

    def test_deadline_run_is_unbounded_and_stall_free(self):
        p = engine_defaults("se", 2.0, None, "nic", "uniform")
        assert p["max_iterations"] == UNBOUNDED
        assert p["time_limit"] == 2.0
        assert p["stall_iterations"] is None
        assert p["network"] == "nic"

    def test_ga_cap_field_is_generations(self):
        p = engine_defaults("ga", None, 6, "contention-free", "uniform")
        assert p["max_generations"] == 6
        assert "max_iterations" not in p
        assert p["stall_generations"] is None
        assert "time_limit" not in p

    def test_sa_gets_coarse_trace_stride(self):
        p = engine_defaults("sa", 1.0, None, "contention-free", "uniform")
        assert p["record_every"] == 100
        assert p["stall_iterations"] is None


class TestBuildIslands:
    def build(self, **kw):
        args = dict(
            engines=ENGINE_KINDS,
            islands=6,
            base_seed=9,
            deadline=None,
            max_iterations=4,
            network="contention-free",
            platform="uniform",
        )
        args.update(kw)
        return build_islands(**args)

    def test_validation(self):
        with pytest.raises(ValueError, match="islands"):
            self.build(islands=0)
        with pytest.raises(ValueError, match="engines"):
            self.build(engines=())

    def test_kinds_cycle_then_restart(self):
        specs = self.build()
        assert [s.kind for s in specs] == [
            "se", "ga", "sa", "tabu", "se", "ga",
        ]
        assert [s.island for s in specs] == list(range(6))

    def test_seeds_derive_per_island(self):
        specs = self.build()
        assert [s.seed for s in specs] == [
            derive_seed(9, "island", i, s.kind)
            for i, s in enumerate(specs)
        ]
        # restarts of the same kind get distinct streams
        assert specs[0].seed != specs[4].seed

    def test_single_island_keeps_base_seed(self):
        (spec,) = self.build(engines=("tabu",), islands=1)
        assert spec.seed == 9  # the --islands 1 bit-identity contract

    def test_intervals_default_per_kind(self):
        specs = self.build()
        assert [s.interval for s in specs[:4]] == [
            DEFAULT_INTERVALS[k] for k in ENGINE_KINDS
        ]

    def test_interval_override_applies_to_all(self):
        specs = self.build(interval=3)
        assert {s.interval for s in specs} == {3}

    def test_engine_params_override_race_defaults(self):
        specs = self.build(
            engine_params={"ga": {"population_size": 8}, "se": {"bias": 0.1}}
        )
        assert specs[1].params["population_size"] == 8
        assert specs[0].params["bias"] == 0.1
        assert "population_size" not in specs[0].params


class TestRunIsland:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_each_kind_runs_solo(self, kind):
        iters = 200 if kind == "sa" else 4
        (spec,) = build_islands(
            (kind,), 1, 3, None, iters, "contention-free", "uniform"
        )
        out = run_island(spec, small_workload(seed=3))
        assert out.kind == kind
        assert out.best_makespan > 0
        assert out.evaluations > 0
        assert out.published == out.received == 0  # no channel attached
        # the anytime list is the strict best-so-far staircase
        costs = [c for _, c in out.anytime]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        assert costs and costs[-1] == out.best_makespan

    def test_channel_wires_exchange_counters(self):
        channel = LocalChannel()
        (spec,) = build_islands(
            ("tabu",), 1, 3, None, 4, "contention-free", "uniform",
            interval=1,
        )
        out = run_island(spec, small_workload(seed=3), channel)
        # the island published its improvements into the channel…
        assert out.published >= 1
        assert channel.best().cost == out.best_makespan
        # …and adopted nothing (it raced alone)
        assert out.received == 0

    def test_start_offset_measured_against_race_epoch(self):
        import time

        (spec,) = build_islands(
            ("tabu",), 1, 3, None, 2, "contention-free", "uniform"
        )
        out = run_island(
            spec, small_workload(seed=3), race_epoch=time.time() - 5.0
        )
        assert out.start_offset >= 5.0
