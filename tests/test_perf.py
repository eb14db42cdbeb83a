"""Tests of the perf-record schema and the CI regression gate.

The gate's contract: ``repro perf check`` exits 0 when every baseline
metric is within tolerance and non-zero when any metric regressed or
vanished — including on an *injected* regression, which is what CI
relies on to catch real ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main

BASELINE_DIR = Path(__file__).parent.parent / "benchmarks" / "baseline"


def rec(bench, metric, value, unit="x"):
    return perf.make_record(
        bench, metric, value, unit, commit="abc1234", python="3.11.0"
    )


class TestRecords:
    def test_schema_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        records = [rec("MICRO-A", "speedup", 2.5), rec("MICRO-B", "t", 9, "us")]
        perf.save_records(path, records)
        doc = json.loads(path.read_text())
        assert [sorted(d) for d in doc] == [
            sorted(perf.SCHEMA_FIELDS)
        ] * 2
        assert perf.load_records(path) == sorted(records, key=lambda r: r.key)

    def test_provenance_autofilled(self):
        r = perf.make_record("MICRO-A", "speedup", 1.0, "x")
        assert r.commit  # "unknown" at worst, never empty
        assert r.python.count(".") == 2

    def test_record_results_merges_by_key(self, tmp_path):
        path = tmp_path / "bench.json"
        perf.record_results(path, [rec("MICRO-A", "speedup", 1.0)])
        perf.record_results(
            path,
            [rec("MICRO-A", "speedup", 2.0), rec("MICRO-B", "speedup", 3.0)],
        )
        loaded = {r.key: r.value for r in perf.load_records(path)}
        assert loaded == {
            ("MICRO-A", "speedup"): 2.0,
            ("MICRO-B", "speedup"): 3.0,
        }

    def test_load_rejects_bad_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="list"):
            perf.load_records(path)
        path.write_text('[{"bench": "x"}]')
        with pytest.raises(ValueError, match="missing fields"):
            perf.load_records(path)

    def test_unit_direction(self):
        assert perf.lower_is_better("us")
        assert perf.lower_is_better("s")
        assert perf.lower_is_better("usd")
        assert not perf.lower_is_better("x")
        assert not perf.lower_is_better("ops/s")

    def test_cost_metric_requires_currency_unit(self):
        """A cost record without a currency unit is ambiguous about its
        regression direction; the schema rejects it at construction."""
        assert rec("MICRO-P", "schedule_cost", 5.0, "usd").unit == "usd"
        with pytest.raises(ValueError, match="currency unit"):
            rec("MICRO-P", "schedule_cost", 5.0, "")
        with pytest.raises(ValueError, match="currency unit"):
            rec("MICRO-P", "cost", 5.0, "x")

    def test_load_rejects_unitless_cost_records(self, tmp_path):
        """The `repro perf check` path: a BENCH file with a unitless
        cost record must fail to load, not silently gate wrong-way."""
        path = tmp_path / "bad_cost.json"
        doc = rec("MICRO-P", "schedule_cost", 5.0, "usd").to_dict()
        doc["unit"] = ""
        path.write_text(json.dumps([doc]))
        with pytest.raises(ValueError, match="currency unit"):
            perf.load_records(path)
        with pytest.raises(SystemExit, match="currency unit"):
            main(
                ["perf", "check", "--current", str(path), "--baseline", str(path)]
            )

    def test_cost_regression_direction_in_gate(self):
        """usd rises beyond tolerance -> regression; falls -> improved."""
        costly = [rec("A", "schedule_cost", 10.0, "usd")]
        cheap = [rec("A", "schedule_cost", 5.0, "usd")]
        assert not perf.compare_records(costly, cheap).ok
        up = perf.compare_records(cheap, costly)
        assert up.ok
        assert [e.status for e in up.entries] == ["improved"]


class TestCompare:
    def test_within_tolerance_is_ok(self):
        cmp = perf.compare_records(
            [rec("A", "speedup", 2.2)], [rec("A", "speedup", 2.0)]
        )
        assert cmp.ok and [e.status for e in cmp.entries] == ["ok"]

    def test_ratio_drop_beyond_tolerance_regresses(self):
        cmp = perf.compare_records(
            [rec("A", "speedup", 1.3)], [rec("A", "speedup", 2.0)]
        )
        assert not cmp.ok
        assert cmp.regressions[0].status == "regression"
        assert "FAIL" in cmp.describe()

    def test_time_rise_beyond_tolerance_regresses(self):
        cmp = perf.compare_records(
            [rec("A", "t", 20.0, "us")], [rec("A", "t", 10.0, "us")]
        )
        assert not cmp.ok

    def test_time_drop_is_improvement_not_failure(self):
        cmp = perf.compare_records(
            [rec("A", "t", 2.0, "us")], [rec("A", "t", 10.0, "us")]
        )
        assert cmp.ok
        assert [e.status for e in cmp.entries] == ["improved"]

    def test_missing_metric_is_a_regression(self):
        cmp = perf.compare_records([], [rec("A", "speedup", 2.0)])
        assert not cmp.ok
        assert cmp.regressions[0].status == "missing"

    def test_new_metric_rides_along(self):
        cmp = perf.compare_records([rec("A", "speedup", 2.0)], [])
        assert cmp.ok
        assert [e.status for e in cmp.entries] == ["new"]

    def test_zero_baseline(self):
        cmp = perf.compare_records(
            [rec("A", "speedup", 0.0)], [rec("A", "speedup", 0.0)]
        )
        assert cmp.ok
        cmp = perf.compare_records(
            [rec("A", "t", 1.0, "us")], [rec("A", "t", 0.0, "us")]
        )
        assert not cmp.ok

    def test_tolerance_validated(self):
        with pytest.raises(ValueError, match="tolerance"):
            perf.compare_records([], [], tolerance=-0.1)


class TestPerfCheckCli:
    def write(self, path, records):
        perf.save_records(path, records)
        return str(path)

    def test_exit_zero_when_within_tolerance(self, tmp_path, capsys):
        cur = self.write(tmp_path / "cur.json", [rec("A", "speedup", 2.1)])
        base = self.write(tmp_path / "base.json", [rec("A", "speedup", 2.0)])
        code = main(["perf", "check", "--current", cur, "--baseline", base])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_regression(self, tmp_path, capsys):
        """The acceptance check: an injected regression must fail."""
        cur = self.write(tmp_path / "cur.json", [rec("A", "speedup", 1.0)])
        base = self.write(tmp_path / "base.json", [rec("A", "speedup", 2.0)])
        code = main(["perf", "check", "--current", cur, "--baseline", base])
        assert code != 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        cur = self.write(tmp_path / "cur.json", [rec("A", "speedup", 1.0)])
        base = self.write(tmp_path / "base.json", [rec("A", "speedup", 2.0)])
        args = ["perf", "check", "--current", cur, "--baseline", base]
        assert main(args + ["--tolerance", "0.6"]) == 0
        assert main(args + ["--tolerance", "0.2"]) == 1

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="missing BENCH file"):
            main(
                [
                    "perf",
                    "check",
                    "--current",
                    str(tmp_path / "nope.json"),
                    "--baseline",
                    str(tmp_path / "nope2.json"),
                ]
            )

    def test_perf_show(self, tmp_path, capsys):
        cur = self.write(tmp_path / "cur.json", [rec("A", "speedup", 2.0)])
        assert main(["perf", "show", cur]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "abc1234" in out

    def test_committed_baseline_is_loadable_and_machine_portable(self):
        """The baseline shipped in-repo must parse and pin only
        machine-portable metrics (see repro.perf docstring): dimensionless
        speedup ratios ("x"), MICRO-ONLINE's *simulated*-time flow
        latencies ("s"), and MICRO-PLATFORM's deterministic schedule
        costs ("usd") — all exactly reproducible in the pinned seeds;
        wall-clock measurements must never be baselined."""
        records = perf.load_records(BASELINE_DIR / "BENCH_micro.json")
        assert records, "committed baseline must not be empty"
        assert {r.unit for r in records} <= {"x", "s", "usd"}
        for r in records:
            if r.unit == "s":
                assert r.bench == "MICRO-ONLINE", (
                    f"{r.key}: only MICRO-ONLINE's simulated-time metrics "
                    "may carry a time unit in the committed baseline"
                )
            if r.unit == "usd":
                assert r.bench == "MICRO-PLATFORM", (
                    f"{r.key}: only MICRO-PLATFORM's deterministic "
                    "schedule costs may carry a currency unit in the "
                    "committed baseline"
                )
        keys = {r.key for r in records}
        assert ("MICRO-COMPILED", "makespan_speedup") in keys
        assert ("MICRO-DELTA", "speedup") in keys
        assert ("MICRO-ONLINE", "mean_flow") in keys
        assert ("MICRO-PLATFORM", "speedup") in keys

    def test_committed_ratios_regress_downward(self):
        """An ``x`` record is gated as higher-is-better, so no committed
        ratio may be one where lower is better, such as an overhead; the
        portfolio's exchange is baselined as ``t_bare / t_exchange``, and
        a slower exchange must fail the gate."""
        records = perf.load_records(BASELINE_DIR / "BENCH_micro.json")
        overheads = [
            r.key for r in records if r.unit == "x" and "overhead" in r.metric
        ]
        assert not overheads, f"lower-is-better ratios gated upward: {overheads}"
        (base,) = [r for r in records if r.bench == "MICRO-PORTFOLIO"]
        t_bare, t_exchange = 1.0, 2.0  # the exchange run got 2x slower
        slowed = perf.make_record(
            base.bench, base.metric, t_bare / t_exchange, base.unit
        )
        (entry,) = perf.compare_records([slowed], [base]).entries
        assert entry.status == "regression"

    def test_committed_jit_baseline_is_ratio_only(self):
        """The JIT-tier baseline lives in its own file (gated only on
        the numba CI leg — folding it into BENCH_micro.json would make
        the no-numba perf job fail on "missing" jit metrics) and must
        pin only dimensionless ratios: speedups and per-core parallel
        efficiency, both machine-portable by construction."""
        records = perf.load_records(BASELINE_DIR / "BENCH_micro_jit.json")
        assert records, "committed jit baseline must not be empty"
        assert {r.unit for r in records} == {"x"}
        keys = {r.key for r in records}
        assert ("MICRO-JIT", "speedup") in keys
        assert ("MICRO-JIT-NIC", "speedup") in keys
        assert ("MICRO-JIT-SCALE", "efficiency_4t") in keys
        # the acceptance bar: a >=10x target derated ~10% (PR-3
        # convention), never below what ±30% tolerance could let slip
        # under the NumPy tier's own ~3x
        by_key = {r.key: r.value for r in records}
        assert by_key[("MICRO-JIT", "speedup")] >= 7.0
        assert by_key[("MICRO-JIT-NIC", "speedup")] >= 7.0
        assert by_key[("MICRO-JIT-SCALE", "efficiency_4t")] >= 0.7
