"""End-to-end tests of the ``repro race`` command."""

import json

import pytest

from repro.cli import main


class TestRace:
    def test_lockstep_race_prints_table(self, capsys):
        rc = main(
            ["race", "--preset", "small", "--seed", "1",
             "--engines", "se,tabu", "--iterations", "4",
             "--sync-every", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "racing 2 islands (se,tabu)" in out
        assert "lockstep mode" in out
        assert "4 iterations" in out  # deadline dropped for lockstep
        assert "island" in out and "race" in out

    def test_deadline_zero_is_iteration_capped(self, capsys):
        rc = main(
            ["race", "--preset", "small", "--seed", "1",
             "--engines", "tabu", "--islands", "2", "--deadline", "0",
             "--iterations", "3", "--mode", "thread"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 iterations" in out
        assert "thread mode" in out

    def test_verbose_reports_start_offset_per_island(self, capsys):
        rc = main(
            ["race", "--preset", "small", "--seed", "1",
             "--engines", "se,tabu", "--iterations", "3",
             "--sync-every", "3", "--verbose"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        island_lines = [
            ln for ln in out.splitlines() if "started +" in ln
        ]
        assert len(island_lines) == 2
        assert all(ln.startswith("island ") for ln in island_lines)
        assert "combined anytime curve" in out

    def test_output_writes_race_summary_json(self, tmp_path, capsys):
        out_path = tmp_path / "race.json"
        rc = main(
            ["race", "--preset", "small", "--seed", "1",
             "--engines", "se,tabu", "--iterations", "3",
             "--sync-every", "3", "--output", str(out_path)]
        )
        assert rc == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["best_kind"] in ("se", "tabu")
        assert len(doc["islands"]) == 2
        assert doc["best_makespan"] == min(
            o["best_makespan"] for o in doc["islands"]
        )

    def test_nic_network_race(self, capsys):
        rc = main(
            ["race", "--preset", "small", "--seed", "2",
             "--engines", "tabu", "--islands", "2", "--deadline", "0",
             "--iterations", "3", "--mode", "thread", "--network", "nic"]
        )
        assert rc == 0

    def test_bad_engine_exits_with_message(self):
        with pytest.raises(SystemExit, match="race: unknown engine kind"):
            main(
                ["race", "--preset", "small", "--engines", "se,alien",
                 "--iterations", "2"]
            )

    def test_sync_without_iterations_exits(self):
        with pytest.raises(SystemExit, match="requires max_iterations"):
            main(
                ["race", "--preset", "small", "--sync-every", "2"]
            )

    def test_unknown_platform_exits(self):
        with pytest.raises(SystemExit, match="platform"):
            main(
                ["race", "--preset", "small", "--iterations", "2",
                 "--platform", "no-such-platform"]
            )


class TestAlgorithmsListing:
    def test_portfolio_listed_with_race_params(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        line = next(
            ln for ln in out.splitlines() if ln.strip().startswith("portfolio")
        )
        for param in ("engines", "islands", "deadline", "sync_every", "mode"):
            assert param in line


class TestSweepPortfolio:
    """Sweep cells with the portfolio entry are worker-count invariant.

    ``repro sweep`` maps an iteration-capped portfolio onto the
    deterministic lockstep race (``sync_every``, no wall-clock
    deadline), so cells reproduce bit-exactly regardless of the pool
    width — the same contract every other engine honours.
    """

    def sweep(self, tmp_path, tag, workers):
        rc = main(
            [
                "sweep",
                "--name", tag,
                "--algos", "portfolio",
                "--tasks", "10",
                "--machines", "2",
                "--connectivities", "low",
                "--heterogeneities", "low",
                "--ccrs", "0.5",
                "--iterations", "6",
                "--seeds", "1",
                "--workers", str(workers),
                "--quiet",
                "--out", str(tmp_path),
                "--cache", str(tmp_path / f"cache-{tag}"),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / f"{tag}.json").read_text())
        return [
            {k: c[k] for k in ("makespan", "evaluations", "iterations")}
            for c in doc["cells"]
        ]

    def test_worker_count_invariant(self, tmp_path, capsys):
        two = self.sweep(tmp_path, "w2", workers=2)
        one = self.sweep(tmp_path, "w1", workers=1)
        assert two == one
        assert all(c["iterations"] > 0 for c in one)
