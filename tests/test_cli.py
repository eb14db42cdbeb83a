"""Unit tests for the command-line interface."""

import pytest

from repro.cli import PRESETS, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_presets_known(self):
        expected = {
            "paper-sample",
            "small",
            "fig3",
            "fig4a",
            "fig4b",
            "fig5",
            "fig6",
            "fig7",
        }
        assert set(PRESETS) == expected


class TestDescribe:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_describes_every_preset(self, preset, capsys):
        assert main(["describe", "--preset", preset, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "subtasks" in out


class TestRun:
    def test_se_run(self, capsys):
        rc = main(
            ["run", "--algo", "se", "--preset", "small", "--seed", "1",
             "--iterations", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SE finished" in out
        assert "makespan" in out

    def test_ga_run(self, capsys):
        rc = main(
            ["run", "--algo", "ga", "--preset", "small", "--seed", "1",
             "--iterations", "5"]
        )
        assert rc == 0
        assert "GA finished" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["heft", "minmin", "maxmin", "olb"])
    def test_deterministic_algos(self, algo, capsys):
        rc = main(["run", "--algo", algo, "--preset", "small", "--seed", "1"])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["se", "heft"])
    def test_nic_network_run(self, algo, capsys):
        rc = main(
            ["run", "--algo", algo, "--preset", "small", "--seed", "1",
             "--iterations", "5", "--network", "nic"]
        )
        assert rc == 0
        assert "makespan (nic)" in capsys.readouterr().out

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algo", "se", "--preset", "small",
                  "--network", "token-ring"])

    def test_random_run(self, capsys):
        rc = main(
            ["run", "--algo", "random", "--preset", "small", "--seed", "1",
             "--iterations", "30"]
        )
        assert rc == 0

    def test_gantt_flag(self, capsys):
        rc = main(
            ["run", "--algo", "heft", "--preset", "small", "--seed", "1",
             "--gantt"]
        )
        assert rc == 0
        assert "m0" in capsys.readouterr().out

    def test_se_y_and_bias_flags(self, capsys):
        rc = main(
            ["run", "--algo", "se", "--preset", "small", "--seed", "1",
             "--iterations", "5", "--y", "2", "--bias", "-0.1"]
        )
        assert rc == 0


class TestCompareAndFigures:
    def test_compare_small_budget(self, capsys):
        rc = main(
            ["compare", "--preset", "small", "--seed", "1",
             "--budget", "0.3", "--points", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SE" in out and "GA" in out
        assert "winner timeline" in out

    def test_figure_3a(self, capsys):
        rc = main(["figure", "3a", "--seed", "1", "--iterations", "10"])
        assert rc == 0
        assert "selected" in capsys.readouterr().out

    def test_figure_4a_small(self, capsys):
        rc = main(["figure", "4a", "--seed", "1", "--iterations", "3"])
        assert rc == 0
        assert "Y=5" in capsys.readouterr().out

    def test_figure_5_small_budget(self, capsys):
        rc = main(
            ["figure", "5", "--seed", "1", "--budget", "0.4", "--points", "4"]
        )
        assert rc == 0
        assert "SE" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "0"], "budget must be > 0"),
            (["--budget", "-1"], "budget must be > 0"),
            (["--points", "0"], "points must be >= 1"),
        ],
    )
    @pytest.mark.parametrize(
        "command", [["compare"], ["figure", "5"]], ids=["compare", "figure"]
    )
    def test_bad_budget_or_grid_exits_before_output(
        self, capsys, command, flags, message
    ):
        with pytest.raises(SystemExit, match=f"{command[0]}: {message}"):
            main([*command, *flags])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "algos, message",
        [
            ("bogus", "unknown comparison algorithms"),
            ("se,bogus", "unknown comparison algorithms"),
            (" , ", "need at least one algorithm name"),
            ("se,SE", "duplicate algorithm names"),
        ],
    )
    def test_bad_algorithm_names_exit_before_output(
        self, capsys, algos, message
    ):
        with pytest.raises(SystemExit, match=f"compare: {message}"):
            main(["compare", "--algos", algos, "--budget", "0.1"])
        assert capsys.readouterr().out == ""


class TestSweep:
    def test_sweep_league_and_artifacts(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--name", "t",
                "--algos", "heft,olb",
                "--tasks", "10",
                "--machines", "2",
                "--connectivities", "low",
                "--heterogeneities", "low",
                "--ccrs", "0.5",
                "--workers", "1",
                "--quiet",
                "--out", str(tmp_path),
                "--cache", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "league" in out
        assert (tmp_path / "t.json").exists()
        assert (tmp_path / "t.csv").exists()
        assert list((tmp_path / "cache").glob("*.json"))

    def test_sweep_under_nic_records_network(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--name", "nic-sweep",
                "--algos", "heft,olb",
                "--tasks", "10",
                "--machines", "2",
                "--connectivities", "low",
                "--heterogeneities", "low",
                "--ccrs", "0.5",
                "--network", "nic",
                "--quiet",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        import json

        doc = json.loads((tmp_path / "nic-sweep.json").read_text())
        assert {c["network"] for c in doc["cells"]} == {"nic"}
        csv_text = (tmp_path / "nic-sweep.csv").read_text()
        assert "network" in csv_text.splitlines()[0]

    def test_sweep_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit, match="unknown algorithms"):
            main(["sweep", "--algos", "bogus"])


class TestNewEngines:
    def test_sa_run(self, capsys):
        rc = main(
            ["run", "--algo", "sa", "--preset", "small", "--seed", "1",
             "--iterations", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SA finished" in out and "makespan" in out

    def test_tabu_run(self, capsys):
        rc = main(
            ["run", "--algo", "tabu", "--preset", "small", "--seed", "1",
             "--iterations", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tabu finished" in out and "makespan" in out

    def test_sa_under_nic(self, capsys):
        rc = main(
            ["run", "--algo", "sa", "--preset", "small", "--seed", "1",
             "--iterations", "2", "--network", "nic"]
        )
        assert rc == 0
        assert "makespan (nic)" in capsys.readouterr().out


class TestAlgorithmsCommand:
    def test_lists_every_registry_algorithm(self, capsys):
        from repro.runner import available_algorithms

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in available_algorithms():
            assert name in out

    def test_lists_parameter_names(self, capsys):
        main(["algorithms"])
        out = capsys.readouterr().out
        assert "max_iterations" in out        # se / sa / tabu
        assert "stall_generations" in out     # ga
        assert "neighborhood_size" in out     # tabu
        assert "cooling" in out               # sa
        assert "batch_size" in out            # random

    def test_sweep_unknown_algorithm_error_lists_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--algos", "bogus"])
        msg = str(exc.value)
        assert "unknown algorithms" in msg
        assert "tabu" in msg and "neighborhood_size" in msg

    def test_lists_networks(self, capsys):
        main(["algorithms"])
        out = capsys.readouterr().out
        assert "network models (--network):" in out
        assert "  contention-free\n" in out
        assert "  nic\n" in out
        assert "batch evaluation" not in out


class TestRunVerbose:
    def test_quiet_by_default(self, capsys):
        main(
            ["run", "--algo", "heft", "--preset", "small", "--seed", "1",
             "--network", "nic"]
        )
        assert "scalar walker" not in capsys.readouterr().out

    @pytest.mark.parametrize("forced", [False, True])
    def test_verbose_reports_the_scalar_walker(self, capsys, monkeypatch,
                                               forced):
        from repro.schedule import walker

        if forced:
            monkeypatch.setenv(walker.ENV, "python")
            want = "scalar walker: python (REPRO_WALKER=python)"
        else:
            monkeypatch.delenv(walker.ENV, raising=False)
            module, reason = walker.load()
            want = "scalar walker: " + (
                "compiled" if module is not None else f"python ({reason})"
            )
        rc = main(
            ["run", "--algo", "se", "--preset", "small", "--seed", "1",
             "--iterations", "2", "--network", "nic", "--verbose"]
        )
        assert rc == 0
        assert want in capsys.readouterr().out.splitlines()


class TestCompareNetwork:
    def test_compare_under_nic(self, capsys):
        rc = main(
            ["compare", "--preset", "small", "--seed", "1",
             "--budget", "0.2", "--points", "2",
             "--algos", "se,tabu", "--network", "nic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "'nic'" in out
        assert "final best" in out


class TestSweepNewEngines:
    def test_five_algorithm_sweep(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--name", "five",
                "--algorithms", "se,ga,sa,tabu,random",
                "--tasks", "10",
                "--machines", "2",
                "--connectivities", "low",
                "--heterogeneities", "low",
                "--ccrs", "0.5",
                "--iterations", "5",
                "--quiet",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "league" in out
        for algo in ("se", "ga", "sa", "tabu", "random"):
            assert algo in out
        import json

        doc = json.loads((tmp_path / "five.json").read_text())
        assert {c["algorithm"] for c in doc["cells"]} == {
            "se", "ga", "sa", "tabu", "random",
        }


class TestCompareAlgos:
    def test_compare_sa_vs_tabu(self, capsys):
        rc = main(
            ["compare", "--preset", "small", "--seed", "1",
             "--budget", "0.2", "--points", "3", "--algos", "sa,tabu"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SA" in out and "TABU" in out
        assert "winner timeline" in out

    def test_compare_unknown_engine_rejected(self):
        with pytest.raises(SystemExit, match="unknown comparison"):
            main(["compare", "--preset", "small", "--budget", "0.1",
                  "--algos", "bogus"])


class TestPlatformFlag:
    def test_run_prints_cost_on_priced_platform(self, capsys):
        rc = main(
            ["run", "--algo", "heft", "--preset", "small", "--seed", "1",
             "--platform", "spot"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost (spot):" in out and "usd" in out

    def test_run_uniform_prints_no_cost_line(self, capsys):
        main(["run", "--algo", "heft", "--preset", "small", "--seed", "1"])
        assert "usd" not in capsys.readouterr().out

    def test_run_unknown_platform_rejected(self):
        with pytest.raises(SystemExit, match="unknown platform"):
            main(["run", "--algo", "heft", "--preset", "small",
                  "--platform", "mainframe"])

    def test_verbose_lists_platforms(self, capsys):
        main(
            ["run", "--algo", "heft", "--preset", "small", "--seed", "1",
             "--verbose"]
        )
        out = capsys.readouterr().out
        assert "platform catalogs (--platform):" in out
        assert "0.3 boot" in out  # cloud's description

    def test_algorithms_lists_platforms(self, capsys):
        main(["algorithms"])
        out = capsys.readouterr().out
        assert "platform catalogs (--platform)" in out
        for name in ("cloud", "spot", "uniform"):
            assert name in out

    def test_sa_run_on_platform(self, capsys):
        rc = main(
            ["run", "--algo", "sa", "--preset", "small", "--seed", "1",
             "--iterations", "30", "--platform", "spot"]
        )
        assert rc == 0
        assert "cost (spot):" in capsys.readouterr().out


class TestParetoCommand:
    def test_pareto_traces_a_front(self, capsys):
        rc = main(
            ["pareto", "--preset", "small", "--seed", "2",
             "--iterations", "10", "--weights", "0,0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HEFT reference on 'spot'" in out
        assert "cost (usd)" in out  # the front table
        assert "cheapest within 1.2x" in out

    def test_pareto_tabu_front_is_pinned(self, capsys):
        """Every candidate tabu scores reaches the tracker: a route that
        pruned candidates before the tracker saw them shrank this front
        (to 8 points from 340 offers)."""
        rc = main(
            ["pareto", "--algo", "tabu", "--platform", "spot",
             "--iterations", "10", "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        front = out[out.index("pareto front"):out.index("\n\ncheapest")]
        assert front.splitlines() == [
            "pareto front — 14 points from 1206 scored offers:",
            "| makespan | cost (usd) | x best span | cost vs ref |",
            "|---|---|---|---|",
            "| 377.724 | 413.5377 | 1.000x | -16.3% |",
            "| 543.875 | 355.7086 | 1.440x | +0.0% |",
            "| 560.529 | 346.1121 | 1.484x | +2.7% |",
            "| 564.123 | 298.7560 | 1.493x | +16.0% |",
            "| 573.947 | 278.5637 | 1.519x | +21.7% |",
            "| 601.413 | 240.9402 | 1.592x | +32.3% |",
            "| 695.667 | 236.0722 | 1.842x | +33.6% |",
            "| 807.568 | 215.0706 | 2.138x | +39.5% |",
            "| 925.042 | 180.4223 | 2.449x | +49.3% |",
            "| 1072.496 | 171.2007 | 2.839x | +51.9% |",
            "| 1090.977 | 161.4591 | 2.888x | +54.6% |",
            "| 1091.331 | 155.1193 | 2.889x | +56.4% |",
            "| 1103.590 | 149.2956 | 2.922x | +58.0% |",
            "| 1177.567 | 146.9623 | 3.118x | +58.7% |",
        ]

    def test_pareto_rejects_uniform(self):
        with pytest.raises(SystemExit, match="billing table"):
            main(["pareto", "--preset", "small", "--platform", "uniform"])

    def test_pareto_rejects_bad_weights(self):
        with pytest.raises(SystemExit, match="weights"):
            main(["pareto", "--preset", "small", "--weights", "0,2.5"])
        with pytest.raises(SystemExit, match="weights"):
            main(["pareto", "--preset", "small", "--weights", "abc"])

    def test_pareto_unknown_platform_rejected(self):
        with pytest.raises(SystemExit, match="unknown platform"):
            main(["pareto", "--preset", "small", "--platform", "vax"])


class TestSweepPlatform:
    def test_sweep_reports_mean_cost(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--name", "spot-sweep",
                "--algorithms", "heft,olb",
                "--tasks", "10",
                "--machines", "2",
                "--connectivities", "low",
                "--heterogeneities", "low",
                "--ccrs", "0.5",
                "--platform", "spot",
                "--quiet",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean schedule cost" in out and "usd" in out
        import csv

        rows = list(csv.DictReader(open(tmp_path / "spot-sweep.csv")))
        assert rows and all(r["platform"] == "spot" for r in rows)
        assert all(float(r["cost"]) > 0 for r in rows)

    def test_sweep_unknown_platform_rejected(self):
        with pytest.raises(SystemExit, match="unknown platform"):
            main(["sweep", "--name", "x", "--algorithms", "heft",
                  "--platform", "abacus"])


class TestRunThroughEngineTable:
    def test_random_honours_budget(self, capsys):
        """``--budget`` stops random search like every other engine."""
        rc = main(
            ["run", "--algo", "random", "--preset", "small", "--seed", "1",
             "--iterations", "100000", "--budget", "0.2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        evaluations = int(
            out.split("random-search finished (")[1].split(" ")[0]
        )
        # fewer evaluations than even one sample per --iterations unit
        assert 0 < evaluations < 100000
