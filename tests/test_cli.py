import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphspde
from graphspde.cli import _build_parser, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_writes_expected_row_counts(self, tmp_path):
        out = tmp_path / "d"
        code = main(["synth", "--kind", "heat-line", "--nodes", "21", "--k", "1",
                     "--t", "1:50", "--seed", "7", "--out", str(out)])
        assert code == 0
        series = read_csv(out / "series.csv")
        assert len(series) == 21 * 50
        graph_rows = read_csv(out / "graph.csv")
        assert len(graph_rows) == 20
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["spec"]["seed"] == 7

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["synth", "--kind", "wave-line", "--nodes", "11", "--k", "1",
                "--t", "1:30", "--noise-sd", "0.05", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("graph.csv", "series.csv", "provenance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_node_rejected(self, tmp_path, capsys):
        code = main(["synth", "--nodes", "1", "--t", "1:5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err


class TestBacktest:
    @pytest.fixture
    def small_dataset(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--kind", "heat-line", "--nodes", "5", "--k", "1",
                     "--t", "1:14", "--noise-sd", "0.01", "--seed", "1", "--out", str(out)]) == 0
        return out

    def test_end_to_end_results_csv(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["backtest", "--graph", str(small_dataset / "graph.csv"),
                     "--series", str(small_dataset / "series.csv"),
                     "--kernels", "shek,sep-matern-rbf", "--baseline", "shek",
                     "--rounds", "2", "--n-train", "8", "--n-test", "2",
                     "--max-iters", "3", "--restarts", "0",
                     "--out", str(out), "--seed", "0"])
        assert code == 0
        rows = read_csv(out / "results.csv")
        header = {"round", "kernel", "split", "mae", "mape", "ci_half_width",
                  "dm_vs_baseline_p", "wall_time", "status"}
        assert header.issubset(rows[0].keys())
        summary = [r for r in rows if r["status"] == "summary"]
        # 2 kernels x 2 tasks
        assert len(summary) == 4
        ok_rounds = [r for r in rows if r["status"] == "ok"]
        assert len(ok_rounds) == 8  # 2 kernels x 2 tasks x 2 rounds
        out = capsys.readouterr().out
        assert "backtest over 2 rounds" in out
        # summary table: one row per kernel with a column group per task
        assert "MAE_int" in out and "MAE_ext" in out

    def test_unknown_baseline_rejected(self, small_dataset, tmp_path, capsys):
        code = main(["backtest", "--graph", str(small_dataset / "graph.csv"),
                     "--series", str(small_dataset / "series.csv"),
                     "--kernels", "shek", "--baseline", "swek",
                     "--rounds", "1", "--n-train", "8", "--n-test", "2",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_unknown_mean_policy_rejected_before_any_round(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("fitted a round although the mean policy is unknown")

        monkeypatch.setattr("graphspde.experiments._evaluate_round", unreachable)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backtest": {"synth": TINY_SYNTH, "mean_policy": "bogus"}}))
        code = main(["backtest", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "'bogus'" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_job_rejected(self, tmp_path, capsys, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backtest": {"synth": TINY_SYNTH}}))
        code = main(["backtest", "--config", str(config), "--jobs", jobs, "--rounds", "1",
                     "--n-train", "8", "--n-test", "2", "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: jobs must be >= 1")

    def test_empty_kernel_list_lists_valid_names(self, small_dataset, tmp_path, capsys):
        code = main(["backtest", "--graph", str(small_dataset / "graph.csv"),
                     "--series", str(small_dataset / "series.csv"),
                     "--kernels", ",", "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--kernels" in err and "shek" in err and "sep-matern-rbf" in err


class TestValidateKernel:
    def test_shek_three_path_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["validate-kernel", "--kernel", "shek", "--nodes", "3",
                     "--nu", "1.0", "--kappa", "1.4142135623730951",
                     "--n-paths", "20000", "--t-end", "1.0", "--out", str(out), "--seed", "5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        rows = read_csv(out / "validate_shek.csv")
        assert {"t", "s", "node_i", "node_j", "analytic", "empirical", "se", "z"}.issubset(rows[0])

    def test_settings_it_never_reads_are_not_checked(self, tmp_path, capsys):
        # variance and time_lengthscale are no validate-kernel settings
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"validate": {"variance": "abc", "time_lengthscale": "x"}}))
        code = main(["validate-kernel", "--config", str(path), "--kernel", "shek", "--nodes", "2",
                     "--n-paths", "20000", "--out", str(tmp_path / "v"), "--seed", "5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_swek_single_vertex_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["validate-kernel", "--kernel", "swek", "--nodes", "1",
                     "--nu", "2.0", "--kappa", "2.0",
                     "--n-paths", "20000", "--t-end", "3.0", "--out", str(out), "--seed", "6"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n_paths", ["1", "0"])
    def test_fewer_than_two_paths_rejected_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                             n_paths):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated although n_paths < 2")

        monkeypatch.setattr("graphspde.cli.simulate_heat", unreachable)
        code = main(["validate-kernel", "--kernel", "shek", "--nodes", "3",
                     "--n-paths", n_paths, "--out", str(tmp_path / "v")])
        assert code == 2
        assert "n_paths >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [("--dt", "0", "dt"), ("--dt", "nan", "dt"),
                                                   ("--t-end", "0", "t_end")])
    def test_non_positive_or_non_finite_times_are_data_errors(self, tmp_path, capsys, monkeypatch,
                                                              flag, value, name):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated with an invalid dt or t_end")

        monkeypatch.setattr("graphspde.cli.simulate_heat", unreachable)
        code = main(["validate-kernel", "--kernel", "shek", "--nodes", "3", flag, value,
                     "--n-paths", "10", "--out", str(tmp_path / "v")])
        assert code == 2
        assert f"finite {name} > 0" in capsys.readouterr().err

    def test_unallocatable_path_count_is_a_data_error(self, tmp_path, capsys):
        # numpy refuses 6.4 PiB of paths outright, before it reserves any memory
        code = main(["validate-kernel", "--kernel", "shek", "--nodes", "3",
                     "--n-paths", "100000000000000", "--out", str(tmp_path / "v")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "n_paths" in err

    def test_unstable_dt_fails_with_numeric_exit(self, tmp_path, capsys):
        code = main(["validate-kernel", "--kernel", "shek", "--nodes", "3",
                     "--c", "100.0", "--dt", "0.01", "--t-end", "1.0",
                     "--n-paths", "10", "--out", str(tmp_path / "v")])
        assert code == 3
        assert "unstable" in capsys.readouterr().err


class TestSample:
    def test_one_csv_per_diffusivity(self, tmp_path):
        out = tmp_path / "s"
        code = main(["sample", "--kernel", "shek", "--nodes", "3",
                     "--times", "0:2:0.25", "--condition", "0,0,10",
                     "--c", "0.1,1,2", "--nu", "2", "--kappa", "1e6",
                     "--n-samples", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        for c in ("0.1", "1", "2"):
            assert (out / f"samples_c{c}.csv").exists()
        rows = read_csv(out / "samples_c1.csv")
        series = {r["series"] for r in rows}
        assert {"mean", "lo95", "hi95", "sample_000", "sample_001", "sample_002"} <= series

    def test_zero_samples_gives_band_only(self, tmp_path):
        out = tmp_path / "s"
        code = main(["sample", "--kernel", "swek", "--nodes", "2", "--times", "0:1:0.5",
                     "--n-samples", "0", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "samples_c1.csv")
        assert {r["series"] for r in rows} == {"mean", "lo95", "hi95"}

    def test_unknown_kernel_lists_valid_names(self, tmp_path, capsys):
        code = main(["sample", "--kernel", "bogus", "--nodes", "2", "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "shek" in err and "swek" in err
        assert "sep-laplacian-brownian" in err and "sep-matern-cosine" in err

    @pytest.mark.parametrize("kernel", ["sep-matern-cosine", "sep-laplacian-brownian"])
    def test_every_separable_name_builds(self, kernel, tmp_path):
        out = tmp_path / "s"
        code = main(["sample", "--kernel", kernel, "--nodes", "3", "--times", "1:2:0.5",
                     "--n-samples", "1", "--out", str(out)])
        assert code == 0
        assert (out / "samples_c1.csv").exists()

    def test_non_finite_noise_is_data_error(self, tmp_path, capsys):
        code = main(["sample", "--kernel", "shek", "--nodes", "3", "--condition", "0,0,1",
                     "--noise", "nan", "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: noise_variance")

    def test_condition_length_checked(self, tmp_path, capsys):
        code = main(["sample", "--kernel", "shek", "--nodes", "3", "--condition", "1,2",
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert "one value per vertex" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_writes_json(self, tmp_path):
        data = tmp_path / "d"
        assert main(["synth", "--kind", "heat-line", "--nodes", "4", "--t", "1:8",
                     "--seed", "0", "--out", str(data)]) == 0
        out = tmp_path / "f"
        code = main(["fit", "--graph", str(data / "graph.csv"),
                     "--series", str(data / "series.csv"), "--kernel", "shek",
                     "--max-iters", "5", "--restarts", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "fit_shek.json").read_text())
        assert "lml" in payload and "hyper" in payload
        # every start that ran, in order, and the starts a repeated optimum left unrun
        starts = payload["starts"]
        assert 1 <= len(starts) and len(starts) + payload["skipped_starts"] == 3
        assert all(start["iterations"] >= 1 for start in starts)
        assert max(start["lml"] for start in starts) == payload["lml"]

    def test_non_finite_noise_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--kind", "heat-line", "--nodes", "4", "--t", "1:8",
                     "--seed", "0", "--out", str(data)]) == 0
        code = main(["fit", "--graph", str(data / "graph.csv"), "--series", str(data / "series.csv"),
                     "--kernel", "shek", "--noise", "nan", "--out", str(tmp_path / "f")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: noise_variance")


_HYPER_FLAGS = {"--c": float, "--sigma": float, "--nu": float, "--kappa": float,
                "--time-lengthscale": float, "--variance": float}
# every subcommand's flags, each with its type (None: the string itself) or its choices
FLAGS = {
    "synth": {"--kind": ("heat-line", "wave-line"), "--nodes": int, "--k": float, "--t": None,
              "--noise-sd": float},
    "backtest": {"--graph": None, "--series": None, "--kernels": None, "--baseline": None,
                 "--task": ("interpolation", "extrapolation", "both"), "--n-train": int,
                 "--n-test": int, "--stride": int, "--rounds": int, "--max-iters": int,
                 "--restarts": int, "--jobs": int, **_HYPER_FLAGS},
    "validate-kernel": {"--kernel": ("shek", "swek"), "--graph": None, "--nodes": int,
                        "--dt": float, "--t-end": float, "--n-paths": int, "--c": float,
                        "--sigma": float, "--nu": float, "--kappa": float},
    "sample": {"--kernel": None, "--graph": None, "--nodes": int, "--times": None,
               "--condition": None, "--n-samples": int, "--noise": float,
               **_HYPER_FLAGS, "--c": None},
    "fit": {"--graph": None, "--series": None, "--kernel": None, "--noise": float,
            "--max-iters": int, "--restarts": int, **_HYPER_FLAGS},
}


class TestUsage:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_flag_set(self):
        (commands,) = [a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(FLAGS)
        for command, parser in commands.choices.items():
            seen = {}
            for action in parser._actions:
                if action.dest == "help":
                    continue
                (flag,) = action.option_strings
                assert action.dest == flag[2:].replace("-", "_")
                seen[flag] = tuple(action.choices) if action.choices else action.type
            expected = {"--config": None, "--seed": int, "--out": None, **FLAGS[command]}
            assert seen == expected, command

    @pytest.mark.parametrize("flag", ["--synth", "--variant", "--grad-tol", "--mean-policy"])
    def test_config_only_settings_have_no_flag(self, capsys, flag):
        assert main(["backtest", flag, "1e-3"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_jobs_belongs_to_backtest_alone(self, capsys):
        assert main(["fit", "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--nodes", "1", "--t", "1:5"],
        ["backtest", "--kernels", "shek"],
        ["validate-kernel", "--n-paths", "1"],
        ["sample", "--nodes", "0"],
        ["fit", "--kernel", "shek"],
    ], ids=lambda argv: argv[0])
    def test_data_error_leaves_no_output_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "fresh"
        assert main(argv + ["--out", str(out)]) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_version_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.fixture
def tiny_files(tmp_path):
    """A 3-node line graph and a 3 x 10 heat series, written by ``synth``."""
    out = tmp_path / "data"
    assert main(["synth", "--nodes", "3", "--t", "1:10", "--noise-sd", "0.01", "--seed", "1",
                 "--out", str(out)]) == 0
    return out


# per subcommand: its arguments, with {data} the tiny files, and the output it writes
QUICK_RUNS = {
    "synth": (["--nodes", "3", "--t", "1:5"], "graph.csv"),
    "backtest": (["--graph", "{data}/graph.csv", "--series", "{data}/series.csv", "--kernels", "sep-laplacian-rbf",
                  "--task", "extrapolation", "--n-train", "6", "--n-test", "2", "--rounds", "1",
                  "--max-iters", "2", "--restarts", "0"], "results.csv"),
    "validate-kernel": (["--nodes", "2", "--n-paths", "200", "--dt", "0.01"], "validate_shek.csv"),
    "sample": (["--nodes", "2", "--times", "0:1:0.5", "--n-samples", "1"], "samples_c1.csv"),
    "fit": (["--graph", "{data}/graph.csv", "--series", "{data}/series.csv", "--max-iters", "2",
             "--restarts", "0"], "fit_shek.json"),
}
# per subcommand: arguments that name an input file that does not exist
MISSING_INPUTS = {
    "synth": ["--config", "{missing}"],
    "backtest": ["--graph", "{missing}", "--series", "{missing}"],
    "validate-kernel": ["--graph", "{missing}"],
    "sample": ["--graph", "{missing}"],
    "fit": ["--graph", "{missing}", "--series", "{missing}"],
}


class TestFileErrors:
    """A file a command cannot read or write is a data error: exit 2 and the system's reason."""

    @pytest.mark.parametrize("command", list(QUICK_RUNS))
    def test_an_output_it_cannot_write_is_a_data_error(self, tiny_files, tmp_path, capsys, command):
        argv, output = QUICK_RUNS[command]
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)  # a directory where the output file goes
        assert main([command] + [a.format(data=tiny_files) for a in argv] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and output in err

    @pytest.mark.parametrize("command", list(MISSING_INPUTS))
    def test_an_input_it_cannot_read_is_a_data_error(self, tmp_path, capsys, command):
        missing, out = tmp_path / "nope.csv", tmp_path / "out"
        assert main([command] + [a.format(missing=missing) for a in MISSING_INPUTS[command]]
                    + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "nope.csv" in err
        assert not out.exists()


@pytest.mark.parametrize("command, flags, output", [
    ("validate-kernel", ["--n-paths", "200", "--dt", "0.01", "--seed", "4"], "validate_shek.csv"),
    ("sample", ["--times", "0:2:0.5", "--condition", "0,1,2", "--n-samples", "2", "--seed", "4"], "samples_c1.csv"),
])
def test_a_graph_file_takes_the_place_of_nodes(tiny_files, tmp_path, command, flags, output):
    # the file's 3-node line against --nodes 2: the file wins, so the output is that of --nodes 3
    from_file, from_nodes = tmp_path / "file", tmp_path / "nodes"
    main([command, "--graph", str(tiny_files / "graph.csv"), "--nodes", "2", "--out", str(from_file)] + flags)
    main([command, "--nodes", "3", "--out", str(from_nodes)] + flags)
    assert (from_file / output).read_bytes() == (from_nodes / output).read_bytes()
    assert {row["node_i" if command == "validate-kernel" else "node"] for row in read_csv(from_file / output)} == {
        "v00", "v01", "v02"}


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "out": str(tmp_path / "from_config"),
            "synth": {"kind": "heat-line", "nodes": 5, "k": 1.0, "t": "1:6", "seed": 1},
        }))
        # config supplies everything; the --nodes flag must win over its key
        code = main(["synth", "--config", str(config), "--nodes", "7"])
        assert code == 0
        rows = read_csv(tmp_path / "from_config" / "series.csv")
        assert len(rows) == 7 * 6

    def test_config_alone_drives_backtest(self, tmp_path):
        out = tmp_path / "results"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "out": str(out),
            "backtest": {
                "synth": {"kind": "heat_line", "nodes": 4, "k": 0.5, "t": "1:12",
                          "noise_sd": 0.02, "seed": 2},
                "kernels": ["shek", "sep-matern-rbf"],
                "baseline": "shek",
                "rounds": 1, "n_train": 7, "n_test": 2,
                "max_iters": 5, "restarts": 0,
                "task": "extrapolation",
            },
        }))
        code = main(["backtest", "--config", str(config)])
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert any(r["status"] == "summary" for r in rows)

    def test_malformed_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        code = main(["synth", "--config", str(config), "--t", "1:5"])
        assert code == 2
        assert "JSON" in capsys.readouterr().err


class TestSampleDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        args = ["sample", "--kernel", "swek", "--nodes", "3", "--times", "0:1:0.25",
                "--condition", "0,1,0", "--n-samples", "4", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "samples_c1.csv").read_bytes() == (b / "samples_c1.csv").read_bytes()


TINY_SYNTH = {"kind": "heat-line", "nodes": 3, "t": "1:14", "noise_sd": 0.01, "seed": 1}


def _rounds(out):
    return len({r["round"] for r in read_csv(out / "results.csv") if r["status"] == "ok"})


def _nodes(out):
    return len({r["node_i"] for r in read_csv(out / "validate_shek.csv")})


def _samples(out):
    return len({r["series"] for r in read_csv(out / "samples_c1.csv")} - {"mean", "lo95", "hi95"})


def _iters(out):
    return json.loads((out / "fit_shek.json").read_text())["trace_length"]


# command: config section, setting, other flags, other config keys, what the
# outputs show of the setting, and its values (default, top level, section, flag)
PRECEDENCE = {
    "backtest": ("backtest", "rounds",
                 ["--kernels", "laplacian", "--task", "extrapolation", "--n-train", "2",
                  "--n-test", "1", "--max-iters", "2", "--restarts", "0"],
                 {"synth": TINY_SYNTH}, _rounds, (10, 2, 3, 4)),
    "validate-kernel": ("validate", "nodes", ["--n-paths", "50", "--dt", "0.01", "--t-end", "0.1"],
                        {}, _nodes, (3, 2, 4, 5)),
    "sample": ("sample", "n_samples", ["--nodes", "2", "--times", "1:2"], {}, _samples, (5, 1, 2, 3)),
    # the default of 100 iterations lets the fit run to convergence, past the
    # few iterations that the other layers allow
    "fit": ("fit", "max_iters", ["--restarts", "0"], {"synth": TINY_SYNTH}, _iters, (None, 2, 3, 4)),
}


class TestSettingLayers:
    @pytest.mark.parametrize("command", list(PRECEDENCE))
    def test_each_layer_beats_the_one_below(self, tmp_path, command):
        section, key, argv, extra, observe, (default, top, scoped, flag) = PRECEDENCE[command]
        layers = [
            ({}, []),
            ({key: top}, []),
            ({key: top, section: {key: scoped}}, []),
            ({key: top, section: {key: scoped}}, ["--" + key.replace("_", "-"), str(flag)]),
        ]
        seen = []
        for k, (config, flags) in enumerate(layers):
            path = tmp_path / f"config{k}.json"
            path.write_text(json.dumps({**config, section: {**extra, **config.get(section, {})}}))
            out = tmp_path / f"out{k}"
            code = main([command, "--config", str(path), "--out", str(out)] + argv + flags)
            assert code == 0
            seen.append(observe(out))
        assert seen[1:] == [top, scoped, flag]
        if default is None:
            assert seen[0] > flag
        else:
            assert seen[0] == default


MALFORMED = [
    ("synth", {"synth": {"k": "abc"}}),
    ("backtest", {"backtest": {"synth": TINY_SYNTH, "rounds": "x"}}),
    ("validate-kernel", {"validate": {"dt": "abc"}}),
    ("sample", {"sample": {"n_samples": "many"}}),
    ("fit", {"fit": {"synth": TINY_SYNTH, "max_iters": "1.5"}}),
    ("backtest", {"backtest": {"synth": TINY_SYNTH, "kernels": 5}}),
    ("backtest", {"backtest": {"synth": {"nodes": "x"}}}),
    ("sample", {"sample": {"condition": [1, "x", 3]}}),
    ("validate-kernel", {"validate": {"n_paths": 1e30}}),
    ("sample", {"sample": {"c": []}}),
    # a command's own section must be an object
    ("validate-kernel", {"validate": 5, "nodes": 3, "n_paths": 200}),
    ("synth", {"synth": [1, 2], "t": "1:5"}),
    ("fit", {"fit": 5, "synth": TINY_SYNTH}),
]


INVALID_FIT_OPTIONS = [
    ("fit", ["--max-iters", "-3"]),
    ("fit", ["--restarts", "-2"]),
    ("backtest", ["--max-iters", "0"]),
    ("backtest", ["--restarts", "-1"]),
]


class TestMalformedValues:
    @pytest.mark.parametrize("command, flags", INVALID_FIT_OPTIONS)
    def test_invalid_fit_options_are_data_errors(self, tmp_path, capsys, command, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": TINY_SYNTH, "rounds": 1, "n_train": 8, "n_test": 2}))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")] + flags)
        assert code == 2
        assert "max_iters >= 1, restarts >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", MALFORMED)
    def test_malformed_config_value_is_data_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("times", ["a:5", "1:5:x", "1:2:3:4", "1:inf", "5:1", "1,x"])
    def test_malformed_time_grid_is_data_error(self, tmp_path, capsys, times):
        code = main(["synth", "--t", times, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_top_level_help_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "95% band" in capsys.readouterr().out


# The public scipy subpackages a fresh ``import graphspde.cli`` has loaded.
SCIPY_PACKAGES_PROBE = """
import sys
import graphspde.cli
print(" ".join(sorted(
    name for name, module in list(sys.modules.items())
    if name.count(".") == 1 and name.startswith("scipy.") and not name.split(".")[1].startswith("_")
    and hasattr(module, "__path__")
)))
"""


def test_importing_the_cli_loads_no_scipy_subpackage_but_linalg():
    # every command pays for its imports first; importing scipy.optimize alone adds about 0.19 s
    src = str(Path(graphspde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCIPY_PACKAGES_PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["scipy.linalg"]
