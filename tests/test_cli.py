"""Batch command line: round trips, exit codes, applicability, determinism."""

import re
from pathlib import Path

import numpy as np
import pytest

from kooplab import cli
from kooplab.config import ConfigError, parse_config
from kooplab.consistency import read_reports_json, read_summary_csv
from kooplab.dynamics import builtin_system, default_grid, generate_dataset, load_dataset
from kooplab.formulations import fit_affine, fit_separable, load_model
from kooplab.observables import identity


def linear_raw(out_dir, **over):
    raw = {
        "schema_version": 1,
        "system": {"name": "linear"},
        "dataset": {"n_samples": 300, "seed": 7, "dt": 0.05, "kind": "discrete-pairs"},
        "dictionaries": {
            "state": {"kind": "identity", "dim": 2},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
            "cross": {"kind": "monomial-joint", "state_dim": 2, "input_dim": 1,
                      "state_degree": 1, "input_degree": 1},
        },
        "formulations": ["affine", "separable", "joint"],
        "tolerance": 1e-6,
        "out_dir": str(out_dir),
    }
    raw.update(over)
    return raw


def bilinear_raw(out_dir, **over):
    raw = {
        "schema_version": 1,
        "system": {"name": "bilinear-discrete", "params": {"alpha": 0.9, "beta": 0.1}},
        "dataset": {"n_samples": 400, "seed": 3},
        "dictionaries": {
            "state": {"kind": "identity", "dim": 1},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
            "cross": {"kind": "monomial-joint", "state_dim": 1, "input_dim": 1,
                      "state_degree": 1, "input_degree": 1},
        },
        "formulations": ["separable", "joint"],
        "tolerance": 1e-8,
        "out_dir": str(out_dir),
    }
    raw.update(over)
    return raw


class TestMain:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "--model", "m.json"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_config_error_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert rc == cli.EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_tolerance_flag_must_be_positive(self, tmp_path, capsys):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        rc = cli.main(["check", "--config", str(path), "--model", "m.json",
                       "--tolerance", "-1"])
        assert rc == cli.EXIT_USAGE

    def test_empty_out_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import json

        (tmp_path / "cfg").mkdir()
        path = tmp_path / "cfg" / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path / "runs")))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", str(path), "--out", ""]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg"]

    @pytest.mark.parametrize("argv", [["simulate", "--config", "CFG"], ["demo", "kaiser-eigen"]],
                             ids=["simulate", "demo"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, argv):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        argv = [str(path) if a == "CFG" else a for a in argv]
        assert cli.main([*argv, "--out", str(taken)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err and "Traceback" not in err
        assert taken.read_text() == "a file\n"

    def test_config_or_model_naming_a_directory_exits_2(self, tmp_path, capsys):
        import json

        directory = tmp_path / "a-directory"
        directory.mkdir()
        assert cli.main(["simulate", "--config", str(directory)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(directory) in err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        rc = cli.main(["check", "--config", str(path), "--model", str(directory)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(directory) in err

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_out_naming_a_file_is_refused_before_any_work(self, bilinear_run, tmp_path,
                                                           monkeypatch, capsys, command):
        import json

        from kooplab import consistency, dynamics

        calls = {"check_model": 0, "generate_dataset": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(consistency, "check_model")
        counted(dynamics, "generate_dataset")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bilinear_raw(tmp_path)))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        argv = [command, "--config", str(path), "--out", str(taken)]
        if command == "check":
            argv += ["--model", str(bilinear_run / "model-joint.json")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert calls == {"check_model": 0, "generate_dataset": 0}
        assert str(taken) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "check"])
    def test_out_naming_a_file_is_refused_before_reading_inputs(self, bilinear_run, tmp_path,
                                                                monkeypatch, capsys, command):
        import json

        from kooplab import dynamics, formulations

        module, name, flag, artifact = {
            "fit": (dynamics, "load_dataset", "--dataset", "dataset.csv"),
            "check": (formulations, "load_model", "--model", "model-joint.json"),
        }[command]
        calls, original = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bilinear_raw(tmp_path)))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        argv = [command, "--config", str(path), "--out", str(taken),
                flag, str(bilinear_run / artifact)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert calls == []
        assert str(taken) in capsys.readouterr().err

    def test_readme_usage_names_each_commands_options(self):
        import argparse

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Batch CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                      for line in block.splitlines()}
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert documented.keys() == subparsers.choices.keys()
        for command, parser in subparsers.choices.items():
            options = {s for a in parser._actions for s in a.option_strings
                       if s.startswith("--")} - {"--help"}
            assert documented[command] == options, command


# every subcommand, with and without each of its optional flags
PARSER_ARGVS = [
    ["simulate", "--config", "c.json"],
    ["simulate", "--config", "c.json", "--out", "o", "--seed", "3"],
    ["fit", "--config", "c.json", "--dataset", "d.csv"],
    ["fit", "--config", "c.json", "--dataset", "d.csv", "--ridge", "0.5", "--out", "o"],
    ["check", "--config", "c.json", "--model", "m.json", "--tolerance", "1e-3", "--seed", "7"],
    ["check", "--config", "c.json", "--model", "m.json"],
    ["compare", "--config", "c.json", "--tolerance", "2e-6", "--ridge", "0", "--seed", "1"],
    ["compare", "--config", "c.json"],
    ["demo", "kaiser-eigen", "--out", "o", "--seed", "2"],
    ["demo", "kaiser-eigen"],
]


class TestParserReuse:
    """main keeps one parser per process; it must parse exactly as a fresh one does."""

    def test_reused_parser_parses_like_a_fresh_one(self):
        assert cli._parser() is cli._parser()
        for argv in PARSER_ARGVS * 2:
            assert cli._parser().parse_args(argv) == cli.build_parser().parse_args(argv), argv
        assert cli.build_parser() is not cli.build_parser()

    def test_omitted_flag_reads_its_default_after_a_call_that_set_it(self):
        parse = cli._parser().parse_args
        assert parse(["check", "--config", "c", "--model", "m", "--seed", "3"]).seed == 3
        assert parse(["check", "--config", "c", "--model", "m"]).seed is None

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "--model", "m.json"])
        assert excinfo.value.code == 2
        assert "--config" in capsys.readouterr().err
        argv = PARSER_ARGVS[4]
        assert cli._parser().parse_args(argv) == cli.build_parser().parse_args(argv)
        assert cli.main(["demo", "no-such-demo"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", [[], ["simulate"], ["fit"], ["check"], ["compare"],
                                         ["demo"]])
    def test_help_text_is_unchanged(self, command, capsys):
        def help_text(parse):
            with pytest.raises(SystemExit) as excinfo:
                parse([*command, "--help"])
            assert excinfo.value.code == 0
            return capsys.readouterr().out

        fresh = help_text(cli.build_parser().parse_args)
        assert fresh.startswith(f"usage: kooplab {' '.join(command)}".rstrip())
        assert help_text(cli.main) == fresh
        assert help_text(cli.main) == fresh


class TestSimulate:
    def test_round_trip_and_stdout(self, tmp_path, capsys):
        cfg = parse_config(linear_raw(tmp_path))
        assert cli.cmd_simulate(cfg) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "300 samples" in out
        assert "redrawn" in out
        data = load_dataset(tmp_path / "dataset")
        assert data.n_samples == 300
        assert data.kind == "discrete-pairs"

    def test_same_seed_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config(linear_raw(tmp_path / sub))
            cli.cmd_simulate(cfg)
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_changes_the_draw(self, tmp_path):
        cfg_a = parse_config(linear_raw(tmp_path / "a"))
        cfg_b = parse_config(linear_raw(tmp_path / "b"))
        cfg_b.dataset.seed = 8
        cli.cmd_simulate(cfg_a)
        cli.cmd_simulate(cfg_b)
        assert (tmp_path / "a/dataset.csv").read_bytes() != (tmp_path / "b/dataset.csv").read_bytes()

    def test_requires_dataset_section(self, tmp_path):
        raw = linear_raw(tmp_path)
        del raw["dataset"]
        cfg = parse_config(raw)
        with pytest.raises(ConfigError) as excinfo:
            cli.cmd_simulate(cfg)
        assert excinfo.value.path == "dataset"


class TestFit:
    def fit_linear(self, tmp_path, capsys=None, **over):
        cfg = parse_config(linear_raw(tmp_path, **over))
        cli.cmd_simulate(cfg)
        rc = cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        return cfg, rc

    def test_writes_one_model_per_formulation(self, tmp_path, capsys):
        _, rc = self.fit_linear(tmp_path)
        assert rc == cli.EXIT_OK
        for variant in ("affine", "separable", "joint"):
            model = load_model(tmp_path / f"model-{variant}.json")
            assert model.variant == variant
            assert model.time_kind == "discrete"
        out = capsys.readouterr().out
        # table rows appear in nesting order
        assert out.index("affine") < out.index("separable") < out.index("joint")
        assert "train residual" in out

    def test_nesting_of_training_residuals(self, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path, formulations=["affine", "separable", "joint"]))
        cli.cmd_simulate(cfg)
        cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        r = {v: load_model(tmp_path / f"model-{v}.json").training_residual
             for v in ("affine", "separable", "joint")}
        assert r["joint"] <= r["separable"] + 1e-12
        assert r["separable"] <= r["affine"] + 1e-12
        assert r["joint"] < 1e-10 < r["separable"]  # strict on this system

    def test_missing_dataset_file(self, tmp_path):
        cfg = parse_config(linear_raw(tmp_path))
        with pytest.raises(cli.UsageError, match="no dataset"):
            cli.cmd_fit(cfg, tmp_path / "nope.csv")

    def test_dataset_csv_naming_a_directory_exits_2(self, tmp_path, capsys):
        import json
        import shutil

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        (tmp_path / "d2" / "x.csv").mkdir(parents=True)
        shutil.copy(tmp_path / "dataset.json", tmp_path / "d2" / "x.json")
        stem = tmp_path / "d2" / "x"
        assert cli.main(["fit", "--config", str(path), "--dataset", str(stem)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: no dataset at {str(stem)!r}")
        assert str(stem) + ".csv" in err and "Traceback" not in err

    def test_dotted_dataset_name_is_found_through_either_file(self, tmp_path, capsys):
        import json
        import shutil

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        for suffix in (".csv", ".json"):
            shutil.move(tmp_path / f"dataset{suffix}", tmp_path / f"data.v2{suffix}")
        for name in ("data.v2.csv", "data.v2.json"):
            rc = cli.main(["fit", "--config", str(path), "--dataset", str(tmp_path / name)])
            assert rc == cli.EXIT_OK, capsys.readouterr().err

    def test_dimension_mismatch_names_both_sides(self, tmp_path):
        cfg = parse_config(linear_raw(tmp_path))
        cli.cmd_simulate(cfg)
        other = parse_config(bilinear_raw(tmp_path / "other"))
        with pytest.raises(cli.UsageError, match="do not match"):
            cli.cmd_fit(other, tmp_path / "dataset.csv")

    @pytest.mark.parametrize("edit, named", [
        (lambda env: [1, 2], "JSON object"),
        (lambda env: {k: v for k, v in env.items() if k != "state_dim"}, "'state_dim'"),
        (lambda env: {**env, "dt": "0.05"}, "'dt'"),
        (lambda env: {**env, "seed": "abc"}, "'seed'"),
    ], ids=["not-an-object", "missing-field", "string-dt", "string-seed"])
    def test_malformed_envelope_is_an_error_naming_it(self, tmp_path, capsys, edit, named):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        envelope = tmp_path / "dataset.json"
        envelope.write_text(json.dumps(edit(json.loads(envelope.read_text()))))
        capsys.readouterr()
        rc = cli.main(["fit", "--config", str(path), "--dataset", str(tmp_path / "dataset.csv")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_FAILURE
        assert err.startswith("error: ") and named in err

    def test_truncated_envelope_is_an_error_naming_it(self, tmp_path, capsys):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path)))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        envelope = tmp_path / "dataset.json"
        envelope.write_text(envelope.read_text()[:30])
        capsys.readouterr()
        rc = cli.main(["fit", "--config", str(path), "--dataset", str(tmp_path / "dataset.csv")])
        assert rc == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: dataset.json: not a JSON document")

    def test_joint_fit_on_an_empty_dataset_reports_insufficient_samples(self, tmp_path, capsys):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path, formulations=["joint"])))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        envelope, rows = tmp_path / "dataset.json", tmp_path / "dataset.csv"
        envelope.write_text(json.dumps({**json.loads(envelope.read_text()), "n_samples": 0}))
        rows.write_text(rows.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        rc = cli.main(["fit", "--config", str(path), "--dataset", str(rows)])
        assert rc == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: fit[joint]: insufficient samples") and "got 0" in err

    def test_fit_error_is_tagged_with_the_formulation(self, tmp_path):
        raw = linear_raw(tmp_path, formulations=["separable"])
        raw["dataset"]["control_kind"] = "zero"
        cfg = parse_config(raw)
        cli.cmd_simulate(cfg)
        with pytest.raises(cli.PipelineError, match=r"fit\[separable\]") as excinfo:
            cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        assert "unidentifiable" in str(excinfo.value)

    def test_ridge_recovers_the_degenerate_fit(self, tmp_path):
        raw = linear_raw(tmp_path, formulations=[{"variant": "separable", "ridge": 1e-8}])
        raw["dataset"]["control_kind"] = "zero"
        cfg = parse_config(raw)
        cli.cmd_simulate(cfg)
        assert cli.cmd_fit(cfg, tmp_path / "dataset.csv") == cli.EXIT_OK

    def test_empty_formulations_rejected(self, tmp_path):
        raw = linear_raw(tmp_path)
        del raw["formulations"]
        cfg = parse_config(raw)
        with pytest.raises(ConfigError) as excinfo:
            cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        assert excinfo.value.path == "formulations"


@pytest.fixture(scope="module")
def bilinear_run(tmp_path_factory):
    """One simulate+fit on the discrete bilinear map, shared across checks."""
    out = tmp_path_factory.mktemp("bsc")
    cfg = parse_config(bilinear_raw(out))
    cli.cmd_simulate(cfg)
    cli.cmd_fit(cfg, out / "dataset.csv")
    return out


class TestCheck:
    def test_exact_joint_model_is_consistent(self, bilinear_run, tmp_path, capsys):
        cfg = parse_config(bilinear_raw(tmp_path))
        rc = cli.cmd_check(cfg, bilinear_run / "model-joint.json")
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "overall: consistent" in out
        reports = read_reports_json(tmp_path / "reports.json")
        ids = {r.condition for r in reports}
        assert {"DEF2-CTRL-X", "DEF2-CTRL-U", "T5-C1", "T5-C2",
                "COR7-C1", "COR7-C2", "COR8-C1", "COR8-C2"} == ids

    def test_separable_model_fails_with_cor4_argmax(self, bilinear_run, tmp_path, capsys):
        cfg = parse_config(bilinear_raw(tmp_path))
        rc = cli.cmd_check(cfg, bilinear_run / "model-separable.json")
        assert rc == cli.EXIT_FAILURE
        out = capsys.readouterr().out
        assert "COR4-FXU" in out
        assert "overall: inconsistent" in out
        assert "skipped COR5" in out  # its f_xu = 0 hypothesis fails here
        rows = read_summary_csv(tmp_path / "summary.csv")
        cor4 = next(r for r in rows if r["condition"] == "COR4-FXU")
        assert cor4["max_residual"] == pytest.approx(0.2, abs=1e-12)

    def test_consecutive_in_process_calls_repeat_every_byte(self, bilinear_run, tmp_path,
                                                             capsys):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bilinear_raw(tmp_path / "out")))
        argv = ["check", "--config", str(path), "--model", str(bilinear_run / "model-joint.json")]
        runs = []
        for _ in range(2):
            assert cli.main(argv) == cli.EXIT_OK
            files = [(tmp_path / "out" / name).read_bytes()
                     for name in ("reports.json", "reports.npz", "summary.csv")]
            runs.append((capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert "overall: consistent" in runs[0][0].out

    def test_summary_csv_round_trips(self, bilinear_run, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path))
        cli.cmd_check(cfg, bilinear_run / "model-joint.json")
        rows = read_summary_csv(tmp_path / "summary.csv")
        assert [r["condition"] for r in rows][:2] == ["DEF2-CTRL-X", "DEF2-CTRL-U"]
        assert all(r["verdict"] == "consistent" for r in rows)

    def test_explicit_condition_list_filters_reports(self, bilinear_run, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path, checks=["COR4-FXU"]))
        rc = cli.cmd_check(cfg, bilinear_run / "model-separable.json")
        assert rc == cli.EXIT_FAILURE  # 0.2 cross term over a 1e-8 tolerance
        reports = read_reports_json(tmp_path / "reports.json")
        assert [r.condition for r in reports] == ["COR4-FXU"]

    def test_explicit_subsumed_id_is_reported_once(self, tmp_path, capsys):
        # an affine model inherits COR4-FXU beside its COR6-B; requesting both prints
        # and writes each once
        cfg = parse_config(bilinear_raw(tmp_path, formulations=["affine"],
                                        checks=["COR4-FXU", "COR6-B"]))
        cli.cmd_simulate(cfg)
        cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        capsys.readouterr()
        cli.cmd_check(cfg, tmp_path / "model-affine.json")
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("COR")]
        assert rows == ["COR4-FXU", "COR6-B"]
        reports = read_reports_json(tmp_path / "reports.json")
        assert [r.condition for r in reports] == ["COR4-FXU", "COR6-B"]

    def test_inapplicable_condition_names_the_mismatch(self, bilinear_run, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path, checks=["T2-C1"]))
        with pytest.raises(cli.UsageError, match="T2-C1") as excinfo:
            cli.cmd_check(cfg, bilinear_run / "model-separable.json")
        message = str(excinfo.value)
        assert "continuous-time separable" in message
        assert "discrete-time separable" in message

    def test_explicit_hypothesis_violation_propagates(self, bilinear_run, tmp_path):
        from kooplab.consistency import HypothesisViolationError

        cfg = parse_config(bilinear_raw(tmp_path, checks=["COR5-PAIRWISE-U"]))
        with pytest.raises(HypothesisViolationError, match="f_xu"):
            cli.cmd_check(cfg, bilinear_run / "model-separable.json")

    def test_def2_joint_requires_the_library_entry_point(self, bilinear_run, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path, checks=["DEF2-JOINT-X"]))
        with pytest.raises(cli.UsageError, match="check_def2_joint"):
            cli.cmd_check(cfg, bilinear_run / "model-joint.json")

    def test_continuous_model_against_discrete_system_rejected(self, tmp_path):
        raw = linear_raw(tmp_path, formulations=["affine"])
        raw["dataset"]["kind"] = "continuous-derivative"
        cfg = parse_config(raw)
        cli.cmd_simulate(cfg)
        cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        other = parse_config(bilinear_raw(tmp_path / "other"))
        with pytest.raises(cli.UsageError, match="dimensions"):
            # dims differ too; a matching-dim discrete system gives the time error
            cli.cmd_check(other, tmp_path / "model-affine.json")

    def test_discrete_model_discretizes_a_continuous_system(self, tmp_path, capsys):
        cfg = parse_config(linear_raw(tmp_path))
        cli.cmd_simulate(cfg)
        cli.cmd_fit(cfg, tmp_path / "dataset.csv")
        rc = cli.cmd_check(cfg, tmp_path / "model-affine.json")
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "COR6-B" in out and "consistent" in out

    def test_missing_model_file(self, tmp_path):
        cfg = parse_config(linear_raw(tmp_path))
        with pytest.raises(cli.UsageError, match="no model file"):
            cli.cmd_check(cfg, tmp_path / "absent.json")

    def test_tolerance_override_flips_the_verdict(self, tmp_path):
        import json

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(linear_raw(tmp_path)))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main(["fit", "--config", str(cfg_path),
                         "--dataset", str(tmp_path / "dataset.csv")]) == 0
        model = str(tmp_path / "model-joint.json")
        assert cli.main(["check", "--config", str(cfg_path), "--model", model]) == 0
        rc = cli.main(["check", "--config", str(cfg_path), "--model", model,
                       "--tolerance", "1e-18"])
        assert rc == cli.EXIT_FAILURE  # even roundoff fails at 1e-18


class TestApplicabilityResolution:
    def continuous_fit(self, variant):
        system = builtin_system("linear")
        data = generate_dataset(system, 300, seed=5)
        if variant == "affine":
            model = fit_affine(data, identity(2))
        else:
            model = fit_separable(data, identity(2), identity(1, "u"))
        return system, model

    def test_separable_continuous_families(self):
        system, model = self.continuous_fit("separable")
        grid = default_grid(system, points_per_axis=5)
        reports, skipped = cli._run_checks(system, model, grid, 1e-6, 0, None)
        assert {r.condition for r in reports} == {
            "DEF1-CTRL", "T2-C1", "T2-C2", "T2-C3", "COR1-FXU", "COR2-PAIRWISE",
        }
        assert skipped == []
        assert all(r.verdict == "consistent" for r in reports)

    def test_affine_continuous_families(self):
        system, model = self.continuous_fit("affine")
        grid = default_grid(system, points_per_axis=5)
        reports, _ = cli._run_checks(system, model, grid, 1e-6, 0, None)
        assert {r.condition for r in reports} == {
            "DEF1-CTRL", "COR1-FXU", "COR2-PAIRWISE", "COR3-KMA-B", "COR3-KMA-L",
        }
        assert all(r.verdict == "consistent" for r in reports)


# ids the all-applicable mode reports on the exact `linear` system, per model kind
_T5_IDS = {"DEF2-CTRL-X", "DEF2-CTRL-U", "T5-C1", "T5-C2",
           "COR7-C1", "COR7-C2", "COR8-C1", "COR8-C2"}
_APPLICABLE_IDS = {
    ("continuous", "affine-autonomous"): {
        "DEF1-AUTON", "COR1-FXU", "COR2-PAIRWISE", "COR3-KMA-B", "COR3-KMA-L"},
    ("continuous", "affine"): {
        "DEF1-CTRL", "COR1-FXU", "COR2-PAIRWISE", "COR3-KMA-B", "COR3-KMA-L"},
    ("continuous", "separable"): {
        "DEF1-CTRL", "T2-C1", "T2-C2", "T2-C3", "COR1-FXU", "COR2-PAIRWISE"},
    ("continuous", "joint"): {"DEF1-CTRL", "T3-C1", "T3-C2"},
    ("continuous", "bilinear"): {"DEF1-CTRL", "T3-C1", "T3-C2"},
    ("continuous", "eigen-state"): {"DEF1-CTRL", "KAISER"},
    ("continuous", "eigen-joint"): {"KAISER"},
    ("discrete", "affine-autonomous"): {"DEF2-AUTON", "COR4-FXU", "COR6-B"},
    ("discrete", "affine"): {"DEF2-CTRL-X", "DEF2-CTRL-U", "COR4-FXU", "COR6-B"},
    ("discrete", "separable"): {
        "DEF2-CTRL-X", "DEF2-CTRL-U", "T4-C1", "T4-C2", "T4-C3", "T4-C4",
        "COR4-FXU", "COR5-PAIRWISE-U", "COR5-PAIRWISE-X"},
    ("discrete", "joint"): _T5_IDS,
    ("discrete", "bilinear"): _T5_IDS,
}


@pytest.fixture(scope="module")
def linear_models():
    """The linear system (continuous and discretized) with one model per kind."""
    from kooplab.dynamics import discretize
    from kooplab.formulations import AffineModel, fit_bilinear, fit_eigen, fit_joint
    from kooplab.observables import build_joint_dictionary, monomials

    system = builtin_system("linear")
    systems = {"continuous": system, "discrete": discretize(system, 0.05)}
    datasets = {
        "continuous": generate_dataset(system, 300, seed=5),
        "discrete": generate_dataset(system, 300, seed=5, dt=0.05, kind="discrete-pairs"),
    }
    cross = build_joint_dictionary(2, 1, 1, 1)
    models = {}
    for tk, data in datasets.items():
        affine = fit_affine(data, identity(2))
        models[tk, "affine-autonomous"] = AffineModel(identity(2), affine.K, None, tk,
                                                      input_dim=1)
        models[tk, "affine"] = affine
        models[tk, "separable"] = fit_separable(data, identity(2), identity(1, "u"))
        models[tk, "joint"] = fit_joint(data, identity(2), cross)
        models[tk, "bilinear"] = fit_bilinear(data, identity(2), monomials(1, 1, var_prefix="u"))
    models["continuous", "eigen-state"] = fit_eigen(datasets["continuous"], identity(2))
    models["continuous", "eigen-joint"] = fit_eigen(datasets["continuous"], cross)
    return systems, models


class TestApplicabilityTable:
    @pytest.mark.parametrize("kind", sorted(_APPLICABLE_IDS), ids="-".join)
    def test_all_applicable_ids_match_the_explicitly_accepted_ids(self, linear_models, kind):
        from kooplab.consistency import CONDITION_IDS

        systems, models = linear_models
        system, model = systems[kind[0]], models[kind]
        grid = default_grid(system, points_per_axis=3)
        reports, _ = cli._run_checks(system, model, grid, 1e-6, 0, None)
        assert {r.condition for r in reports} == _APPLICABLE_IDS[kind]

        accepted = set()
        for cid in CONDITION_IDS:
            try:
                reports, _ = cli._run_checks(system, model, grid, 1e-6, 0, [cid])
            except cli.UsageError:
                continue
            assert [r.condition for r in reports] == [cid]
            accepted.add(cid)
        assert accepted == _APPLICABLE_IDS[kind]

        # all of them at once: one report per id
        reports, _ = cli._run_checks(system, model, grid, 1e-6, 0, sorted(accepted))
        assert sorted(r.condition for r in reports) == sorted(accepted)


@pytest.fixture(scope="module")
def rbf_affine_run(tmp_path_factory):
    """A continuous affine model over a non-state-inclusive (rbf) dictionary."""
    import json

    out = tmp_path_factory.mktemp("rbf")
    raw = linear_raw(out, formulations=["affine"])
    raw["dataset"]["kind"] = "continuous-derivative"
    raw["dictionaries"]["state"] = {"kind": "rbf", "n_centers": 4, "width": 1.0,
                                    "region": [[-2.0, 2.0], [-2.0, 2.0]]}
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == cli.EXIT_OK
    assert cli.main(["fit", "--config", str(cfg_path),
                     "--dataset", str(out / "dataset.csv")]) == cli.EXIT_OK
    return raw, out / "model-affine.json"


class TestSkipRule:
    def test_all_applicable_skips_an_inapplicable_dictionary(self, rbf_affine_run, tmp_path,
                                                             capsys):
        raw, model = rbf_affine_run
        cli.cmd_check(parse_config(dict(raw, out_dir=str(tmp_path))), model)
        out = capsys.readouterr().out
        # COR1 and COR3 need a state-inclusive dictionary; COR2 does not
        assert "skipped COR1: check_corollary1 is inapplicable" in out
        assert "skipped COR3: check_corollary3_kma is inapplicable" in out
        assert "state-inclusive" in out
        assert [r.condition for r in read_reports_json(tmp_path / "reports.json")] == [
            "DEF1-CTRL", "COR2-PAIRWISE"]

    def test_explicit_inapplicable_request_exits_2(self, rbf_affine_run, tmp_path, capsys):
        import json

        raw, model = rbf_affine_run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path), checks=["COR1-FXU"])))
        rc = cli.main(["check", "--config", str(cfg_path), "--model", str(model)])
        assert rc == cli.EXIT_USAGE
        assert "check_corollary1 is inapplicable" in capsys.readouterr().err

    def test_other_checker_errors_are_not_skipped(self, monkeypatch):
        from kooplab import consistency

        def broken(*args, **kwargs):
            raise ValueError("checker bug")

        monkeypatch.setattr(consistency, "check_corollary2", broken)
        system = builtin_system("linear")
        model = fit_separable(generate_dataset(system, 300, seed=5), identity(2), identity(1, "u"))
        with pytest.raises(ValueError, match="checker bug"):
            cli._run_checks(system, model, default_grid(system, points_per_axis=3),
                            1e-6, 0, None)


class TestCompare:
    def test_bilinear_comparison(self, tmp_path, capsys):
        cfg = parse_config(bilinear_raw(tmp_path))
        rc = cli.cmd_compare(cfg)
        assert rc == cli.EXIT_OK

        import csv

        with open(tmp_path / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["formulation"] for r in rows] == ["separable", "joint"]
        assert set(rows[0]) == {"formulation", "train_residual", "rmse_1", "rmse_5",
                                "rmse_20", "worst_consistency", "verdict"}
        sep, joint = rows
        assert float(joint["rmse_20"]) < float(sep["rmse_20"]) / 2.0
        assert joint["verdict"] == "consistent"
        assert sep["verdict"] == "inconsistent"

        # gnuplot whitespace files: commented header, blank-line separated blocks
        for variant in ("separable", "joint"):
            text = (tmp_path / f"trajectory-{variant}.dat").read_text()
            assert text.startswith("#")
            assert "\n\n" in text
            first_data = next(l for l in text.splitlines() if l and not l.startswith("#"))
            cells = first_data.split()
            assert len(cells) == 2 + 2 * 1  # k, t, true, pred
            [float(c) for c in cells]  # every cell must parse as a bare number

    def test_linear_models_all_agree(self, tmp_path):
        cfg = parse_config(linear_raw(tmp_path))
        cli.cmd_compare(cfg)

        import csv

        with open(tmp_path / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["formulation"] for r in rows] == ["affine", "separable", "joint"]
        for row in rows:
            assert float(row["rmse_20"]) < 1e-6
            assert float(row["worst_consistency"]) < 1e-6
            assert row["verdict"] == "consistent"

    def test_needs_two_formulations(self, tmp_path):
        cfg = parse_config(bilinear_raw(tmp_path, formulations=["joint"]))
        with pytest.raises(ConfigError) as excinfo:
            cli.cmd_compare(cfg)
        assert excinfo.value.path == "formulations"

    def test_rejects_eigen(self, tmp_path):
        raw = linear_raw(tmp_path, formulations=["affine", "eigen"])
        cfg = parse_config(raw)
        with pytest.raises(ConfigError) as excinfo:
            cli.cmd_compare(cfg)
        assert excinfo.value.path == "formulations[1].variant"

    def compare_main(self, tmp_path, raw):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return cli.main(["compare", "--config", str(path)])

    def test_failing_fit_is_tagged_with_its_formulation(self, tmp_path, capsys):
        # a separable fit needs actuated samples to identify its input operator
        raw = bilinear_raw(tmp_path)
        raw["dataset"]["control_kind"] = "zero"
        assert self.compare_main(tmp_path, raw) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: fit[separable]: ")

    def test_failing_simulate_is_tagged(self, tmp_path, capsys):
        # RK4 at dt = 50 carries the cubic Duffing flow off from every start
        raw = duffing_raw(tmp_path)
        raw["dataset"]["dt"] = 50.0
        assert self.compare_main(tmp_path, raw) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: simulate: ")

    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bilinear_raw(tmp_path, formulations=["joint"])))
        out = tmp_path / "new"
        assert cli.main(["compare", "--config", str(path), "--out", str(out)]) == cli.EXIT_USAGE
        assert "at least two formulations" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_heldout_truth_is_tagged(self, tmp_path, capsys):
        # at dt = 1.5 the training pairs are redrawn at the guard, but a held-out
        # truth of the RK4 map leaves the divergence bound
        raw = duffing_raw(tmp_path)
        raw["dataset"].update(n_samples=200, seed=0, dt=1.5)
        raw["dictionaries"] = {"state": {"kind": "identity", "dim": 2},
                               "input": {"kind": "identity", "dim": 1, "var_prefix": "u"}}
        raw["formulations"] = ["affine", "separable"]
        assert self.compare_main(tmp_path, raw) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "error: simulate: held-out trajectory 0 left the divergence bound")
        assert not (tmp_path / "comparison.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config(bilinear_raw(tmp_path / sub))
            cli.cmd_compare(cfg)
        for name in ("comparison.csv", "trajectory-separable.dat", "trajectory-joint.dat",
                     "dataset.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    def test_stacked_rollouts_match_per_trajectory_rollouts(self, tmp_path, monkeypatch):
        from kooplab import formulations

        raw = bilinear_raw(tmp_path / "stacked", formulations=["affine", "separable", "joint"])
        cli.cmd_compare(parse_config(raw))
        stacked = formulations.rollout

        def per_trajectory(model, x0, controls, **kw):
            return [stacked(model, x, us, **kw) for x, us in zip(x0, controls)]

        monkeypatch.setattr(formulations, "rollout", per_trajectory)
        raw["out_dir"] = str(tmp_path / "looped")
        cli.cmd_compare(parse_config(raw))
        names = ["comparison.csv"] + [f"trajectory-{v}.dat" for v in ("affine", "separable", "joint")]
        for name in names:
            assert ((tmp_path / "stacked" / name).read_bytes()
                    == (tmp_path / "looped" / name).read_bytes()), name

    def test_training_pairs_come_from_the_checked_discretization(self, tmp_path, monkeypatch):
        from kooplab import dynamics

        discretized = []
        real = dynamics.discretize

        def counted(system, dt):
            discretized.append((system.name, dt))
            return real(system, dt)

        monkeypatch.setattr(dynamics, "discretize", counted)
        cli.cmd_compare(parse_config(linear_raw(tmp_path / "compare")))
        assert discretized == [("linear", 0.05)]
        # the same pairs, bytes and envelope as `simulate` draws from its own discretization
        cli.cmd_simulate(parse_config(linear_raw(tmp_path / "simulate")))
        for name in ("dataset.csv", "dataset.json"):
            assert ((tmp_path / "compare" / name).read_bytes()
                    == (tmp_path / "simulate" / name).read_bytes()), name


class TestDemo:
    def test_registry(self):
        assert cli.DEMO_NAMES == (
            "corollary1-obstruction",
            "joint-rescues-bilinear",
            "kaiser-eigen",
            "williams-equivalence",
            "discussion-gxfu",
        )

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(cli.UsageError) as excinfo:
            cli.cmd_demo("nope")
        message = str(excinfo.value)
        for name in cli.DEMO_NAMES:
            assert name in message

    @pytest.mark.parametrize("name", [
        "corollary1-obstruction",
        "joint-rescues-bilinear",
        "kaiser-eigen",
        "williams-equivalence",
        "discussion-gxfu",
    ])
    def test_each_demo_runs_and_interprets(self, name, tmp_path, capsys):
        rc = cli.cmd_demo(name, out_dir=tmp_path / name)
        assert rc == cli.EXIT_OK
        text = (tmp_path / name / "interpretation.txt").read_text()
        assert len(text) > 200
        assert capsys.readouterr().out.strip() != ""

    @pytest.mark.parametrize("name, patterns", [
        ("corollary1-obstruction", [
            r"separable fit to 400 derivative samples leaves a training residual of 0\.\d{4}",
            r"with mean 0\.6173",
            r"COR4-FXU reaches 0\.1903, verdict 'inconsistent'",
        ]),
        ("joint-rescues-bilinear", [
            r"rollout errors of 5\.820e-02, 5\.824e-02 and 3\.241e-02 at steps 1, 5 and 20",
            r"worst consistency residual is 2\.180e-01, reached by DEF2-CTRL-U",
            r"COR4-FXU, which measures the cross term directly, reaches 2\.000e-01",
            r"DEF2-CTRL-X 1\.001e-01, DEF2-CTRL-U 2\.180e-01",
            r"T5-C1 \S+, T5-C2 \S+, COR7-C1 \S+, COR7-C2 \S+, COR8-C1 \S+, COR8-C2 \S+\)",
        ]),
        ("kaiser-eigen", [
            r"with fit residual \d\.\d{3}e-\d\d",
            r"worst at x = \(-2, -2\)",
        ]),
        ("williams-equivalence", [
            r"K\[1\] = \+0\.900000, K\[u1\] = \+0\.100000 \(training residual \d\.\d{3}e-\d\d\)",
            r"K_x \(1, 1\), K_xu \(1, 1\) and cross observables \['cross1'\]",
        ]),
    ])
    def test_demo_reports_each_quantity_of_its_story(self, name, patterns, tmp_path, capsys):
        cli.cmd_demo(name, out_dir=tmp_path)
        out = capsys.readouterr().out
        for pattern in patterns:
            assert re.search(pattern, out), pattern

    def test_readme_names_every_demo_and_script(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        text = readme[readme.index("## Library quick start"):readme.index("## Batch CLI")]
        for name in cli.DEMO_NAMES:
            assert f"kooplab demo {name}" in text
        scripts = {p.name for p in (root / "demos").glob("*.py")}
        assert set(re.findall(r"`(\w+\.py)`", text)) == scripts

    def test_interpretation_references_condition_ids(self, tmp_path):
        cli.cmd_demo("corollary1-obstruction", out_dir=tmp_path)
        text = (tmp_path / "interpretation.txt").read_text()
        assert "COR1-FXU" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        cli.cmd_demo("corollary1-obstruction", out_dir=tmp_path / "a")
        cli.cmd_demo("corollary1-obstruction", out_dir=tmp_path / "b")
        for name in ("interpretation.txt", "reports.json", "reports.npz", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def duffing_raw(out_dir):
    """A three-role Duffing config at a small size."""
    return {
        "schema_version": 1,
        "system": {"name": "duffing-forced", "params": {"delta": 0.3}},
        "grid": {"points_per_axis": 3},
        "dataset": {"n_samples": 80, "seed": 2, "dt": 0.05, "kind": "discrete-pairs"},
        "dictionaries": {
            "state": {"kind": "monomials", "dim": 2, "max_degree": 3, "include_constant": False},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
            "cross": {"kind": "monomial-joint", "state_dim": 2, "input_dim": 1,
                      "state_degree": 2, "input_degree": 1},
        },
        "formulations": ["affine", "separable", "joint"],
        "tolerance": 1e-6,
        "out_dir": str(out_dir),
    }


class TestOneBuildPerCommand:
    """The config keeps the system and dictionaries it built to validate itself."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import kooplab.config as config_module

        calls = {"system": [], "dictionary": [], "joint": []}

        def counted(kind, build):
            def wrapper(*args, **kwargs):
                calls[kind].append(args[0])
                return build(*args, **kwargs)
            return wrapper

        for kind, name in (("system", "builtin_system"), ("dictionary", "build_dictionary"),
                           ("joint", "joint_dictionary_from_spec")):
            monkeypatch.setattr(config_module, name, counted(kind, getattr(config_module, name)))
        return calls

    def test_each_command_builds_the_system_and_each_role_once(self, tmp_path, builds, capsys):
        import json

        raw = duffing_raw(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        commands = [
            ["simulate", "--config", str(path)],
            ["fit", "--config", str(path), "--dataset", str(tmp_path / "dataset.csv")],
            ["check", "--config", str(path), "--model", str(tmp_path / "model-joint.json")],
            ["compare", "--config", str(path), "--out", str(tmp_path / "compare")],
        ]
        specs = raw["dictionaries"]
        for argv in commands:
            for calls in builds.values():
                calls.clear()
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FAILURE), argv
            assert builds["system"] == ["duffing-forced"], argv[0]
            assert builds["dictionary"] == [specs["state"], specs["input"]], argv[0]
            assert builds["joint"] == [specs["cross"]], argv[0]

    def test_repeated_calls_hand_out_the_same_objects(self, tmp_path, builds):
        cfg = parse_config(duffing_raw(tmp_path))
        assert cfg.build_system() is cfg.build_system()
        assert cfg.build_grid() is cfg.build_grid()
        for role in ("state", "input", "cross"):
            assert cfg.dictionary(role) is cfg.dictionary(role)
        assert len(builds["system"]) == 1
        assert len(builds["dictionary"]) + len(builds["joint"]) == 3

    def test_built_objects_are_derived_not_parameters(self):
        from kooplab.config import ExperimentConfig

        with pytest.raises(TypeError):
            ExperimentConfig(system_name="linear", _built={})
        cfg = ExperimentConfig(system_name="linear")
        assert cfg.build_system() is cfg.build_system()
        assert cfg == ExperimentConfig(system_name="linear")
        assert "_built" not in repr(cfg)

    def test_default_boxes_feed_grid_and_dataset_alike(self, tmp_path):
        cfg = parse_config({**duffing_raw(tmp_path), "grid": {"points_per_axis": 2}})
        state_box, input_box = cfg.sampling_regions()
        assert state_box == [(-2.0, 2.0)] * 2 and input_box == [(-1.0, 1.0)]
        grid = cfg.build_grid()
        assert grid.states.min() == -2.0 and grid.states.max() == 2.0
        assert grid.inputs.min() == -1.0 and grid.inputs.max() == 1.0


class TestMalformedModelFile:
    @pytest.fixture
    def joint_model(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(linear_raw(tmp_path, formulations=["joint"])))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        assert cli.main(["fit", "--config", str(path), "--dataset",
                         str(tmp_path / "dataset.csv")]) == cli.EXIT_OK
        return path, tmp_path / "model-joint.json"

    def test_truncated_model_file_is_named(self, joint_model, capsys):
        config, model = joint_model
        model.write_text(model.read_text()[:22])
        capsys.readouterr()
        rc = cli.main(["check", "--config", str(config), "--model", str(model)])
        assert rc == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: model-joint.json: not a JSON document")

    @pytest.mark.parametrize("edit, field", [
        (lambda p: p.pop("time_kind"), "time_kind"),
        (lambda p: p["dictionaries"].pop("cross"), "cross"),
        (lambda p: p["operators"].pop("K_xu"), "K_xu"),
        (lambda p: p["metadata"].update(ridge=None), "ridge"),
        (lambda p: p["metadata"].update(dt="0.05"), "dt"),
        (lambda p: p["metadata"].update(dt=True), "dt"),
    ])
    def test_check_exits_1_naming_the_field(self, joint_model, capsys, edit, field):
        import json

        config, model = joint_model
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = cli.main(["check", "--config", str(config), "--model", str(model)])
        assert rc == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(field) in err
