"""Config numbers are finite real numbers: JSON true/false, Infinity and NaN
are rejected at the field's own path, in the file and on the command line."""

import json
import math

import pytest

from kooplab import cli
from kooplab.config import ConfigError, load_config, parse_config

NOT_REAL = [True, False, math.inf, -math.inf, math.nan, 10**400]
NOT_REAL_IDS = ["true", "false", "inf", "-inf", "nan", "1e400-int"]


def raw(**over):
    doc = {
        "schema_version": 1,
        "system": {"name": "linear"},
        "grid": {"state_box": [[-2, 2], [-2, 2]], "input_box": [[-1, 1]]},
        "dataset": {"n_samples": 100, "seed": 3, "dt": 0.05},
        "dictionaries": {"state": {"kind": "identity", "dim": 2}},
        "formulations": [{"variant": "affine", "ridge": 0.5}],
        "tolerance": 1e-6,
    }
    doc.update(over)
    return doc


def set_at(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (where the value goes, the error path)
FIELDS = [
    (("tolerance",), "tolerance"),
    (("dataset", "dt"), "dataset.dt"),
    (("formulations", 0, "ridge"), "formulations[0].ridge"),
    (("grid", "state_box", 0, 0), "grid.state_box[0]"),
    (("grid", "state_box", 1, 1), "grid.state_box[1]"),
    (("grid", "input_box", 0, 0), "grid.input_box[0]"),
    (("grid", "input_box", 0, 1), "grid.input_box[0]"),
]


@pytest.mark.parametrize("where, path", FIELDS)
@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
def test_non_real_number_rejected_at_its_path(where, path, value):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(set_at(raw(), where, value))
    assert excinfo.value.path == path


@pytest.mark.parametrize("where, path", FIELDS)
def test_finite_numbers_still_accepted(where, path):
    cfg = parse_config(set_at(raw(), where, -3 if "box" in path and where[-1] == 0 else 3))
    assert cfg.tolerance > 0


def test_json_infinity_in_a_file_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw()).replace('"tolerance": 1e-06', '"tolerance": Infinity'))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.path == "tolerance"


def test_infinite_dictionary_size_is_a_config_error():
    doc = raw()
    doc["dictionaries"]["state"]["dim"] = math.inf
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert excinfo.value.path == "dictionaries.state"


@pytest.fixture
def cross_term_fit(tmp_path):
    """The bilinear-scalar separable fit, which fails COR1-FXU by 2.0."""
    doc = {
        "schema_version": 1,
        "system": {"name": "bilinear-scalar", "params": {"a": -1.0, "b": 1.0}},
        "dataset": {"n_samples": 200, "seed": 0, "kind": "continuous-derivative"},
        "dictionaries": {"state": {"kind": "identity", "dim": 1},
                         "input": {"kind": "identity", "dim": 1, "var_prefix": "u"}},
        "formulations": ["separable"],
        "checks": ["COR1-FXU"],
        "tolerance": 1e-6,
        "out_dir": str(tmp_path),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["fit", "--config", str(path), "--dataset",
                     str(tmp_path / "dataset.csv")]) == cli.EXIT_OK
    return path


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_tolerance_flag_must_be_finite(cross_term_fit, capsys, value):
    rc = cli.main(["check", "--config", str(cross_term_fit), "--model",
                   str(cross_term_fit.parent / "model-separable.json"), f"--tolerance={value}"])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --tolerance")
    assert not (cross_term_fit.parent / "reports.json").exists()


def test_finite_tolerance_still_judges_the_cross_term(cross_term_fit, capsys):
    rc = cli.main(["check", "--config", str(cross_term_fit), "--model",
                   str(cross_term_fit.parent / "model-separable.json"), "--tolerance", "1e9"])
    assert rc == cli.EXIT_OK
    rc = cli.main(["check", "--config", str(cross_term_fit), "--model",
                   str(cross_term_fit.parent / "model-separable.json")])
    assert rc == cli.EXIT_FAILURE


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_ridge_flag_must_be_finite(cross_term_fit, capsys, value):
    rc = cli.main(["fit", "--config", str(cross_term_fit), "--dataset",
                   str(cross_term_fit.parent / "dataset.csv"), f"--ridge={value}"])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --ridge")
