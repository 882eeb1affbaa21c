"""Numbers in dictionary specs must be finite, and seeds must be >= 0: a bad value
is refused where it enters, naming its field, instead of building an all-NaN
dictionary or failing later inside numpy."""

import json
import math

import pytest

from kooplab import cli
from kooplab.config import ConfigError, parse_config
from kooplab.dynamics import builtin_system, generate_dataset
from kooplab.formulations import fit_affine, save_model
from kooplab.observables import CombinationDictionary, RbfDictionary, identity, rbf

SYSTEM = {"name": "bilinear-scalar", "params": {"a": -1.0, "b": 1.0}}
RBF_REGION = {"kind": "rbf", "n_centers": 3, "region": [[-1.0, 1.0]], "width": 0.5}
RBF_CENTERS = {"kind": "rbf", "centers": [[0.0], [0.5]], "width": 0.5}
COMBINATION = {"kind": "combination", "base": {"kind": "identity", "dim": 1},
               "coefficients": [[1.0], [2.0]], "names": ["a", "b"]}

# (spec, field, bad value), each named by the field it breaks
BAD_SPECS = {
    "width-nan": (RBF_REGION, "width", math.nan),
    "width-inf": (RBF_REGION, "width", math.inf),
    "width-true": (RBF_REGION, "width", True),
    "width-string": (RBF_REGION, "width", "0.5"),
    "centers-width-nan": (RBF_CENTERS, "width", math.nan),
    "region-nan": (RBF_REGION, "region", [[-1.0, math.nan]]),
    "region-inf": (RBF_REGION, "region", [[-math.inf, 1.0]]),
    "region-reversed": (RBF_REGION, "region", [[1.0, -1.0]]),
    "centers-nan": (RBF_CENTERS, "centers", [[0.0], [math.nan]]),
    "n_centers-zero": (RBF_REGION, "n_centers", 0),
    "n_centers-negative": (RBF_REGION, "n_centers", -2),
    "coefficients-nan": (COMBINATION, "coefficients", [[1.0], [math.nan]]),
    "names-int": (COMBINATION, "names", [5, "b"]),
    "names-short": (COMBINATION, "names", ["a"]),
}


def bad_spec(case):
    spec, key, value = BAD_SPECS[case]
    return {**spec, key: value}, key


def config(state_spec, tmp_path=None, **dataset):
    doc = {"schema_version": 1, "system": SYSTEM, "dictionaries": {"state": state_spec}}
    if dataset:
        doc["dataset"] = {"n_samples": 50, "kind": "continuous-derivative", **dataset}
    if tmp_path is not None:
        doc["out_dir"] = str(tmp_path / "out")
    return doc


@pytest.mark.parametrize("case", BAD_SPECS)
def test_config_names_the_role_and_the_field(case):
    spec, key = bad_spec(case)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config(spec))
    assert excinfo.value.path == "dictionaries.state"
    assert key in str(excinfo.value)


@pytest.mark.parametrize("case", BAD_SPECS)
def test_check_of_a_model_file_with_the_spec_exits_1(case, tmp_path, capsys):
    system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
    model = fit_affine(generate_dataset(system, 50, seed=0, kind="continuous-derivative"),
                       identity(1))
    path = tmp_path / "model-affine.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    spec, key = bad_spec(case)
    payload["dictionaries"]["state"] = spec
    path.write_text(json.dumps(payload))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config({"kind": "identity", "dim": 1}, tmp_path)))
    capsys.readouterr()
    assert cli.main(["check", "--config", str(cfg), "--model", str(path)]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err


@pytest.mark.parametrize("width", [math.nan, math.inf, True, "0.5", [0.5]],
                         ids=["nan", "inf", "true", "string", "list"])
def test_library_rbf_refuses_a_bad_width(width):
    with pytest.raises(ValueError, match="width"):
        RbfDictionary([[0.0]], width)
    with pytest.raises(ValueError, match="width"):
        rbf(n_centers=2, region=[(-1.0, 1.0)], width=width)


@pytest.mark.parametrize("region", [[(-1.0, math.nan)], [(1.0, -1.0)], [(0.0, 0.0)],
                                    [(-math.inf, 1.0)]],
                         ids=["nan", "reversed", "empty", "inf"])
def test_library_rbf_refuses_a_bad_region(region):
    with pytest.raises(ValueError, match="region"):
        rbf(n_centers=2, region=region, width=0.5)


def test_library_combination_refuses_bad_coefficients_and_names():
    with pytest.raises(ValueError, match="coefficients"):
        CombinationDictionary(identity(1), [[math.inf]])
    with pytest.raises(ValueError, match="names"):
        CombinationDictionary(identity(1), [[1.0]], names=[5])
    with pytest.raises(ValueError, match="names"):
        CombinationDictionary(identity(1), [[1.0], [2.0]], names=["a"])


# -- seeds --------------------------------------------------------------------------


def test_negative_dataset_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config({"kind": "identity", "dim": 1}, seed=-3))
    assert excinfo.value.path == "dataset.seed"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config({"kind": "identity", "dim": 1}, tmp_path, seed=-3)))
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_USAGE
    assert "dataset.seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check", "compare", "demo"])
def test_negative_seed_flag_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    doc = config({"kind": "identity", "dim": 1}, tmp_path, seed=0)
    doc["dictionaries"]["input"] = {"kind": "identity", "dim": 1, "var_prefix": "u"}
    path.write_text(json.dumps({**doc, "formulations": ["affine", "separable"]}))
    argv = {"simulate": ["simulate", "--config", str(path)],
            "check": ["check", "--config", str(path), "--model", str(tmp_path / "m.json")],
            "compare": ["compare", "--config", str(path)],
            "demo": ["demo", "corollary1-obstruction", "--out", str(tmp_path / "demo")]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--seed", "-5"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --seed")
    assert not (tmp_path / "out").exists() and not (tmp_path / "demo").exists()
