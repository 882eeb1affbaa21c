"""System params and dictionary spec fields are checked, not coerced: a config
names the offending field, and a model file with a bad spec is an `error:`."""

import json
import math

import numpy as np
import pytest

from kooplab import cli
from kooplab.config import ConfigError, parse_config
from kooplab.dynamics import builtin_system, generate_dataset
from kooplab.formulations import fit_affine, save_model
from kooplab.observables import (
    build_dictionary,
    identity,
    joint_dictionary_from_spec,
    monomials,
    rbf,
)


def raw(**over):
    doc = {
        "schema_version": 1,
        "system": {"name": "linear", "params": {"a11": -1.5, "b2": 2}},
        "dictionaries": {
            "state": {"kind": "monomials", "dim": 2, "max_degree": 2},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
            "cross": {"kind": "monomial-joint", "state_dim": 2, "input_dim": 1,
                      "state_degree": 1, "input_degree": 1},
        },
    }
    doc.update(over)
    return doc


def error_path(doc) -> str:
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    return excinfo.value.path


# -- the system section ------------------------------------------------------------


def test_unknown_system_key_is_named():
    doc = raw()
    doc["system"]["zz_unknown"] = 1
    assert error_path(doc) == "system.zz_unknown"


@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf, 10**400, "1",
                                   None, [1.0]],
                         ids=["true", "false", "nan", "inf", "-inf", "1e400-int", "string",
                              "null", "list"])
def test_non_real_param_is_named(value):
    doc = raw()
    doc["system"]["params"]["a11"] = value
    assert error_path(doc) == "system.params.a11"


def test_json_nan_param_in_a_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw(), "out_dir": str(tmp_path)}).replace("-1.5", "NaN"))
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_USAGE
    assert "system.params.a11" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


def test_finite_params_still_build_the_system():
    system = parse_config(raw()).build_system()
    assert system.evaluate(np.array([1.0, 0.0]), np.array([1.0])).tolist() == [-0.5, 2.0]


# -- dictionary specs ----------------------------------------------------------------

NOT_INT = [2.5, 2.0, True, "2", None, math.inf]
NOT_INT_IDS = ["2.5", "2.0", "true", "string", "null", "inf"]

# (builder, spec, integer fields)
SPECS = [
    (build_dictionary, {"kind": "monomials", "dim": 2, "max_degree": 2}, ("dim", "max_degree")),
    (build_dictionary, {"kind": "identity", "dim": 2}, ("dim",)),
    (build_dictionary, {"kind": "rbf", "n_centers": 3, "region": [[-1, 1]], "width": 0.5,
                        "seed": 4}, ("n_centers", "seed")),
    (joint_dictionary_from_spec, {"kind": "monomial-joint", "state_dim": 2, "input_dim": 1,
                                  "state_degree": 1, "input_degree": 1},
     ("state_dim", "input_dim", "state_degree", "input_degree")),
]
INT_FIELDS = [(build, spec, key) for build, spec, keys in SPECS for key in keys]


@pytest.mark.parametrize("build, spec, key", INT_FIELDS,
                         ids=[f"{spec['kind']}.{key}" for _, spec, key in INT_FIELDS])
@pytest.mark.parametrize("value", NOT_INT, ids=NOT_INT_IDS)
def test_integer_field_rejects_non_integers(build, spec, key, value):
    with pytest.raises(ValueError, match=repr(key)):
        build({**spec, key: value})


@pytest.mark.parametrize("key, value", [
    ("var_prefix", 3), ("var_prefix", ["x"]), ("var_prefix", None), ("var_prefix", math.nan),
    ("include_constant", 1), ("include_constant", "yes"), ("include_constant", None),
])
def test_prefix_is_a_string_and_constant_flag_a_bool(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        build_dictionary({"kind": "monomials", "dim": 2, "max_degree": 2, key: value})
    if key == "var_prefix":
        with pytest.raises(ValueError, match=repr(key)):
            build_dictionary({"kind": "identity", "dim": 1, key: value})


@pytest.mark.parametrize("role, key", [("state", "dim"), ("state", "max_degree"),
                                       ("input", "dim"), ("cross", "state_degree")])
def test_config_names_the_dictionary_role(role, key):
    doc = raw()
    doc["dictionaries"][role][key] = 2.5
    assert error_path(doc) == f"dictionaries.{role}"


def test_config_rejects_a_non_string_prefix():
    doc = raw()
    doc["dictionaries"]["input"]["var_prefix"] = ["u"]
    assert error_path(doc) == "dictionaries.input"


def test_valid_specs_build_what_they_built_before():
    cases = [
        ({"kind": "monomials", "dim": 2, "max_degree": 3, "include_constant": False,
          "var_prefix": "z"}, monomials(2, 3, False, "z")),
        ({"kind": "monomials", "dim": 1, "max_degree": 2}, monomials(1, 2)),
        ({"kind": "identity", "dim": 3, "var_prefix": "u"}, identity(3, "u")),
        ({"kind": "rbf", "n_centers": 4, "region": [[-1, 1], [0, 2]], "width": 0.7, "seed": 9},
         rbf(n_centers=4, region=[(-1, 1), (0, 2)], width=0.7, seed=9)),
    ]
    z = np.array([[0.3, -0.2, 0.5]])
    for spec, expected in cases:
        built = build_dictionary(spec)
        assert built.names == expected.names
        assert built.spec == expected.spec
        point = z[:, :built.input_dim]
        assert np.array_equal(built.evaluate(point), expected.evaluate(point))
        # and a dictionary's own spec rebuilds it
        assert build_dictionary(expected.spec).names == expected.names
    joint = joint_dictionary_from_spec({"kind": "monomial-joint", "state_dim": 2,
                                        "input_dim": 1, "state_degree": 2, "input_degree": 1})
    assert joint.names == joint_dictionary_from_spec(joint.spec).names
    assert joint.size == 6


def test_check_of_a_model_with_a_bad_spec_exits_1(tmp_path, capsys):
    system = builtin_system("linear")
    model = fit_affine(generate_dataset(system, 100, seed=1, dt=0.05, kind="discrete-pairs"),
                       identity(2))
    path = tmp_path / "model-affine.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["dictionaries"]["state"]["dim"] = 2.5
    path.write_text(json.dumps(payload))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**raw(), "out_dir": str(tmp_path)}))
    capsys.readouterr()
    rc = cli.main(["check", "--config", str(config), "--model", str(path)])
    assert rc == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'dim'" in err
