"""Counts in model files and dataset envelopes are integers >= 0, and a number
too large for a float is refused naming its field, never an OverflowError."""

import json
import re

import pytest

from kooplab import cli
from kooplab.dynamics import generate_dataset, linear_system, load_dataset, save_dataset
from kooplab.formulations import fit_affine, model_from_payload, model_to_payload
from kooplab.observables import identity

HUGE = 10**400  # an integer that JSON writes out digit by digit


def affine_payload():
    data = generate_dataset(linear_system([[-0.5]], [[1.0]]), 20, seed=0, kind="discrete-pairs")
    return model_to_payload(fit_affine(data, identity(1)))


@pytest.mark.parametrize("key", ["n_samples", "design_rank"])
def test_negative_metadata_count_is_refused(key):
    payload = affine_payload()
    payload["metadata"][key] = -5
    with pytest.raises(ValueError, match=f"model metadata field {key!r} must be an integer >= 0"):
        model_from_payload(payload)


@pytest.mark.parametrize("key", ["state_dim", "input_dim", "n_samples", "n_redraws"])
def test_negative_envelope_count_is_refused(tmp_path, key):
    save_dataset(generate_dataset(linear_system([[-0.5]], [[1.0]]), 5, seed=0), tmp_path / "d")
    envelope = json.loads((tmp_path / "d.json").read_text())
    envelope[key] = -7
    (tmp_path / "d.json").write_text(json.dumps(envelope))
    with pytest.raises(ValueError, match=f"dataset envelope field {key!r} must be an integer >= 0"):
        load_dataset(tmp_path / "d")


def test_huge_design_condition_is_refused():
    payload = affine_payload()
    payload["metadata"]["design_condition"] = HUGE
    with pytest.raises(ValueError, match="'design_condition' must be a number >= 0 or Infinity"):
        model_from_payload(payload)


@pytest.fixture
def fitted_run(tmp_path):
    """A config, its dataset and its affine model, written by the CLI."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "system": {"name": "linear"},
        "grid": {"points_per_axis": 3},
        "dataset": {"n_samples": 40, "seed": 1, "dt": 0.05, "kind": "discrete-pairs"},
        "dictionaries": {"state": {"kind": "identity", "dim": 2}},
        "formulations": ["affine"],
        "out_dir": str(tmp_path),
    }))
    assert cli.main(["simulate", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["fit", "--config", str(config), "--dataset",
                     str(tmp_path / "dataset.csv")]) == cli.EXIT_OK
    return config, tmp_path


def huge_field(path, section, key):
    document = json.loads(path.read_text())
    (document[section] if section else document)[key] = HUGE
    path.write_text(json.dumps(document))


def assert_refused(argv, key, capsys):
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert re.match(rf"error: .*{key!r} must be a finite number >= 0", err), err


def test_fit_refuses_a_huge_envelope_dt(fitted_run, capsys):
    config, out = fitted_run
    huge_field(out / "dataset.json", None, "dt")
    assert_refused(["fit", "--config", str(config), "--dataset", str(out / "dataset.csv")],
                   "dt", capsys)


def test_check_refuses_a_huge_metadata_ridge(fitted_run, capsys):
    config, out = fitted_run
    huge_field(out / "model-affine.json", "metadata", "ridge")
    assert_refused(["check", "--config", str(config), "--model", str(out / "model-affine.json")],
                   "ridge", capsys)
