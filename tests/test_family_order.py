"""Every condition id comes from the one checker family its CONDITIONS row names.
check_model runs the families of the ids in play in CONDITION_IDS order and
returns reports in that order, so an id reports, or its family is skipped, the
same way whatever was requested and for every variant its row lists: an affine
model's COR1, COR2 and COR4 behave exactly as a separable model's."""

import json

import numpy as np
import pytest

from kooplab import cli
from kooplab.consistency import _FAMILY_CHECKS, CONDITION_IDS, CONDITIONS, check_model
from kooplab.dynamics import builtin_system, default_grid, generate_dataset
from kooplab.formulations import fit_affine, fit_separable, save_model
from kooplab.observables import identity, monomials, rbf


@pytest.fixture(scope="module")
def affine_cross_term():
    """The bilinear-scalar system (a = -1, b = 1) and its affine continuous fit;
    the cross term b*x*u fails COR1 and the pairwise hypothesis of COR2."""
    system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
    data = generate_dataset(system, 200, seed=0, kind="continuous-derivative")
    return system, fit_affine(data, monomials(1, 2)), default_grid(system, points_per_axis=5)


def canonical(ids):
    return [cid for cid in CONDITION_IDS if cid in ids]


def test_family_table_covers_the_conditions_in_a_fixed_order(affine_cross_term, monkeypatch):
    runnable = {c.family for c in CONDITIONS.values() if c.family is not None}
    assert set(_FAMILY_CHECKS) == runnable

    # the families run in CONDITION_IDS order, whatever the order of the request
    system, model, grid = affine_cross_term
    ran = []
    for family, run in list(_FAMILY_CHECKS.items()):
        monkeypatch.setitem(_FAMILY_CHECKS, family,
                            lambda *args, _f=family, _run=run: ran.append(_f) or _run(*args))
    for request_ids in (["COR3-KMA-B", "COR1-FXU", "DEF1-CTRL"],
                        ["DEF1-CTRL", "COR1-FXU", "COR3-KMA-B"]):
        ran.clear()
        check_model(system, model, grid, seed=1, conditions=request_ids)
        assert ran == ["DEF1", "COR1", "COR3"]


def test_explicit_request_matches_the_full_run_in_either_order(affine_cross_term):
    system, model, grid = affine_cross_term
    everything, skipped = check_model(system, model, grid, seed=1)
    assert [family for family, _ in skipped] == ["COR2"]
    full = {r.condition: r for r in everything}
    assert full["COR1-FXU"].note is None

    for request_ids in (["COR1-FXU", "COR3-KMA-B"], ["COR3-KMA-B", "COR1-FXU"]):
        reports, none = check_model(system, model, grid, seed=1, conditions=request_ids)
        assert none == []
        assert [r.condition for r in reports] == ["COR1-FXU", "COR3-KMA-B"]
        for r in reports:
            assert r.note == full[r.condition].note, (request_ids, r.condition)
            np.testing.assert_array_equal(r.residuals, full[r.condition].residuals)


def test_a_failed_hypothesis_skips_the_family_for_every_variant(affine_cross_term):
    system, affine, grid = affine_cross_term
    data = generate_dataset(system, 200, seed=0, kind="continuous-derivative")
    separable = fit_separable(data, monomials(1, 2), identity(1, "u"))
    runs = {model.variant: check_model(system, model, grid, seed=1)
            for model in (affine, separable)}
    for variant, (reports, skipped) in runs.items():
        assert [family for family, _ in skipped] == ["COR2"], variant
        assert skipped[0][1].startswith("hypothesis violated: f_xu(x, u) = 0;"), variant
        cor1 = next(r for r in reports if r.condition == "COR1-FXU")
        assert cor1.note is None and cor1.verdict == "inconsistent", variant
    assert runs["affine"][1] == runs["separable"][1]


def test_an_affine_model_over_rbf_gets_cor2_as_a_separable_one_does():
    system = builtin_system("linear")
    data = generate_dataset(system, 200, seed=5, kind="continuous-derivative")
    lifted = rbf(dim=2, n_centers=4, region=[(-2.0, 2.0), (-2.0, 2.0)], seed=0)
    grid = default_grid(system, points_per_axis=3)
    fields = {}
    for model in (fit_affine(data, lifted), fit_separable(data, lifted, identity(1, "u"))):
        reports, skipped = check_model(system, model, grid, seed=1)
        fields[model.variant] = next(r for r in reports if r.condition == "COR2-PAIRWISE")
        assert "COR1" in dict(skipped), model.variant  # COR1 needs a state-inclusive dictionary
    # COR2 reads only the dictionary and the system, so both fits give one field
    np.testing.assert_array_equal(fields["affine"].residuals, fields["separable"].residuals)


def test_reports_come_in_canonical_order_whatever_the_request(affine_cross_term):
    system, model, grid = affine_cross_term
    request_ids = ["COR3-KMA-L", "DEF1-CTRL", "COR1-FXU"]
    reports, _ = check_model(system, model, grid, seed=1, conditions=request_ids)
    assert [r.condition for r in reports] == canonical(request_ids)


def test_reports_json_lists_an_explicit_request_canonically(affine_cross_term, tmp_path):
    system, model, _ = affine_cross_term
    model_path = tmp_path / "model-affine.json"
    save_model(model, model_path)
    request_ids = ["COR3-KMA-L", "DEF1-CTRL", "COR1-FXU", "COR3-KMA-B"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "system": {"name": "bilinear-scalar", "params": {"a": -1.0, "b": 1.0}},
        "grid": {"points_per_axis": 5},
        "dictionaries": {"state": model.dict_x.spec},
        "checks": request_ids,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["check", "--config", str(config), "--model", str(model_path)]) in (
        cli.EXIT_OK, cli.EXIT_FAILURE)
    doc = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert [d["condition"] for d in doc["reports"]] == canonical(request_ids)
    assert all(d["note"] is None for d in doc["reports"])
