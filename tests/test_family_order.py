"""check_model runs its families in one fixed order in both modes and returns
reports in CONDITION_IDS order, so an id that two families return (COR1-FXU
from COR1 and from COR3) carries the same note whatever was requested."""

import json

import numpy as np
import pytest

from kooplab import cli
from kooplab.consistency import (
    _FAMILY_CHECKS,
    _SUBSUMED,
    CONDITION_IDS,
    CONDITIONS,
    check_model,
)
from kooplab.dynamics import builtin_system, default_grid, generate_dataset
from kooplab.formulations import fit_affine, save_model
from kooplab.observables import monomials

CROSS_NOTE = "cross term nonzero: pairwise condition skipped (its hypothesis fails)"


@pytest.fixture(scope="module")
def affine_cross_term():
    """The bilinear-scalar system (a = -1, b = 1) and its affine continuous fit;
    the cross term b*x*u makes COR3 skip its pairwise check and note it."""
    system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
    data = generate_dataset(system, 200, seed=0, kind="continuous-derivative")
    return system, fit_affine(data, monomials(1, 2)), default_grid(system, points_per_axis=5)


def canonical(ids):
    return [cid for cid in CONDITION_IDS if cid in ids]


def test_family_table_covers_the_conditions_in_a_fixed_order():
    runnable = {c.family for c in CONDITIONS.values() if c.family is not None}
    assert set(_FAMILY_CHECKS) == runnable
    order = list(_FAMILY_CHECKS)
    for cover, covered in _SUBSUMED.items():
        for family in covered:
            assert order.index(cover) < order.index(family), (cover, family)


def test_explicit_request_keeps_the_covering_note_in_either_order(affine_cross_term):
    system, model, grid = affine_cross_term
    everything, skipped = check_model(system, model, grid, seed=1)
    assert skipped == []
    full = {r.condition: r for r in everything}
    assert full["COR1-FXU"].note == CROSS_NOTE

    for request_ids in (["COR1-FXU", "COR3-KMA-B"], ["COR3-KMA-B", "COR1-FXU"]):
        reports, none = check_model(system, model, grid, seed=1, conditions=request_ids)
        assert none == []
        assert [r.condition for r in reports] == ["COR1-FXU", "COR3-KMA-B"]
        for r in reports:
            assert r.note == full[r.condition].note, (request_ids, r.condition)
            np.testing.assert_array_equal(r.residuals, full[r.condition].residuals)


def test_reports_come_in_canonical_order_whatever_the_request(affine_cross_term):
    system, model, grid = affine_cross_term
    request_ids = ["COR3-KMA-L", "DEF1-CTRL", "COR1-FXU"]
    reports, _ = check_model(system, model, grid, seed=1, conditions=request_ids)
    assert [r.condition for r in reports] == canonical(request_ids)
    assert reports[1].note == CROSS_NOTE


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
    notes = {d["condition"]: d["note"] for d in doc["reports"]}
    assert notes["COR1-FXU"] == CROSS_NOTE
