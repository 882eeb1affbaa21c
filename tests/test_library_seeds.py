"""Seeds are checked where the library takes them: an integer >= 0 that is not a
bool, or a ValueError that names `seed` (not numpy's message, which names none)."""

import numpy as np
import pytest

from kooplab.config import ConfigError, parse_config
from kooplab.consistency import check_model
from kooplab.dynamics import EvaluationGrid, builtin_system, generate_dataset
from kooplab.formulations import fit_affine
from kooplab.observables import identity, rbf

BAD_SEEDS = [-1, 1.5, True, "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_generate_dataset(seed):
    with pytest.raises(ValueError, match="seed"):
        generate_dataset(builtin_system("linear"), 10, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_check_model(seed):
    system = builtin_system("bilinear-scalar", a=-1.0, b=0.0)
    model = fit_affine(generate_dataset(system, 50, seed=0), identity(1))
    grid = EvaluationGrid.default(1, 1, points_per_axis=3)
    with pytest.raises(ValueError, match="seed"):
        check_model(system, model, grid, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_rbf(seed):
    with pytest.raises(ValueError, match="seed"):
        rbf(n_centers=3, region=[(-1.0, 1.0)], width=0.5, seed=seed)


def test_config_rbf_spec_seed():
    doc = {"schema_version": 1, "system": {"name": "bilinear-scalar", "params": {"a": -1.0, "b": 1.0}},
           "dictionaries": {"state": {"kind": "rbf", "n_centers": 3,
                                      "region": [[-1.0, 1.0]], "width": 0.5, "seed": -1}}}
    with pytest.raises(ConfigError, match="seed") as excinfo:
        parse_config(doc)
    assert excinfo.value.path == "dictionaries.state"


@pytest.mark.parametrize("seed", [0, 7, np.int64(7)])
def test_integer_seeds_are_accepted(seed):
    a = generate_dataset(builtin_system("linear"), 10, seed=seed)
    b = generate_dataset(builtin_system("linear"), 10, seed=int(seed))
    np.testing.assert_array_equal(a.X, b.X)
    assert rbf(n_centers=2, region=[(-1.0, 1.0)], seed=seed).centers.shape == (2, 1)
