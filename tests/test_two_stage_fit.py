"""The two-stage joint fit streams both of its stages through the row-block core.

K_x comes from the zero-input samples alone and K_xu from the actuated ones
with K_x frozen. Each stage is compared with a dense `np.linalg.lstsq` of its
whole design, and the fit's memory must not grow with the sample count.
"""

import tracemalloc

import numpy as np
import pytest

from kooplab.dynamics import SnapshotDataset, builtin_system, generate_dataset
from kooplab.formulations import fit_joint
from kooplab.numerics import _BLOCK_ROWS
from kooplab.observables import build_joint_dictionary, monomials

DUFFING = builtin_system("duffing-forced", delta=0.3)


def half_unforced(n):
    """n continuous Duffing samples whose every other input is exactly zero;
    cubic monomials do not close the Duffing field, so the fit leaves a residual."""
    data = generate_dataset(DUFFING, n, "prbs", seed=0, kind="continuous-derivative")
    U = data.U.copy()
    U[::2] = 0.0
    return SnapshotDataset("continuous-derivative", data.X, U, DUFFING.evaluate(data.X, U),
                           dt=data.dt)


def dictionaries():
    return monomials(2, 3, include_constant=False), build_joint_dictionary(2, 1, 2, 1)


def test_each_stage_matches_a_dense_solve():
    data = half_unforced(2 * _BLOCK_ROWS + 37)
    dict_x, dict_xu = dictionaries()
    model = fit_joint(data, dict_x, dict_xu, two_stage=True)

    zero = np.all(data.U == 0.0, axis=1)
    Psi_x, Psi_xu = dict_x.evaluate(data.X), dict_xu.evaluate(data.X, data.U)
    T = np.einsum("kij,kj->ki", dict_x.jacobian(data.X), data.Y)
    A_x = np.linalg.lstsq(Psi_x[zero], T[zero], rcond=None)[0]
    T2 = T[~zero] - Psi_x[~zero] @ A_x
    A_xu = np.linalg.lstsq(Psi_xu[~zero], T2, rcond=None)[0]
    squares = (np.linalg.norm(Psi_x[zero] @ A_x - T[zero]) ** 2
               + np.linalg.norm(Psi_xu[~zero] @ A_xu - T2) ** 2)

    for got, want in ((model.K_x, A_x.T), (model.K_xu, A_xu.T)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert model.training_residual == pytest.approx(np.sqrt(squares / data.n_samples),
                                                    rel=1e-12)
    assert model.training_residual > 0.1
    assert model.fully_identified and not model.notes


def traced_peak(n):
    """Peak bytes allocated during one two-stage fit on n samples (the data
    itself is made before tracing)."""
    data = half_unforced(n)
    dict_x, dict_xu = dictionaries()
    fit_joint(data, dict_x, dict_xu, two_stage=True)  # lazy set-up is not counted
    tracemalloc.start()
    try:
        fit_joint(data, dict_x, dict_xu, two_stage=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_sample_count():
    # from 10,000 to 40,000 samples only the stages' index rows (8 bytes a sample,
    # 0.24 MB more) grow; holding the n-row stacks adds about 11 MB
    assert traced_peak(40_000) <= traced_peak(10_000) + 500_000
