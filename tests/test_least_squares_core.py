"""The row-block QR least-squares core against a dense solve of the whole design.

Every fit and `solve_least_squares` stream their design through
`numerics._block_least_squares`. These tests compare it with
`np.linalg.lstsq` on the full stacked design (the solver before streaming)
for the solution, rank, singular values and residual; pin the rank rule to
the full design's threshold; and check that fit memory does not grow with
the sample count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kooplab.dynamics import SnapshotDataset, builtin_system, generate_dataset
from kooplab.formulations import fit_affine, fit_bilinear, fit_eigen
from kooplab.numerics import (
    _BLOCK_ROWS,
    RankDeficiencyError,
    _block_least_squares,
    solve_least_squares,
)
from kooplab.observables import monomials

# below, at and above one and two blocks, none but two a multiple of the block
ROW_COUNTS = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
              2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1]


def dense(G, T, ridge):
    """(X, rank, singular values, RMS residual) of np.linalg.lstsq on the whole
    (ridge-augmented) design, with numpy's default rank threshold."""
    A, B = G, T
    if ridge > 0:
        A = np.vstack([G, np.sqrt(ridge) * np.eye(G.shape[1])])
        B = np.vstack([T, np.zeros((G.shape[1], T.shape[1]))])
    X, _, rank, s = np.linalg.lstsq(A, B, rcond=None)
    return X, rank, s, np.linalg.norm(G @ X - T) / np.sqrt(len(G))


def streamed(G, T, ridge):
    return _block_least_squares(len(G), lambda rows: (G[rows], T[rows]), ridge)


def assert_same_solve(G, T, ridge):
    X, rank, s, rms = streamed(G, T, ridge)
    X0, rank0, s0, rms0 = dense(G, T, ridge)
    assert rank == rank0
    np.testing.assert_allclose(s, s0, rtol=1e-10, atol=1e-12 * s0[0])
    np.testing.assert_allclose(X, X0, rtol=1e-9, atol=1e-10 * (1.0 + np.abs(X0).max()))
    assert rms == pytest.approx(rms0, rel=1e-9, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(ROW_COUNTS + [40, 3 * _BLOCK_ROWS + 5]),
       k=st.integers(1, 7), p=st.integers(1, 4), ridge=st.sampled_from([0.0, 1e-3, 0.7]))
def test_matches_a_dense_solve_of_the_whole_design(seed, n, k, p, ridge):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k)
    T = G @ rng.normal(size=(k, p)) + 0.3 * rng.normal(size=(n, p))
    assert_same_solve(G, T, ridge)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_residual_comes_from_the_factor(n):
    # a residual that drops the trailing block of the factor reads zero here
    rng = np.random.default_rng(n)
    G = rng.normal(size=(n, 3))
    T = rng.normal(size=(n, 2))
    assert_same_solve(G, T, 0.0)
    assert streamed(G, T, 0.0)[3] > 0.5


def test_square_design_and_vector_rhs():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    x = solve_least_squares(A, b)
    assert x.shape == (5,)
    np.testing.assert_allclose(A @ x, b, atol=1e-12)
    assert_same_solve(A, b[:, None], 0.0)
    big = rng.normal(size=(_BLOCK_ROWS + 3, 4))
    y = rng.normal(size=_BLOCK_ROWS + 3)
    np.testing.assert_allclose(solve_least_squares(big, y), np.linalg.lstsq(big, y, rcond=None)[0],
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, 2 * _BLOCK_ROWS + 1])
def test_rank_deficient_design_gets_the_minimum_norm_solution(n):
    rng = np.random.default_rng(n)
    base = rng.normal(size=(n, 3))
    G = np.hstack([base, base[:, :1] - 2.0 * base[:, 1:2]])  # rank 3 of 4 columns
    T = rng.normal(size=(n, 2))
    assert_same_solve(G, T, 0.0)
    assert streamed(G, T, 0.0)[1] == 3
    with pytest.raises(RankDeficiencyError) as excinfo:
        solve_least_squares(G, T)
    assert excinfo.value.rank == 3


def test_rank_rule_is_the_full_designs():
    # singular values [1, 1, 1, 1, 1e-13] on 4,000 rows: the threshold
    # eps * max(4000, 5) * s_max ~ 8.9e-13 counts the last as zero, while the
    # k x k triangle's own default threshold (eps * 5 ~ 1.1e-15) would not
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(4000, 5)))
    V, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    A = (U * [1.0, 1.0, 1.0, 1.0, 1e-13]) @ V.T
    b = rng.normal(size=4000)
    _, rank, singular_values, _ = streamed(A, b[:, None], 0.0)
    assert rank == 4
    np.testing.assert_allclose(singular_values[:4], 1.0, rtol=1e-12)
    with pytest.raises(RankDeficiencyError) as excinfo:
        solve_least_squares(A, b)
    assert excinfo.value.rank == 4


def test_bilinear_constant_input_split_is_the_minimum_norm_one():
    n = 2 * _BLOCK_ROWS + 9
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(n, 1))
    U = np.full((n, 1), 0.4)
    data = SnapshotDataset("discrete-pairs", X, U, 0.9 * X + 0.1 * U * X - 0.05 * X**2, dt=0.1)
    dict_x = monomials(1, 2, include_constant=False)
    dict_u = monomials(1, 1, include_constant=True, var_prefix="u")
    model = fit_bilinear(data, dict_x, dict_u)
    assert not model.fully_identified
    Psi_x, Psi_u = dict_x.evaluate(data.X), dict_u.evaluate(data.U)
    G = np.hstack([Psi_u[:, [i]] * Psi_x for i in range(dict_u.size)])
    T = dict_x.evaluate(data.Y)
    Theta, _, rank, _ = np.linalg.lstsq(G, T, rcond=None)
    assert model.design_rank == rank == 2
    np.testing.assert_allclose(np.hstack(model.K_terms), Theta.T, rtol=1e-9, atol=1e-12)
    assert model.training_residual == pytest.approx(
        np.linalg.norm(G @ Theta - T) / np.sqrt(n), rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("zero_rows", [_BLOCK_ROWS, None], ids=["first-slice", "everywhere"])
def test_eigen_fit_matches_a_dense_fit(zero_rows):
    # x2 and the observables with it vanish on the first slice, or on all data
    n = 2 * _BLOCK_ROWS + 37
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    X[:zero_rows, 1] = 0.0
    data = SnapshotDataset("continuous-derivative", X, np.zeros((n, 1)),
                           rng.normal(size=(n, 2)), dt=0.1)
    dictionary = monomials(2, 2, include_constant=False)
    model = fit_eigen(data, dictionary)
    Psi = dictionary.evaluate(X)
    D = np.einsum("kij,kj->ki", dictionary.jacobian(X), data.Y)
    den = np.sum(Psi * Psi, axis=0)
    lam = np.divide(np.sum(Psi * D, axis=0), den, out=np.zeros(dictionary.size), where=den > 0)
    np.testing.assert_allclose(model.eigenvalues, lam, rtol=1e-12, atol=0.0)
    assert model.training_residual == pytest.approx(
        np.linalg.norm(Psi * lam - D) / np.sqrt(n), rel=1e-12)
    assert len(model.notes) == (0 if zero_rows else 3)


# -- memory -----------------------------------------------------------------------


def traced_peak(fit, n):
    """Peak bytes numpy and Python allocate during one fit on n samples of
    continuous Duffing data (the data itself is made before tracing)."""
    data = generate_dataset(builtin_system("duffing-forced", delta=0.3), n, "prbs", seed=0,
                            kind="continuous-derivative")
    dictionary = monomials(2, 3, include_constant=False)
    fit(data, dictionary)  # lazy set-up is not counted
    tracemalloc.start()
    try:
        fit(data, dictionary)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fit", [fit_affine, fit_eigen], ids=["affine", "eigen"])
def test_fit_memory_does_not_grow_with_the_sample_count(fit):
    # holding n-row stacks makes the ratio about 4
    assert traced_peak(fit, 40_000) <= 1.2 * traced_peak(fit, 10_000)
