"""Kernel tests: least squares, finite differences, RK4."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kooplab.numerics import (
    RankDeficiencyError,
    _block_least_squares,
    finite_difference_jacobian,
    rk4_step,
    solve_least_squares,
)


def rk4_multiplier(z):
    """Exact one-step multiplier of RK4 on xdot = lambda*x, z = lambda*dt."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


class TestSolveLeastSquares:
    def test_identity_design_returns_rhs(self):
        b = np.array([1.0, -2.0, 0.5])
        x = solve_least_squares(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_overdetermined_mean(self):
        # [[1],[1]] \ [1, 3] minimizes (x-1)^2 + (x-3)^2 -> x = 2
        A = np.array([[1.0], [1.0]])
        x = solve_least_squares(A, np.array([1.0, 3.0]))
        np.testing.assert_allclose(x, [2.0], atol=1e-14)

    def test_full_rank_recovery(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(50, 3))
        X0 = rng.normal(size=(3, 2))
        X = solve_least_squares(A, A @ X0)
        np.testing.assert_allclose(X, X0, atol=1e-10)

    def test_ridge_matches_regularized_normal_equations(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 4))
        B = rng.normal(size=(20, 2))
        ridge = 0.37
        X = solve_least_squares(A, B, ridge=ridge)
        lhs = (A.T @ A + ridge * np.eye(4)) @ X
        np.testing.assert_allclose(lhs, A.T @ B, atol=1e-10)

    def test_rank_deficiency_error_names_rank(self):
        A = np.zeros((6, 3))
        A[:, 0] = 1.0
        A[:, 1] = np.arange(6.0)
        # third column identically zero -> rank 2
        with pytest.raises(RankDeficiencyError) as ei:
            solve_least_squares(A, np.ones(6))
        assert ei.value.rank == 2
        assert "rank 2" in str(ei.value)

    def test_conditioning_comes_from_the_solve(self):
        A = np.zeros((6, 3))
        A[:, 0] = 1.0
        A[:, 1] = np.arange(6.0)
        B = np.ones((6, 1))
        _, rank, singular_values, _ = _block_least_squares(6, lambda rows: (A[rows], B[rows]))
        assert rank == 2
        np.testing.assert_allclose(singular_values, np.linalg.svd(A, compute_uv=False))
        with pytest.raises(RankDeficiencyError):
            solve_least_squares(A, B)
        _, rank, singular_values, _ = _block_least_squares(
            6, lambda rows: (A[rows], B[rows]), ridge=1e-6)
        augmented = np.vstack([A, 1e-3 * np.eye(3)])
        assert rank == 3
        np.testing.assert_allclose(singular_values, np.linalg.svd(augmented, compute_uv=False))
        solve_least_squares(A, B, ridge=1e-6)

    def test_ridge_accepts_rank_deficient_design(self):
        A = np.zeros((6, 3))
        A[:, 0] = 1.0
        X = solve_least_squares(A, np.ones(6), ridge=1e-6)
        assert np.all(np.isfinite(X))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row counts differ"):
            solve_least_squares(np.eye(3), np.ones(4))

    def test_rejects_non_finite(self):
        A = np.eye(2)
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_least_squares(A, np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            solve_least_squares(np.eye(2), np.array([np.inf, 0.0]))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            solve_least_squares(np.eye(2), np.ones(2), ridge=-1.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        # NaN compares false both ways, so a sign test alone lets it through
        with pytest.raises(ValueError, match="ridge"):
            solve_least_squares(np.eye(2), np.ones(2), ridge=ridge)

    def test_vector_rhs_shape(self):
        x = solve_least_squares(np.eye(2), np.ones(2))
        assert x.shape == (2,)
        X = solve_least_squares(np.eye(2), np.ones((2, 1)))
        assert X.shape == (2, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_residual_satisfies_normal_equations(self, seed):
        # stationarity: A^T (A X - B) = 0 up to scaled roundoff
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(12, 3)) + np.vstack([np.eye(3)] * 4)
        B = rng.normal(size=(12, 2))
        X = solve_least_squares(A, B)
        grad = A.T @ (A @ X - B)
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(A.T @ B))


class TestFiniteDifferenceJacobian:
    def test_scalar_square(self):
        J = finite_difference_jacobian(lambda z: np.array([z[0] ** 2]), np.array([3.0]))
        np.testing.assert_allclose(J, [[6.0]], atol=1e-7)

    def test_linear_map_exact(self):
        A = np.array([[1.0, 2.0], [-3.0, 0.5]])
        J = finite_difference_jacobian(lambda z: A @ z, np.array([0.3, -1.1]))
        np.testing.assert_allclose(J, A, atol=1e-9)

    def test_hand_worked_bilinear(self):
        # f(z) = (z1*z2, z1^2) at (2, 3): J = [[3, 2], [4, 0]]
        f = lambda z: np.array([z[0] * z[1], z[0] ** 2])
        J = finite_difference_jacobian(f, np.array([2.0, 3.0]), h=1e-5)
        np.testing.assert_allclose(J, [[3.0, 2.0], [4.0, 0.0]], atol=1e-8)

    def test_default_step_scales_with_coordinate(self):
        # large coordinate must not wreck accuracy: error stays near the
        # truncation floor h^2/6 with h = cbrt(eps) * (1 + |x|)
        f = lambda z: np.array([math.sin(z[0])])
        J = finite_difference_jacobian(f, np.array([1000.0]))
        assert abs(J[0, 0] - math.cos(1000.0)) < 5e-5

    def test_second_order_convergence(self):
        # error(h) / error(h/2) ~ 4 for smooth f
        f = lambda z: np.array([math.exp(math.sin(z[0]))])
        x = np.array([0.7])
        exact = math.cos(0.7) * math.exp(math.sin(0.7))
        e1 = abs(finite_difference_jacobian(f, x, h=1e-3)[0, 0] - exact)
        e2 = abs(finite_difference_jacobian(f, x, h=5e-4)[0, 0] - exact)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_non_finite_probe_rejected(self):
        f = lambda z: np.array([np.sqrt(z[0])])  # nan just left of zero
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                finite_difference_jacobian(f, np.array([0.0]), h=1e-6)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            finite_difference_jacobian(lambda z: z, np.array([1.0]), h=0.0)


class TestRk4Step:
    def test_linear_decay_matches_stability_polynomial(self):
        # oracle: exact rational arithmetic on the degree-4 multiplier
        expected = float(rk4_multiplier(Fraction(-1, 10)))
        assert expected == 0.9048375
        got = rk4_step(lambda x, u, t: -x, np.array([1.0]), np.zeros(0), 0.0, 0.1)
        np.testing.assert_allclose(got, [expected], atol=1e-10)
        # one step sits within the local truncation bound of the true flow
        assert abs(got[0] - math.exp(-0.1)) < 1e-7

    def test_zero_field_identity(self):
        x = np.array([1.0, -2.0])
        got = rk4_step(lambda x, u, t: np.zeros_like(x), x, np.zeros(1), 0.0, 0.5)
        np.testing.assert_allclose(got, x, atol=0.0)

    def test_pure_input_integrates_exactly(self):
        # xdot = u, u = 2 held over dt = 0.5 -> x moves by 1
        got = rk4_step(lambda x, u, t: u.copy(), np.array([0.0]), np.array([2.0]), 0.0, 0.5)
        np.testing.assert_allclose(got, [1.0], atol=1e-14)

    def test_fourth_order_convergence(self):
        # global error ratio under dt halving on xdot = -x over [0, 1]
        def integrate(dt):
            x = np.array([1.0])
            steps = round(1.0 / dt)
            for k in range(steps):
                x = rk4_step(lambda x, u, t: -x, x, np.zeros(0), k * dt, dt)
            return abs(x[0] - math.exp(-1.0))

        ratio = integrate(0.1) / integrate(0.05)
        assert 14.0 <= ratio <= 18.0

    def test_time_dependent_field(self):
        # xdot = t -> x(1) = 1/2, RK4 exact on polynomials of degree <= 4
        x = np.array([0.0])
        for k in range(4):
            x = rk4_step(lambda x, u, t: np.array([t]), x, np.zeros(0), k * 0.25, 0.25)
        np.testing.assert_allclose(x, [0.5], atol=1e-14)

    def test_recorded_stages_are_the_evaluation_points(self):
        seen = []

        def field(x, u, t):
            seen.append(np.array(x, copy=True))
            return np.stack([x[..., 1], -x[..., 0] ** 3 + u[..., 0]], axis=-1)

        X, U = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 0.0]]), np.array([[0.3], [-1.0], [0.0]])
        stages = []
        got = rk4_step(field, X, U, 0.0, 0.1, _stages=stages)
        np.testing.assert_array_equal(stages[0], np.concatenate(seen))
        assert stages[0].flags.owndata and not np.shares_memory(stages[0], X)
        assert got.tobytes() == rk4_step(field, X, U, 0.0, 0.1).tobytes()
        point = []
        rk4_step(field, X[0], U[0], 0.0, 0.1, _stages=point)
        assert point[0].shape == (4, 2)

    def test_non_finite_derivative_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(lambda x, u, t: np.full_like(x, np.inf), np.array([1.0]), np.zeros(0),
                     0.0, 0.1)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            rk4_step(lambda x, u, t: -x, np.array([1.0]), np.zeros(0), 0.0, 0.0)


class TestRk4StageChecks:
    """rk4_step tests each stage state before the field sees it and each value
    after, and names the first bad row's start point and the stage time."""

    @staticmethod
    def finite_only(value):
        def field(x, u, t):
            assert np.isfinite(x).all(), x
            return value(x)
        return field

    def test_a_non_finite_value_names_its_row_and_stage_time(self):
        field = self.finite_only(lambda x: np.where(x < 1.0, 1.0, np.nan))
        X, U = np.array([[0.0], [0.99], [0.5], [0.98]]), np.array([[0.1], [0.2], [0.3], [0.4]])
        with pytest.raises(ValueError) as err:
            rk4_step(field, X, U, 1.0, 0.1)  # the second stage of rows 1 and 3 is past 1
        assert str(err.value) == ("non-finite field value at t = 1.05 in the step from "
                                  "x=[0.99], u=[0.2]")

    def test_a_non_finite_stage_state_is_named_before_the_field_sees_it(self):
        field = self.finite_only(lambda x: np.where(x < 1.0, 1.0, 1e308))
        X, U = np.array([[0.0], [2.0]]), np.zeros((2, 1))
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            rk4_step(field, X, U, 0.0, 10.0)  # 2 + 5 * 1e308 overflows
        assert str(err.value) == ("non-finite stage state at t = 5.0 in the step from "
                                  "x=[2.0], u=[0.0]")
