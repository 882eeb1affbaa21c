"""System construction, simulation, discretization and dataset generation."""

import gc
import json
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kooplab.dynamics import (
    ControlledSystem,
    EvaluationGrid,
    SnapshotDataset,
    Trajectory,
    bilinear_discrete,
    builtin_system,
    decomposition_residuals,
    default_grid,
    discretize,
    generate_dataset,
    linear_system,
    load_dataset,
    save_dataset,
    simulate,
    validate_decomposition,
    validate_jacobians,
)
from kooplab.dynamics import _rk4_map_jacobians
from kooplab.numerics import (_FD_STEP_SCALE, _Broadcast, _NonFiniteFieldError,
                              finite_difference_jacobian, rk4_step)
from kooplab.observables import build_joint_dictionary

A_DEFAULT = np.array([[-1.0, 0.0], [0.0, -2.0]])
B_DEFAULT = np.array([[1.0], [1.0]])


def rk4_multiplier(z):
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def series_phi(A, dt):
    """Exact RK4 state propagator for xdot = Ax + Bu: sum (dtA)^j / j!, j<=4."""
    n = A.shape[0]
    out = np.zeros_like(A)
    term = np.eye(n)
    for j in range(5):
        out = out + term
        term = term @ (dt * A) / (j + 1)
    return out


def series_gamma(A, B, dt):
    """Exact RK4 input map: dt * sum (dtA)^j / (j+1)!, j<=3, times B."""
    n = A.shape[0]
    acc = np.zeros_like(A)
    term = np.eye(n)
    fact = 1
    for j in range(4):
        fact *= j + 1
        acc = acc + term / fact
        term = term @ (dt * A)
    return dt * (acc @ B)


def scalar_linear_discrete(a=0.9, b=0.1):
    """Directly stated discrete map x+ = a*x + b*u."""
    return ControlledSystem(
        "scalar-linear-discrete",
        "discrete",
        1,
        1,
        f_x=lambda x: a * x,
        f_u=lambda u: b * u,
        f_xu=lambda x, u: np.zeros(1),
        jac_fx=lambda x: np.array([[a]]),
        jac_fu=lambda u: np.array([[b]]),
        jac_fxu_x=lambda x, u: np.zeros((1, 1)),
        jac_fxu_u=lambda x, u: np.zeros((1, 1)),
    )


class TestControlledSystem:
    def test_linear_evaluate(self):
        sys = builtin_system("linear")
        got = sys.evaluate(np.array([1.0, 0.0]), np.array([0.0]))
        np.testing.assert_allclose(got, [-1.0, 0.0], atol=0.0)
        got = sys.evaluate(np.array([1.0, 1.0]), np.array([2.0]))
        np.testing.assert_allclose(got, A_DEFAULT @ [1, 1] + B_DEFAULT[:, 0] * 2, atol=0.0)

    def test_bilinear_pieces(self):
        sys = builtin_system("bilinear-scalar", a=-1, b=1)
        x, u = np.array([2.0]), np.array([3.0])
        np.testing.assert_allclose(sys.f_x(x), [-2.0])
        np.testing.assert_allclose(sys.f_u(u), [0.0])
        np.testing.assert_allclose(sys.f_xu(x, u), [6.0])
        # total jacobians at (2, 3): d/dx = a + b*u = 2, d/du = b*x = 2
        np.testing.assert_allclose(sys.jacobian_x(x, u), [[2.0]])
        np.testing.assert_allclose(sys.jacobian_u(x, u), [[2.0]])
        # cross term vanishes identically at u = 0, so does its x-jacobian
        np.testing.assert_allclose(sys.jacobian_fxu_x(x, np.zeros(1)), [[0.0]])

    def test_dimension_checks(self):
        sys = builtin_system("linear")
        with pytest.raises(ValueError, match="state"):
            sys.evaluate(np.zeros(3), np.zeros(1))
        with pytest.raises(ValueError, match="input"):
            sys.evaluate(np.zeros(2), np.zeros(2))

    def test_fd_fallback_jacobians(self):
        # no analytic jacobians supplied -> central differences kick in
        sys = ControlledSystem(
            "cubic", "continuous", 1, 1,
            f_x=lambda x: x**3,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        np.testing.assert_allclose(sys.jacobian_fx(np.array([2.0])), [[12.0]], atol=1e-6)

    def test_broadcast_pieces_without_jacobians_get_finite_differences(self):
        sys = ControlledSystem(
            "broadcast-cubic", "continuous", 1, 1,
            f_x=_Broadcast(lambda X: X * X * X),
            f_u=_Broadcast(lambda U: 2.0 * U),
            f_xu=_Broadcast(lambda X, U: X * U),
        )
        X, U = np.array([[1.0], [2.0], [-0.5]]), np.array([[0.5], [-1.0], [0.0]])
        np.testing.assert_allclose(sys.jacobian_fx(X), 3.0 * X[:, :, None] ** 2, atol=1e-6)
        np.testing.assert_allclose(sys.jacobian_fu(U), np.full((3, 1, 1), 2.0), atol=1e-8)
        np.testing.assert_allclose(sys.jacobian_fxu_x(X, U), U[:, :, None], atol=1e-8)
        np.testing.assert_allclose(sys.jacobian_fxu_u(X, U), X[:, :, None], atol=1e-8)
        np.testing.assert_allclose(sys.jacobian_x(X[0], U[0]), [[3.5]], atol=1e-6)
        np.testing.assert_allclose(sys.jacobian_u(X[0], U[0]), [[3.0]], atol=1e-8)

    def test_catalog_contents(self):
        duff = builtin_system("duffing-forced", delta=0.5)
        got = duff.evaluate(np.array([1.0, 1.0]), np.array([0.0]))
        np.testing.assert_allclose(got, [1.0, 1.0 - 1.0 - 0.5], atol=0.0)
        slow = builtin_system("slow-manifold", mu=-0.05, lam=-1.0)
        got = slow.evaluate(np.array([2.0, 1.0]), np.array([0.0]))
        np.testing.assert_allclose(got, [-0.1, -1.0 * (1.0 - 4.0)], atol=0.0)

    def test_catalog_errors(self):
        with pytest.raises(ValueError, match="unknown system"):
            builtin_system("van-der-pol")
        with pytest.raises(ValueError, match="missing parameter"):
            builtin_system("bilinear-scalar", a=-1)
        with pytest.raises(ValueError, match="unknown parameter"):
            builtin_system("slow-manifold", mu=-0.05, lam=-1.0, gamma=2.0)

    def test_linear_overrides(self):
        sys = builtin_system("linear", a11=-3.0, b2=0.0)
        np.testing.assert_allclose(sys.jacobian_fx(np.zeros(2)), [[-3.0, 0.0], [0.0, -2.0]])
        np.testing.assert_allclose(sys.jacobian_fu(np.zeros(1)), [[1.0], [0.0]])

    @pytest.mark.parametrize(
        "name,params",
        [
            ("linear", {}),
            ("bilinear-scalar", {"a": -1.0, "b": 1.0}),
            ("duffing-forced", {"delta": 0.5}),
            ("slow-manifold", {"mu": -0.05, "lam": -1.0}),
        ],
    )
    def test_catalog_invariants(self, name, params):
        sys = builtin_system(name, **params)
        grid = default_grid(sys, points_per_axis=5)
        validate_decomposition(sys, grid, tol=1e-10)
        assert validate_jacobians(sys, grid, tol=1e-5) <= 1e-5

    def test_validate_decomposition_catches_offset(self):
        bad = ControlledSystem(
            "offset", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u + 1.0,  # f_u(0) = 1, violates normalization
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(ValueError, match="decomposition invariant"):
            validate_decomposition(bad, default_grid(bad, points_per_axis=3))

    def test_validate_decomposition_rejects_nan(self):
        grid = EvaluationGrid(np.array([[-1.0], [0.0], [1.0]]), np.array([[-1.0], [0.0], [1.0]]))
        nan_at_zero = ControlledSystem(
            "nan-input", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: np.where(u == 0.0, np.nan, u),
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(ValueError, match="f_u_at_zero = inf"):
            validate_decomposition(nan_at_zero, grid)
        # NaN after a finite value: a running Python max would drop it
        nan_cross = ControlledSystem(
            "nan-cross", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u,
            f_xu=lambda x, u: np.where(x > 0.0, np.nan, 0.0),
        )
        assert decomposition_residuals(nan_cross, grid)["f_xu_at_u_zero"] == np.inf
        with pytest.raises(ValueError, match="f_xu_at_u_zero = inf"):
            validate_decomposition(nan_cross, grid)

    def test_validate_jacobians_rejects_nan(self):
        grid = EvaluationGrid(np.array([[-1.0], [0.0], [1.0]]), np.array([[-1.0], [0.0], [1.0]]))
        # the analytic d f_x/dx is NaN at x = 0 alone, after finite values in grid order
        nan_jac = ControlledSystem(
            "nan-jacobian", "continuous", 1, 1,
            f_x=lambda x: x * x,
            f_u=lambda u: u,
            f_xu=lambda x, u: np.zeros(1),
            jac_fx=lambda x: np.array([[np.nan if x[0] == 0.0 else 2.0 * x[0]]]),
        )
        with pytest.raises(ValueError, match=r"max deviation inf > 1\.0e-05"):
            validate_jacobians(nan_jac, grid)

    def test_validate_jacobians_catches_wrong_analytic(self):
        bad = ControlledSystem(
            "wrongjac", "continuous", 1, 0,
            f_x=lambda x: x**2,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
            jac_fx=lambda x: np.array([[1.0]]),  # truth is 2x
        )
        with pytest.raises(ValueError, match="disagree"):
            validate_jacobians(bad, default_grid(bad, points_per_axis=3))


def user_cross_2d():
    """Per-point callables with a cross term and no analytic Jacobians."""
    return ControlledSystem(
        "user-cross-2d", "continuous", 2, 1,
        f_x=lambda x: np.array([x[1], -x[0] - x[0] ** 3]),
        f_u=lambda u: np.array([0.0, u[0] + u[0] ** 2]),
        f_xu=lambda x, u: np.array([x[0] * u[0], x[1] * u[0] ** 2]),
    )


CONTINUOUS_CATALOG = {
    "linear": {},
    "bilinear-scalar": {"a": -1.0, "b": 1.0},
    "duffing-forced": {"delta": 0.5},
    "slow-manifold": {"mu": -0.05, "lam": -1.0},
}

# every catalog system, its RK4 discretization, and user callables through the row adapter
STACK_SYSTEMS = {
    **{name: (lambda name=name, p=p: builtin_system(name, **p))
       for name, p in CONTINUOUS_CATALOG.items()},
    "bilinear-discrete": lambda: builtin_system("bilinear-discrete", alpha=0.9, beta=0.1),
    **{f"{name}-rk4": (lambda name=name, p=p: discretize(builtin_system(name, **p), 0.1))
       for name, p in CONTINUOUS_CATALOG.items()},
    "user-cross-2d": user_cross_2d,
}

# method -> which of the aligned stacks (X, U) it takes
STACK_METHODS = {
    "evaluate": "xu", "f_x": "x", "f_u": "u", "f_xu": "xu",
    "jacobian_fx": "x", "jacobian_fu": "u", "jacobian_fxu_x": "xu", "jacobian_fxu_u": "xu",
    "jacobian_x": "xu", "jacobian_u": "xu",
}


@st.composite
def aligned_stacks(draw, system):
    """1 to 50 rows of states in [-2, 2]^n and inputs in [-1, 1]^m."""
    P = draw(st.integers(1, 50))
    X = draw(arrays(np.float64, (P, system.state_dim), elements=st.floats(-2.0, 2.0)))
    U = draw(arrays(np.float64, (P, system.input_dim), elements=st.floats(-1.0, 1.0)))
    return X, U


class TestStackContract:
    @pytest.mark.parametrize("name", sorted(STACK_SYSTEMS))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_stacked_calls_equal_per_row_calls(self, name, data):
        system = STACK_SYSTEMS[name]()
        X, U = data.draw(aligned_stacks(system))
        for method, takes in STACK_METHODS.items():
            fn = getattr(system, method)
            cols = {"xu": (X, U), "x": (X,), "u": (U,)}[takes]
            stacked = fn(*cols)
            rows = np.array([fn(*row) for row in zip(*cols)])
            assert stacked.shape == rows.shape, method
            np.testing.assert_allclose(stacked, rows, rtol=1e-12,
                                       atol=1e-12 * max(1.0, np.abs(rows).max()), err_msg=method)

    @pytest.mark.parametrize("name", sorted(STACK_SYSTEMS))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_non_finite_row_is_named(self, name, data):
        system = STACK_SYSTEMS[name]()
        X, U = data.draw(aligned_stacks(system))
        k = data.draw(st.integers(0, len(X) - 1))
        X[k, 0] = np.nan
        with pytest.raises(ValueError) as err:
            system.evaluate(X, U)
        assert f"non-finite field value at x={X[k].tolist()}, u={U[k].tolist()}" in str(err.value)

    def test_point_and_stack_shapes(self):
        sys = builtin_system("duffing-forced", delta=0.5)
        assert sys.evaluate(np.zeros(2), np.zeros(1)).shape == (2,)
        assert sys.evaluate(np.zeros((3, 2)), np.zeros((3, 1))).shape == (3, 2)
        assert sys.jacobian_u(np.zeros((3, 2)), np.zeros((3, 1))).shape == (3, 2, 1)
        with pytest.raises(ValueError, match="single points or stacks"):
            sys.evaluate(np.zeros((3, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="single points or stacks"):
            sys.evaluate(np.zeros((3, 2)), np.zeros((2, 1)))


def per_point_fd(f, x, h=None):
    """The per-point central-difference loop that the stacked kernel replaced."""
    x = np.asarray(x, dtype=float)
    J = np.empty((len(f(x)), len(x)))
    for j in range(len(x)):
        hj = h if h is not None else _FD_STEP_SCALE * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += hj
        xm[j] -= hj
        J[:, j] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * hj)
    return J


# per-point pieces without Jacobians; atan2(z, -1) is -pi at z = -0.0 and +pi at +0.0
SIGNED_PIECES = {
    "f_x": lambda x: np.array([np.arctan2(x[0], -1.0) * x[1], x[0] * x[0] * x[0] - x[1]]),
    "f_u": lambda u: np.array([np.arctan2(u[0], -1.0) * u[1], u[0] * u[0]]),
    "f_xu": lambda x, u: np.array([np.arctan2(x[1], -1.0) * x[0] * u[0], x[0] * u[1] * u[1]]),
}


class TestStackedFiniteDifferences:
    """Omitted Jacobians and `finite_difference_jacobian` run one stacked kernel,
    whose values equal the per-point loop bit for bit."""

    @staticmethod
    def rows():
        """The grid product of a 3-per-axis grid, then rows that hold -0.0."""
        grid = EvaluationGrid.default(2, 2, points_per_axis=3)
        X = np.repeat(grid.states, len(grid.inputs), axis=0)
        U = np.tile(grid.inputs, (len(grid.states), 1))
        X = np.vstack([X, [[-0.0, 1.5], [0.5, -0.0], [-0.0, -0.0], [-1.25, 0.75]]])
        U = np.vstack([U, [[-0.0, 0.7], [0.3, -0.0], [-0.0, -0.0], [-0.0, -0.5]]])
        return X, U

    def test_fallback_jacobians_equal_the_per_point_loop(self):
        system = ControlledSystem("signed-zero", "continuous", 2, 2, **SIGNED_PIECES)
        f_x, f_u, f_xu = SIGNED_PIECES.values()
        X, U = self.rows()
        for method, got, reference in [
            ("jacobian_fx", system.jacobian_fx(X), [per_point_fd(f_x, x) for x in X]),
            ("jacobian_fu", system.jacobian_fu(U), [per_point_fd(f_u, u) for u in U]),
            ("jacobian_fxu_x", system.jacobian_fxu_x(X, U),
             [per_point_fd(lambda z: f_xu(z, u), x) for x, u in zip(X, U)]),
            ("jacobian_fxu_u", system.jacobian_fxu_u(X, U),
             [per_point_fd(lambda w: f_xu(x, w), u) for x, u in zip(X, U)]),
        ]:
            assert_same_bits(got, reference, method)
        # moving the whole row by e_j h would turn the -0.0 entries into +0.0 and flip pi
        neg = X[-4:-1]  # the rows that hold -0.0
        shifted = [(f_x(x + 1e-5 * e) - f_x(x - 1e-5 * e)) / 2e-5 for x in neg for e in np.eye(2)]
        exact = [per_point_fd(f_x, x, 1e-5)[:, j] for x in neg for j in range(2)]
        assert any(a.tobytes() != b.tobytes() for a, b in zip(shifted, exact))

    @pytest.mark.parametrize("h", [None, 1e-4])
    def test_public_jacobian_equals_the_per_point_loop(self, h):
        f_x, _, f_xu = SIGNED_PIECES.values()
        g = lambda z: f_xu(z[:2], z[2:])  # noqa: E731
        for x, u in zip(*self.rows()):
            assert_same_bits(finite_difference_jacobian(f_x, x, h), per_point_fd(f_x, x, h), "f_x")
            z = np.concatenate([x, u])
            assert_same_bits(finite_difference_jacobian(g, z, h), per_point_fd(g, z, h), "f_xu")

    def test_a_non_finite_value_names_the_first_row(self):
        system = ControlledSystem(  # f_x is NaN at x > 1 and finite at x = 1
            "nan-past-one", "continuous", 1, 0,
            f_x=lambda x: np.where(x > 1.0, np.nan, x),
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(ValueError, match=r"non-finite values at x = \[1\.5\]$"):
            system.jacobian_fx(np.array([[0.5], [1.5], [2.0]]))
        with pytest.raises(ValueError, match=r"non-finite values near x = \[1\.0\] "
                                             r"\(coordinate 0, step "):
            system.jacobian_fx(np.array([[0.5], [1.0], [-1.0]]))
        with pytest.raises(ValueError, match=r"non-finite values at x = \[3\.0\]$"):
            finite_difference_jacobian(system.f_x, np.array([3.0]))


class TestSimulate:
    def test_autonomous_decay(self):
        sys = builtin_system("linear")
        traj = simulate(sys, np.array([1.0, 1.0]), lambda t: np.zeros(1), 0.01, 100)
        assert not traj.diverged
        assert len(traj) == 101
        np.testing.assert_allclose(
            traj.states[-1], [math.exp(-1.0), math.exp(-2.0)], atol=1e-6
        )

    def test_zoh_exact_convolution_oracle(self):
        # oracle: for diagonal A the held-input recursion has the closed form
        # x_{k+1,i} = e^{a_i dt} x_{k,i} + b_i (e^{a_i dt} - 1)/a_i * u_k,
        # independent of the RK4 path; RK4 then only contributes O(dt^4)
        sys = builtin_system("linear")
        dt, steps = 0.1, 10
        control = lambda t: np.array([math.sin(t)])
        traj = simulate(sys, np.array([1.0, -0.5]), control, dt, steps)
        a = np.array([-1.0, -2.0])
        b = np.array([1.0, 1.0])
        x = np.array([1.0, -0.5])
        for k in range(steps):
            u = math.sin(k * dt)
            x = np.exp(a * dt) * x + b * (np.expm1(a * dt) / a) * u
        np.testing.assert_allclose(traj.states[-1], x, atol=1e-5)

    def test_times_and_inputs_recorded(self):
        sys = builtin_system("linear")
        traj = simulate(sys, np.zeros(2), lambda t: np.array([t]), 0.5, 4)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(traj.inputs[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_control_sampled_once_per_time_and_replayable(self):
        sys = builtin_system("duffing-forced", delta=0.3)
        rng = np.random.default_rng(4)
        times = []

        def control(t):  # stateful: a fresh draw at every call
            times.append(t)
            return rng.uniform(-1.0, 1.0, size=1)

        dt, steps = 0.1, 4
        traj = simulate(sys, np.array([0.5, -0.5]), control, dt, steps)
        assert not traj.diverged
        np.testing.assert_array_equal(times, traj.times)  # steps + 1 calls, one per time
        x = traj.states[0]
        for k in range(steps):  # the recorded inputs reproduce the recorded states
            x = rk4_step(sys.field, x, traj.inputs[k], traj.times[k], dt)
            np.testing.assert_array_equal(x, traj.states[k + 1])

    def test_divergence_guard_truncates(self):
        blowup = ControlledSystem(
            "blowup", "continuous", 1, 0,
            f_x=lambda x: x**3,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        traj = simulate(blowup, np.array([2.0]), lambda t: np.zeros(0), 0.05, 200)
        assert traj.diverged
        assert len(traj) < 201
        assert np.all(np.isfinite(traj.states))

    def test_discrete_system_rejected(self):
        with pytest.raises(ValueError, match="continuous"):
            simulate(scalar_linear_discrete(), np.zeros(1), lambda t: np.zeros(1), 0.1, 5)

    def test_trajectory_invariants(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 1)))


class TestDiscretize:
    def test_scalar_linear_factor_matches_stability_polynomial(self):
        sys = linear_system([[-1.0]], [[1.0]])
        ds = discretize(sys, 0.1)
        expected = float(rk4_multiplier(Fraction(-1, 10)))  # = 0.9048375 exactly
        np.testing.assert_allclose(ds.f_x(np.array([1.0])), [expected], atol=1e-12)
        assert ds.time_kind == "discrete"
        assert ds.dt == 0.1

    def test_decomposition_exact_by_construction(self):
        ds = discretize(builtin_system("duffing-forced", delta=0.5), 0.1)
        res = decomposition_residuals(ds, default_grid(ds, points_per_axis=5))
        assert max(res.values()) <= 1e-12

    def test_linear_cross_term_vanishes(self):
        ds = discretize(builtin_system("linear"), 0.1)
        grid = default_grid(ds, points_per_axis=5)
        worst = max(
            abs(ds.f_xu(x, u)).max() for x in grid.states for u in grid.inputs
        )
        assert worst <= 1e-12

    def test_step_agrees_with_simulate(self):
        sys = builtin_system("duffing-forced", delta=0.5)
        ds = discretize(sys, 0.1)
        x0, u = np.array([0.5, -0.25]), np.array([0.7])
        traj = simulate(sys, x0, lambda t: u, 0.1, 1)
        np.testing.assert_allclose(ds.evaluate(x0, u), traj.states[-1], atol=1e-14)

    def test_linear_jacobians_match_series(self):
        ds = discretize(builtin_system("linear"), 0.1)
        phi = series_phi(A_DEFAULT, 0.1)
        gamma = series_gamma(A_DEFAULT, B_DEFAULT, 0.1)
        np.testing.assert_allclose(ds.jacobian_fx(np.array([0.3, -0.7])), phi, atol=1e-12)
        np.testing.assert_allclose(ds.jacobian_fu(np.array([0.4])), gamma, atol=1e-12)

    def test_chain_rule_jacobians_match_fd(self):
        ds = discretize(builtin_system("duffing-forced", delta=0.5), 0.1)
        x, u = np.array([0.8, -0.3]), np.array([0.5])
        from kooplab.numerics import finite_difference_jacobian

        fd_x = finite_difference_jacobian(lambda z: ds.evaluate(z, u), x)
        fd_u = finite_difference_jacobian(lambda w: ds.evaluate(x, w), u)
        np.testing.assert_allclose(ds.jacobian_x(x, u), fd_x, atol=1e-8)
        np.testing.assert_allclose(ds.jacobian_u(x, u), fd_u, atol=1e-8)

    def test_rejects_discrete_input(self):
        with pytest.raises(ValueError, match="continuous"):
            discretize(scalar_linear_discrete(), 0.1)

    def test_flow_needs_to_be_finite_only_where_it_is_stepped(self):
        # f_x is +inf past |x| = 2.1, so a step from the states +-2 is not finite;
        # every step from [-1, 1] x [-1, 1] is
        flow = ControlledSystem(
            "capped-both-ways", "continuous", 1, 1,
            f_x=lambda x: np.where(np.abs(x) > 2.1, np.inf, x),
            f_u=lambda u: u,
            f_xu=lambda x, u: np.zeros(1),
        )
        data = generate_dataset(flow, 200, kind="discrete-pairs", region=[(-1.0, 1.0)])
        assert data.n_samples == 200 and data.n_redraws == 0
        np.testing.assert_array_equal(data.Y, rk4_step(flow.field, data.X, data.U, 0.0, 0.1))

    def test_map_steps_nothing_until_asked(self):
        # f_x is +inf for |x| < 0.5, so no step from the origin is finite: the map
        # is built and steps from [1, 2] all the same, and only f_u steps from x = 0
        flow = ControlledSystem(
            "hollow", "continuous", 1, 1,
            f_x=lambda x: np.where(np.abs(x) < 0.5, np.inf, x),
            f_u=lambda u: u,
            f_xu=lambda x, u: np.zeros(1),
        )
        flow_map = discretize(flow, 0.1)
        data = generate_dataset(flow, 50, kind="discrete-pairs", region=[(1.0, 2.0)])
        assert data.n_samples == 50 and data.n_redraws == 0
        np.testing.assert_array_equal(data.Y, rk4_step(flow.field, data.X, data.U, 0.0, 0.1))
        with pytest.raises(_NonFiniteFieldError,
                           match=r"^hollow-discrete: non-finite field value .* x=\[0\.0\]"):
            flow_map.f_u(np.array([0.5]))


def pair_methods():
    """(id, method) for each (x, u) method of a catalog system, a per-point user
    system, an RK4 map and a joint dictionary; `field` at t = 0."""
    flow = builtin_system("duffing-forced", delta=0.5)
    per_point = ControlledSystem("per-point", "continuous", 2, 1, f_x=lambda x: -x,
                                 f_u=lambda u: np.array([0.0, u[0]]),
                                 f_xu=lambda x, u: x * u[0])
    for system in (flow, per_point, discretize(flow, 0.1)):
        for name in ("evaluate", "f_xu", "jacobian_fxu_x", "jacobian_fxu_u",
                     "jacobian_x", "jacobian_u"):
            yield f"{system.name}.{name}", getattr(system, name)
        yield f"{system.name}.field", lambda x, u, system=system: system.field(x, u, 0.0)
    joint = build_joint_dictionary(2, 1, 1, 1)
    for name in ("evaluate", "jacobian_x", "jacobian_u"):
        yield f"joint.{name}", getattr(joint, name)


@pytest.mark.parametrize("method", [pytest.param(m, id=i) for i, m in pair_methods()])
def test_pair_methods_refuse_unaligned_rows(method):
    x, u, X, U = np.zeros(2), np.zeros(1), np.zeros((3, 2)), np.zeros((2, 1))
    for args in ((x, U[:1]), (X, u), (X, U)):  # point and stack, stack and point, 3 and 2 rows
        with pytest.raises(ValueError, match="must both be single points or stacks with "
                                             "equal row counts"):
            method(*args)


def memo_free_methods(flow, dt):
    """The discretized system's public methods on stacks, from direct `rk4_step`
    and `_rk4_map_jacobians` calls with nothing kept between calls."""
    n, m = flow.state_dim, flow.input_dim

    def step(X, U):
        return rk4_step(flow.field, X, U, 0.0, dt)

    def jac(X, U):
        return _rk4_map_jacobians(flow, X, U, dt)

    def at_u0(X):
        return X, np.zeros((len(X), m))

    def at_x0(U):
        return np.zeros((len(U), n)), U

    base = step(np.zeros((1, n)), np.zeros((1, m)))[0]

    def f_u(U):
        return step(*at_x0(U)) - base

    return {
        "evaluate": step,
        "f_x": lambda X: step(*at_u0(X)),
        "f_u": f_u,
        "f_xu": lambda X, U: step(X, U) - step(*at_u0(X)) - f_u(U),
        "jacobian_fx": lambda X: jac(*at_u0(X))[0],
        "jacobian_fu": lambda U: jac(*at_x0(U))[1],
        "jacobian_fxu_x": lambda X, U: jac(X, U)[0] - jac(*at_u0(X))[0],
        "jacobian_fxu_u": lambda X, U: jac(X, U)[1] - jac(*at_x0(U))[1],
        "jacobian_x": lambda X, U: jac(X, U)[0],
        "jacobian_u": lambda X, U: jac(X, U)[1],
    }


def assert_same_bits(got, expected, what):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape, what
    assert got.tobytes() == expected.tobytes(), what


class TestDiscretizedMemo:
    """The RK4 map keeps its steps and tangents per point set, and what its
    methods return stays the caller's to change."""

    FLOWS = {
        "duffing-forced": lambda: builtin_system("duffing-forced", delta=0.3),
        "user-cross-2d": user_cross_2d,
    }

    @pytest.mark.parametrize("name", sorted(FLOWS))
    def test_results_are_owned_by_the_caller(self, name):
        flow = self.FLOWS[name]()
        ds = discretize(flow, 0.1)
        rng = np.random.default_rng(3)
        X, U = rng.uniform(-2.0, 2.0, (7, 2)), rng.uniform(-1.0, 1.0, (7, 1))
        reference = memo_free_methods(flow, 0.1)
        calls = []  # (method, arguments, expected), in stack and point form
        for method, takes in STACK_METHODS.items():
            cols = {"xu": (X, U), "x": (X,), "u": (U,)}[takes]
            calls.append((method, cols, reference[method](*cols)))
            point = tuple(c[2] for c in cols)
            calls.append((method, point, reference[method](*(c[2:3] for c in cols))[0]))
        # two rounds, so a result spoiled in the first would show in the second
        for _ in range(2):
            for method, args, expected in calls:
                got = getattr(ds, method)(*args)
                assert_same_bits(got, expected, (method, np.ndim(args[0])))
                got[...] = np.nan  # the caller's array: writable, and never read again

    def test_redraws_write_into_evaluate_results(self):
        # a few draws leave |x+| <= 2.4, so the redraw loop writes rows into the
        # array that the stacked evaluate returned, and takes too few single
        # steps to push that stack out of the memo before the second call
        ds = discretize(builtin_system("duffing-forced", delta=0.3), 0.05)
        first = generate_dataset(ds, 60, seed=4, divergence_bound=2.4)
        assert 0 < first.n_redraws < ds.MEMO_SIZE
        again = generate_dataset(ds, 60, seed=4, divergence_bound=2.4)
        fresh = generate_dataset(discretize(builtin_system("duffing-forced", delta=0.3), 0.05),
                                 60, seed=4, divergence_bound=2.4)
        for data in (again, fresh):
            for arr in ("X", "U", "Y"):
                assert_same_bits(getattr(data, arr), getattr(first, arr), arr)
            assert data.n_redraws == first.n_redraws
        TestGenerateDataset.assert_matches_row_by_row(first, ds, 60, seed=4, bound=2.4)

    def test_dropped_map_is_freed_without_the_cyclic_collector(self):
        gc.disable()
        try:
            ds = discretize(builtin_system("duffing-forced", delta=0.3), 0.05)
            ds.jacobian_fxu_u(np.zeros((3, 2)), np.ones((3, 1)))  # fills the memo
            alive = weakref.ref(ds)
            del ds
            assert alive() is None
        finally:
            gc.enable()

    def test_point_loop_keeps_the_memo_at_its_bound(self):
        flow = builtin_system("duffing-forced", delta=0.3)
        ds = discretize(flow, 0.05)
        field_calls = []
        field = flow._map
        flow._map = lambda X, U: field_calls.append(len(X)) or field(X, U)
        rng = np.random.default_rng(8)
        for x, u in zip(rng.uniform(-2.0, 2.0, (1000, 2)), rng.uniform(-1.0, 1.0, (1000, 1))):
            ds.evaluate(x, u)
        assert len(ds._memo) == ds.MEMO_SIZE
        assert len(field_calls) == 4 * 1000  # one RK4 step per distinct point

    def test_repeated_point_set_takes_one_step_and_one_tangent_pass(self):
        flow = builtin_system("duffing-forced", delta=0.3)
        ds = discretize(flow, 0.05)
        calls = Counter()
        field, tangents = flow._map, flow._tangents
        flow._map = lambda X, U: calls.update(["field"]) or field(X, U)
        flow._tangents = lambda X, U: calls.update(["tangents"]) or tangents(X, U)
        X, U = np.full((4, 2), 0.5), np.full((4, 1), -0.25)
        for _ in range(3):
            ds.evaluate(X, U)
            ds.jacobian_x(X, U)
            ds.jacobian_u(X.copy(), U.copy())  # equal bytes are the same point set
        assert calls == {"field": 4, "tangents": 1}


class TestEvaluationGrid:
    def test_default_axes(self):
        grid = EvaluationGrid.default(1, 1)
        np.testing.assert_allclose(grid.states[:, 0], np.linspace(-2, 2, 9))
        np.testing.assert_allclose(grid.inputs[:, 0], np.linspace(-1, 1, 9))

    def test_tensor_product_shape(self):
        grid = EvaluationGrid.default(2, 1, points_per_axis=9)
        assert grid.states.shape == (81, 2)
        assert grid.inputs.shape == (9, 1)
        np.testing.assert_allclose(grid.states[0], [-2.0, -2.0])
        np.testing.assert_allclose(grid.states[-1], [2.0, 2.0])

    def test_autonomous_slice(self):
        grid = EvaluationGrid.default(2, 1).autonomous()
        assert grid.inputs.shape == (1, 1)
        assert grid.inputs[0, 0] == 0.0

    def test_refinement_is_superset(self):
        coarse = EvaluationGrid.default(1, 1, points_per_axis=5)
        fine = EvaluationGrid.default(1, 1, points_per_axis=9)
        coarse_set = {round(v, 12) for v in coarse.states[:, 0]}
        fine_set = {round(v, 12) for v in fine.states[:, 0]}
        assert coarse_set <= fine_set

    def test_minimum_points(self):
        with pytest.raises(ValueError, match=">= 2"):
            EvaluationGrid.default(1, 1, points_per_axis=1)


class TestGenerateDataset:
    def test_direct_discrete_linear_rows(self):
        sys = scalar_linear_discrete(0.9, 0.1)
        data = generate_dataset(sys, 64, seed=3)
        np.testing.assert_allclose(data.Y, 0.9 * data.X + 0.1 * data.U, atol=1e-12)
        assert data.kind == "discrete-pairs"

    def test_seed_determinism(self):
        sys = builtin_system("linear")
        d1 = generate_dataset(sys, 32, seed=11, kind="discrete-pairs", dt=0.1)
        d2 = generate_dataset(sys, 32, seed=11, kind="discrete-pairs", dt=0.1)
        d3 = generate_dataset(sys, 32, seed=12, kind="discrete-pairs", dt=0.1)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.U, d2.U)
        np.testing.assert_array_equal(d1.Y, d2.Y)
        assert not np.array_equal(d1.X, d3.X)

    def test_zero_control(self):
        data = generate_dataset(builtin_system("linear"), 16, control_kind="zero", seed=0)
        np.testing.assert_array_equal(data.U, np.zeros((16, 1)))

    def test_prbs_levels(self):
        data = generate_dataset(builtin_system("linear"), 100, control_kind="prbs", seed=5)
        assert set(np.unique(data.U)) <= {-1.0, 1.0}

    def test_sinusoid_bounded_and_deterministic(self):
        d1 = generate_dataset(builtin_system("linear"), 50, control_kind="sinusoid", seed=2)
        d2 = generate_dataset(builtin_system("linear"), 50, control_kind="sinusoid", seed=2)
        np.testing.assert_array_equal(d1.U, d2.U)
        assert np.max(np.abs(d1.U)) <= 1.0 + 1e-12

    def test_continuous_targets_are_field_values(self):
        sys = builtin_system("bilinear-scalar", a=-1, b=1)
        data = generate_dataset(sys, 20, seed=1)
        assert data.kind == "continuous-derivative"
        for i in range(20):
            np.testing.assert_allclose(data.Y[i], sys.evaluate(data.X[i], data.U[i]), atol=0.0)

    def test_fd_derivative_mode_tracks_analytic(self):
        sys = builtin_system("duffing-forced", delta=0.5)
        data = generate_dataset(sys, 10, seed=4, derivative_mode="finite-difference", dt=1e-3)
        for i in range(10):
            np.testing.assert_allclose(
                data.Y[i], sys.evaluate(data.X[i], data.U[i]), atol=1e-5
            )

    def test_divergent_samples_redrawn(self):
        # x+ = 10x leaves the guard for |x| > 1.5 when the bound is 15
        sys = ControlledSystem(
            "unstable", "discrete", 1, 1,
            f_x=lambda x: 10.0 * x,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        data = generate_dataset(sys, 40, seed=9, divergence_bound=15.0)
        assert np.max(np.abs(data.X)) <= 1.5
        again = generate_dataset(sys, 40, seed=9, divergence_bound=15.0)
        np.testing.assert_array_equal(data.X, again.X)
        self.assert_matches_row_by_row(data, sys, 40, seed=9, bound=15.0)

    def test_divergent_catalog_samples_redrawn(self):
        # |0.9 x + 0.1 x u| > 1 for about half of the draws from [-2, 2] x [-1, 1]
        sys = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(sys, 60, seed=4, divergence_bound=1.0)
        assert data.n_redraws >= 20
        self.assert_matches_row_by_row(data, sys, 60, seed=4, bound=1.0)

    @staticmethod
    def assert_matches_row_by_row(data, system, n, seed, bound):
        """The dataset equals the seeded stream drawn and redrawn one row at a time."""
        rng = np.random.default_rng(seed)
        X = -2.0 + 4.0 * rng.random((n, system.state_dim))
        U = -1.0 + 2.0 * rng.random((n, system.input_dim))
        Y = np.empty_like(X)
        redraws = 0
        for i in range(n):
            y = system.evaluate(X[i], U[i])
            while not (np.all(np.isfinite(y)) and np.linalg.norm(y) <= bound):
                X[i] = -2.0 + 4.0 * rng.random((1, system.state_dim))[0]
                redraws += 1
                y = system.evaluate(X[i], U[i])
            Y[i] = y
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.U, U)
        np.testing.assert_array_equal(data.Y, Y)
        assert data.n_redraws == redraws

    def test_retry_exhaustion(self):
        sys = ControlledSystem(
            "hopeless", "discrete", 1, 1,
            f_x=lambda x: np.full(1, 1e12),
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(ValueError, match="retries"):
            generate_dataset(sys, 4, seed=0, max_retries=5)

    def test_argument_validation(self):
        sys = builtin_system("linear")
        with pytest.raises(ValueError, match="n_samples"):
            generate_dataset(sys, 0)
        with pytest.raises(ValueError, match="control_kind"):
            generate_dataset(sys, 4, control_kind="chirp")
        with pytest.raises(ValueError, match="continuous-derivative"):
            generate_dataset(scalar_linear_discrete(), 4, kind="continuous-derivative")


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path):
        data = generate_dataset(builtin_system("linear"), 25, seed=7, kind="discrete-pairs")
        stem = tmp_path / "snap"
        save_dataset(data, stem)
        back = load_dataset(stem)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.U, data.U)
        np.testing.assert_array_equal(back.Y, data.Y)
        assert back.kind == data.kind
        assert back.dt == data.dt
        assert back.seed == data.seed
        assert back.system_name == data.system_name

    def test_rewrite_is_byte_identical(self, tmp_path):
        data = generate_dataset(builtin_system("linear"), 10, seed=7, kind="discrete-pairs")
        s1, s2 = tmp_path / "a", tmp_path / "b"
        save_dataset(data, s1)
        save_dataset(load_dataset(s1), s2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dotted_stem_keeps_its_dots(self, tmp_path):
        data = generate_dataset(builtin_system("linear"), 10, seed=7, kind="discrete-pairs")
        written = save_dataset(data, tmp_path / "run.v3")
        assert written == (tmp_path / "run.v3.csv", tmp_path / "run.v3.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v3.csv", "run.v3.json"]
        for name in ("run.v3", "run.v3.csv", "run.v3.json"):
            back = load_dataset(tmp_path / name)
            np.testing.assert_array_equal(back.X, data.X)
            np.testing.assert_array_equal(back.Y, data.Y)

    # the rows below as written by the earlier row-at-a-time csv.writer version
    STORED_CSV = (
        b"k,x_1,x_2,u_1,y_1,y_2\r\n"
        b"0,0.0,-1.5,-0.0,-2.5e-08,0.1\r\n"
        b"1,1e-300,0.6666666666666666,1e+20,3.0,-0.0\r\n"
        b"2,-0.0,123456789.125,-7.0,0.0,-1.0\r\n"
    )

    @staticmethod
    def _signed_zero_case():
        return SnapshotDataset(
            "discrete-pairs",
            X=[[0.0, -1.5], [1e-300, 2.0 / 3.0], [-0.0, 123456789.125]],
            U=[[-0.0], [1e20], [-7.0]],
            Y=[[-2.5e-8, 0.1], [3.0, -0.0], [0.0, -1.0]],
            dt=0.1,
        )

    def test_bytes_match_stored_writer_output(self, tmp_path):
        csv_path, _ = save_dataset(self._signed_zero_case(), tmp_path / "d")
        assert csv_path.read_bytes() == self.STORED_CSV

    def test_zero_and_negative_coordinates_round_trip_bitwise(self, tmp_path):
        data = self._signed_zero_case()
        save_dataset(data, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        for a, b in ((data.X, back.X), (data.U, back.U), (data.Y, back.Y)):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))  # keeps -0.0

    def test_empty_dataset_round_trip(self, tmp_path):
        data = SnapshotDataset("discrete-pairs", np.zeros((0, 2)), np.zeros((0, 1)),
                               np.zeros((0, 2)), 0.1)
        csv_path, _ = save_dataset(data, tmp_path / "d")
        assert csv_path.read_bytes() == b"k,x_1,x_2,u_1,y_1,y_2\r\n"
        back = load_dataset(tmp_path / "d")
        assert (back.X.shape, back.U.shape, back.Y.shape) == ((0, 2), (0, 1), (0, 2))

    def test_ragged_or_missing_rows_rejected(self, tmp_path):
        save_dataset(self._signed_zero_case(), tmp_path / "d")
        path = tmp_path / "d.csv"
        stored = path.read_bytes()
        path.write_bytes(stored.replace(b",-1.5,", b",", 1))
        with pytest.raises(ValueError, match="columns"):
            load_dataset(tmp_path / "d")
        path.write_bytes(stored[: stored.index(b"2,-0.0")])
        with pytest.raises(ValueError, match="expected 3 rows of 6 columns, got 2"):
            load_dataset(tmp_path / "d")

    def test_header_names(self, tmp_path):
        data = generate_dataset(builtin_system("linear"), 3, seed=0, kind="discrete-pairs")
        csv_path, _ = save_dataset(data, tmp_path / "d")
        header = csv_path.read_text().splitlines()[0]
        assert header == "k,x_1,x_2,u_1,y_1,y_2"

    def test_schema_version_checked(self, tmp_path):
        data = generate_dataset(builtin_system("linear"), 3, seed=0, kind="discrete-pairs")
        save_dataset(data, tmp_path / "d")
        env = (tmp_path / "d.json").read_text().replace('"schema_version": 1', '"schema_version": 99')
        (tmp_path / "d.json").write_text(env)
        with pytest.raises(ValueError, match="schema_version"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("field", ["state_dim", "input_dim", "n_samples", "kind", "dt"])
    def test_missing_envelope_field_is_named(self, tmp_path, field):
        save_dataset(self._signed_zero_case(), tmp_path / "d")
        env = json.loads((tmp_path / "d.json").read_text())
        del env[field]
        (tmp_path / "d.json").write_text(json.dumps(env))
        with pytest.raises(ValueError, match=repr(field)):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("field, value", [
        ("state_dim", "2"), ("state_dim", 2.0), ("input_dim", True), ("n_samples", None),
        ("kind", 1), ("dt", "0.1"), ("dt", True), ("dt", -0.1), ("n_redraws", "0"),
        ("system", 3), ("control_kind", None), ("seed", "abc"), ("seed", -1), ("seed", True),
        ("seed", 1.5),
    ])
    def test_badly_typed_envelope_field_is_named(self, tmp_path, field, value):
        save_dataset(self._signed_zero_case(), tmp_path / "d")
        env = json.loads((tmp_path / "d.json").read_text())
        env[field] = value
        (tmp_path / "d.json").write_text(json.dumps(env))
        with pytest.raises(ValueError, match=f"dataset envelope field {field!r}"):
            load_dataset(tmp_path / "d")

    def test_non_object_envelope_rejected(self, tmp_path):
        save_dataset(self._signed_zero_case(), tmp_path / "d")
        (tmp_path / "d.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_dataset(tmp_path / "d")

    def test_dims_must_match_the_header(self, tmp_path):
        # same width as n=2, m=1 (six columns), but the envelope says n=1, m=3
        save_dataset(self._signed_zero_case(), tmp_path / "d")
        env = json.loads((tmp_path / "d.json").read_text())
        env.update(state_dim=1, input_dim=3)
        (tmp_path / "d.json").write_text(json.dumps(env))
        with pytest.raises(ValueError, match="expected columns k,x_1,u_1,u_2,u_3,y_1"):
            load_dataset(tmp_path / "d")

    def test_dataset_shape_validation(self):
        with pytest.raises(ValueError, match="matching row counts"):
            SnapshotDataset("discrete-pairs", np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((3, 1)), 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            SnapshotDataset(
                "discrete-pairs", np.array([[np.nan]]), np.zeros((1, 1)), np.zeros((1, 1)), 0.1
            )


class TestBilinearDiscreteHelper:
    def test_map_values(self):
        sys = bilinear_discrete(0.9, 0.1)
        got = sys.evaluate(np.array([2.0]), np.array([0.5]))
        np.testing.assert_allclose(got, [0.9 * 2.0 + 0.1 * 2.0 * 0.5], atol=0.0)
        validate_decomposition(sys, default_grid(sys, points_per_axis=5))
        validate_jacobians(sys, default_grid(sys, points_per_axis=3))


class TestDivergenceGuardWarnings:
    @pytest.mark.parametrize("bound", [1e6, 1e300])
    def test_blowup_truncates_without_a_warning(self, bound):
        import warnings

        blowup = ControlledSystem(
            "blowup", "continuous", 1, 0,
            f_x=lambda x: x**3,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: np.zeros(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(blowup, np.array([2.0]), lambda t: np.zeros(0), 0.05, 200,
                            divergence_bound=bound)
        # the fifth sample is finite, but its 2-norm is past float range: inf, so diverged
        assert traj.diverged
        assert len(traj) == 4
        assert np.all(np.isfinite(traj.states))


def capped_growth(cap):
    """xdot = x + u while x <= cap; past cap the field value is +inf (no numpy warning)."""
    return ControlledSystem(
        "capped-growth", "continuous", 1, 1,
        f_x=lambda x: np.where(x > cap, np.inf, x),
        f_u=lambda u: u,
        f_xu=lambda x, u: np.zeros(1),
    )


class TestErrorsThatAreNotDivergence:
    """Only a field value that is not finite counts as divergence; other errors raise."""

    def test_control_of_the_wrong_dimension_raises(self):
        with pytest.raises(ValueError, match=r"control\(t\) must return shape \(1,\), got \(2,\)"):
            simulate(builtin_system("linear"), np.zeros(2), lambda t: np.zeros(2), 0.1, 5)

    def test_non_finite_control_raises(self):
        with pytest.raises(ValueError, match="u contains non-finite entries"):
            simulate(builtin_system("linear"), np.zeros(2), lambda t: np.array([np.nan]), 0.1, 5)

    def test_field_of_the_wrong_shape_raises_instead_of_redrawing(self):
        bad = ControlledSystem(
            "bad", "discrete", 2, 1,
            f_x=lambda x: x[:1],
            f_u=lambda u: np.zeros(2),
            f_xu=lambda x, u: np.zeros(2),
        )
        with pytest.raises(ValueError, match="reshape") as info:
            generate_dataset(bad, 20)
        assert "retries" not in str(info.value)

    def test_non_finite_field_inside_a_step_ends_simulate_as_diverged(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(capped_growth(2.5), np.array([2.0]), lambda t: np.zeros(1), 0.1, 10)
        # step 3 starts at 2.44; its second stage, 2.44 * 1.05, is past the cap
        assert traj.diverged
        assert len(traj) == 3
        assert np.all(traj.states <= 2.5)
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(capped_growth(2.5).field, traj.states[-1], np.zeros(1), 0.2, 0.1)

    def test_non_finite_field_inside_a_step_makes_generate_dataset_redraw(self):
        import warnings

        system = capped_growth(2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = generate_dataset(system, 200, seed=0, dt=0.1, region=[(-3.0, 3.0)],
                                    kind="discrete-pairs")
        # a step from a state past about 2.26 has a stage past the cap, and is redrawn
        assert data.n_redraws > 0
        assert np.all(np.isfinite(data.Y))
        np.testing.assert_array_equal(data.Y, rk4_step(system.field, data.X, data.U, 0.0, 0.1))


class TestLeanStepPath:
    """The discretized map's step path tests each point and value once per stage
    with whole-array checks; its values and its error rows equal the references."""

    @staticmethod
    def stacks(P):
        """P states and inputs whose first rows hold -0.0 entries."""
        rng = np.random.default_rng(P)
        X, U = rng.uniform(-2.0, 2.0, (P, 2)), rng.uniform(-1.0, 1.0, (P, 1))
        X[:2, 0], X[:1, 1], U[:1] = -0.0, -0.0, -0.0
        return X, U

    @pytest.mark.parametrize("P", [0, 1, 7])
    def test_catalog_kernels_equal_the_stack_and_tile_expressions(self, P):
        X, U = self.stacks(P)
        d, mu, lam = 0.3, -0.05, -1.0
        x1, x2, zeros = X[:, 0], X[:, 1], np.zeros(P)
        old_fu = np.stack([zeros, U[:, 0]], axis=1)
        old_jfu = np.tile([[0.0], [1.0]], (P, 1, 1))
        for system, f_x, base, entry in [
            (builtin_system("duffing-forced", delta=d),
             np.stack([x2, x1 - x1 ** 3 - d * x2], axis=1), [[0.0, 1.0], [0.0, -d]],
             1.0 - 3.0 * x1 ** 2),
            (builtin_system("slow-manifold", mu=mu, lam=lam),
             np.stack([mu * x1, lam * (x2 - x1 ** 2)], axis=1), [[mu, 0.0], [0.0, lam]],
             -2.0 * lam * x1),
        ]:
            old_jfx = np.tile(base, (P, 1, 1))
            old_jfx[:, 1, 0] = entry
            assert_same_bits(system.f_x(X), f_x, f"{system.name} f_x")
            assert_same_bits(system.f_u(U), old_fu, f"{system.name} f_u")
            assert_same_bits(system.jacobian_fx(X), old_jfx, f"{system.name} jacobian_fx")
            assert_same_bits(system.jacobian_fu(U), old_jfu, f"{system.name} jacobian_fu")
        linear = builtin_system("linear")
        assert_same_bits(linear.jacobian_fx(X), np.tile(A_DEFAULT, (P, 1, 1)), "linear jacobian_fx")
        assert_same_bits(linear.jacobian_fu(U), np.tile(B_DEFAULT, (P, 1, 1)), "linear jacobian_fu")
        scalar = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        assert_same_bits(scalar.jacobian_fx(X[:, :1]), np.tile([[-1.0]], (P, 1, 1)), "scalar jac")

    @pytest.mark.parametrize("name, params", [("duffing-forced", {"delta": 0.3}),
                                              ("slow-manifold", {"mu": -0.05, "lam": -1.0})])
    def test_map_step_and_tangents_equal_the_references(self, name, params):
        flow, dt = builtin_system(name, **params), 0.05
        X, U = self.stacks(9)

        def by_hand(x, u):  # the RK4 formula on the validated public evaluate
            k1 = flow.evaluate(x, u)
            k2 = flow.evaluate(x + 0.5 * dt * k1, u)
            k3 = flow.evaluate(x + 0.5 * dt * k2, u)
            k4 = flow.evaluate(x + dt * k3, u)
            return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        ds = discretize(flow, dt)
        phi = ds.evaluate(X, U)
        assert_same_bits(phi, [rk4_step(flow.field, x, u, 0.0, dt) for x, u in zip(X, U)], "rows")
        assert_same_bits(phi, [by_hand(x, u) for x, u in zip(X, U)], "by hand")
        J_x, J_u = _rk4_map_jacobians(flow, X, U, dt)
        assert_same_bits(ds.jacobian_x(X, U), J_x, "jacobian_x")
        assert_same_bits(ds.jacobian_u(X, U), J_u, "jacobian_u")

    @pytest.mark.parametrize("where", ["x", "u", "value"])
    @pytest.mark.parametrize("discrete", [False, True])
    def test_evaluate_names_the_first_bad_row(self, where, discrete):
        flow = ControlledSystem(  # its field value is NaN where x1 > 2.5
            "nan-past-2.5", "continuous", 2, 1,
            f_x=lambda x: np.where(x[0] > 2.5, np.nan, -x),
            f_u=lambda u: np.array([0.0, u[0]]),
            f_xu=lambda x, u: np.zeros(2),
        )
        system = discretize(flow, 0.05) if discrete else flow
        X, U = np.zeros((6, 2)), np.zeros((6, 1))
        if where == "x":
            X[3, 1], X[5, 0] = np.nan, np.nan
        elif where == "u":
            U[2, 0], X[4, 0] = np.nan, np.nan
        else:
            X[3, 0], X[5, 0] = 3.0, 4.0
        first = {"x": 3, "u": 2, "value": 3}[where]
        with pytest.raises(ValueError) as err:
            system.evaluate(X, U)
        assert f"x={X[first].tolist()}, u={U[first].tolist()}" in str(err.value)
        assert str(err.value).startswith(f"{system.name}: non-finite field value at ")

    def test_a_map_error_names_the_map_the_row_and_the_stage_time(self):
        ds = discretize(builtin_system("duffing-forced", delta=0.3), 0.05)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            ds.evaluate([[0.0, 0.0], [1e100, 1.0]], [[0.0], [0.0]])
        assert str(err.value) == ("duffing-forced-discrete: non-finite field value at "
                                  "t = 0.025 in the step from x=[1e+100, 1.0], u=[0.0]")

    def test_row_adapter_callables_never_see_a_non_finite_point(self):
        def finite_only(fn):
            def checked(*args):
                assert all(np.isfinite(a).all() for a in args), args
                return fn(*args)
            return checked

        flow = ControlledSystem(  # xdot = x + u up to |x| = 2.5, NaN past it
            "guarded-growth", "continuous", 1, 1,
            f_x=finite_only(lambda x: np.where(np.abs(x) > 2.5, np.nan, x)),
            f_u=finite_only(lambda u: u),
            f_xu=finite_only(lambda x, u: np.zeros(1)),
        )
        X, U = np.array([[0.5], [np.nan], [3.0], [1.0]]), np.zeros((4, 1))
        for system in (flow, discretize(flow, 0.1)):
            with pytest.raises(ValueError, match=r"x=\[nan\], u=\[0.0\]"):
                system.evaluate(X, U)
            with pytest.raises(ValueError, match=r"x=\[3.0\], u=\[0.0\]"):
                system.evaluate(X[2:], U[2:])
        traj = simulate(flow, np.array([2.0]), lambda t: np.ones(1), 0.1, 20)
        assert traj.diverged and np.all(np.abs(traj.states) <= 2.5)
        for kwargs in ({}, {"kind": "discrete-pairs"}, {"derivative_mode": "finite-difference"}):
            data = generate_dataset(flow, 100, seed=2, region=[(-3.0, 3.0)], **kwargs)
            assert data.n_redraws > 0 and np.all(np.isfinite(data.Y)), kwargs


class TestNonFiniteControl:
    def test_simulate_names_the_control_and_its_first_bad_time(self):
        control = lambda t: np.array([np.nan if t > 0.25 else 0.0])  # noqa: E731
        with pytest.raises(ValueError, match=r"control\(t\) at t = 0\.3"):
            simulate(builtin_system("linear"), np.zeros(2), control, 0.1, 5)
