"""The grid hooks equal the stack kernels on the grid product, bit for bit.

`_Ingredients` evaluates a system, dictionary or model method on the (x, u)
product through the one grid hook `numerics._on_grid`. Kernels evaluate the
factors of x or of u alone on the grid's states or inputs and broadcast them;
each test below compares the hook with the method on `grid.product` by their
bytes, on grids with S != M, with M = 1, with n and m up to 2 and with -0.0
entries.
"""

import math

import numpy as np
import pytest

from kooplab.consistency import _norms, check_def1, check_model
from kooplab.dynamics import ControlledSystem, EvaluationGrid, discretize
from kooplab.formulations import (
    AffineModel,
    BilinearModel,
    EigenModel,
    JointModel,
    SeparableModel,
    bilinear_to_joint,
)
from kooplab.numerics import _Broadcast, _on_grid
from kooplab.observables import (CallableJointDictionary, _as_joint, build_joint_dictionary,
                                 monomials)

DIMS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def grids(n, m):
    """S = 7 states and M = 3 inputs with -0.0 entries, its autonomous() grid (M = 1,
    u = +0.0), and one input u = -0.0 (M = 1)."""
    rng = np.random.default_rng(n + 3 * m)
    states, inputs = rng.uniform(-2.0, 2.0, (7, n)), rng.uniform(-1.0, 1.0, (3, m))
    states[0], states[1, 0], inputs[0], inputs[1, -1] = -0.0, -0.0, -0.0, -0.0
    grid = EvaluationGrid(states, inputs)
    return {"S!=M": grid, "autonomous": grid.autonomous(),
            "u=-0": EvaluationGrid(states, np.full((1, m), -0.0))}


def assert_same_bits(hooked, stacked):
    assert hooked.shape == stacked.shape and hooked.dtype == stacked.dtype
    assert hooked.tobytes() == stacked.tobytes()


def hook_equals_stack(method, grid):
    assert_same_bits(_on_grid(method, grid), method(*grid.product))


def models(n, m, time_kind):
    """One model of every variant on dense seeded operators; the joint ones on a
    monomial-joint and on a bilinear-derived cross dictionary."""
    rng = np.random.default_rng(10 * n + m)
    dx = monomials(n, 3)
    du0 = monomials(m, 2, include_constant=False, var_prefix="u")
    du1 = monomials(m, 2, var_prefix="u")
    dxu = build_joint_dictionary(n, m, 2, 2)
    N = dx.size

    def op(cols):
        return rng.standard_normal((N, cols))

    bilinear = BilinearModel(dx, du1, [op(N) for _ in range(du1.size)], time_kind)
    out = {
        "affine": AffineModel(dx, op(N), op(m), time_kind),
        "autonomous-affine": AffineModel(dx, op(N), None, time_kind, input_dim=m),
        "separable": SeparableModel(dx, du0, op(N), op(du0.size), time_kind),
        "joint": JointModel(dx, dxu, op(N), op(dxu.size), time_kind),
        "bilinear": bilinear,
        "bilinear-as-joint": bilinear_to_joint(bilinear),
    }
    if time_kind == "continuous":
        eigendict = monomials(n, 2, include_constant=False)
        out["eigen"] = EigenModel(eigendict, rng.standard_normal(eigendict.size), m)
        out["joint-eigen"] = EigenModel(dxu, rng.standard_normal(dxu.size))
    return out


class TestEvaluationGrid:
    def test_points_are_read_only_copies(self):
        states, inputs = np.array([[1.0], [2.0]]), np.array([[0.5]])
        grid = EvaluationGrid(states, inputs)
        states[0] = inputs[0] = 99.0
        assert grid.states.tolist() == [[1.0], [2.0]] and grid.inputs.tolist() == [[0.5]]
        for arr in (grid.states, grid.inputs, *grid.product):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("n,m", DIMS)
    def test_product_is_state_major(self, n, m):
        grid = grids(n, m)["S!=M"]
        X, U = grid.product
        M = len(grid.inputs)
        for i, x in enumerate(grid.states):
            for j, u in enumerate(grid.inputs):
                assert X[i * M + j].tobytes() == x.tobytes()
                assert U[i * M + j].tobytes() == u.tobytes()
        A = np.arange(len(grid.states) * 4.0).reshape(-1, 2, 2)
        assert_same_bits(grid.per_state(A)[::M], A)
        B = np.arange(M * 2.0).reshape(M, 2)
        assert_same_bits(grid.per_input(B), np.concatenate([B] * len(grid.states)))


class TestDictionaryHooks:
    @pytest.mark.parametrize("n,m", DIMS)
    def test_monomial_joint_and_bilinear_cross(self, n, m):
        bilinear = models(n, m, "discrete")["bilinear"]
        cross = bilinear_to_joint(bilinear).dict_xu
        for d in (build_joint_dictionary(n, m, 3, 2), cross):
            for grid in grids(n, m).values():
                for method in (d.evaluate, d.jacobian_x, d.jacobian_u):
                    hook_equals_stack(method, grid)
        # the cross dictionary evaluates psi_x on the grid's states and psi_u on its inputs
        grid, rows = grids(n, m)["S!=M"], []
        for d in (bilinear.dict_x, bilinear.dict_u):
            for name in ("evaluate", "jacobian"):
                method = getattr(d, name)
                setattr(d, name, lambda z, _f=method: rows.append(len(z)) or _f(z))
        for method in (cross.evaluate, cross.jacobian_x, cross.jacobian_u):
            rows.clear()
            _on_grid(method, grid)
            assert rows and set(rows) <= {len(grid.states), len(grid.inputs)}

    @pytest.mark.parametrize("n,m", DIMS)
    def test_state_dictionary_read_over_the_input(self, n, m):
        # psi(x, u) = psi(x), as an eigen model reads a state-only dictionary
        d = _as_joint(monomials(n, 2, include_constant=False), m)
        for grid in grids(n, m).values():
            for method in (d.evaluate, d.jacobian_x, d.jacobian_u):
                hook_equals_stack(method, grid)

    @pytest.mark.parametrize("n,m", DIMS)
    def test_per_point_callables_run_on_the_broadcast_arguments(self, n, m):
        rng = np.random.default_rng(5 * n + m)
        A, B = rng.standard_normal((3, n)), rng.standard_normal((3, m))
        d = CallableJointDictionary(
            n, m, ["a", "b", "c"],
            lambda x, u: np.tanh(A @ x) * (B @ u),
            lambda x, u: (1.0 - np.tanh(A @ x) ** 2)[:, None] * (B @ u)[:, None] * A,
            lambda x, u: np.tanh(A @ x)[:, None] * B)
        for grid in grids(n, m).values():
            for method in (d.evaluate, d.jacobian_x, d.jacobian_u):
                hook_equals_stack(method, grid)


class TestModelHooks:
    @pytest.mark.parametrize("n,m", DIMS)
    def test_lift_next_jacobians(self, n, m):
        for model in models(n, m, "discrete").values():
            methods = [model.lift_next_jac_x]
            if model.variant != "affine" or model.B is not None:
                methods.append(model.lift_next_jac_u)
            for grid in grids(n, m).values():
                for method in methods:
                    hook_equals_stack(method, grid)

    @pytest.mark.parametrize("n,m", DIMS)
    def test_rate(self, n, m):
        for model in models(n, m, "continuous").values():
            for grid in grids(n, m).values():
                hook_equals_stack(model.rate, grid)

    def test_def1_evaluates_the_state_dictionary_on_the_states(self):
        # the rate of a continuous affine model factors: psi_x on S rows, never S M
        system = ControlledSystem("linear", "continuous", 2, 1, lambda x: -x,
                                  lambda u: np.array([0.0, u[0]]), lambda x, u: np.zeros(2))
        model = models(2, 1, "continuous")["affine"]
        grid, rows = grids(2, 1)["S!=M"], []
        evaluate = model.dict_x.evaluate
        model.dict_x.evaluate = lambda z: rows.append(len(z)) or evaluate(z)
        report = check_def1(system, model, grid)
        assert report.condition == "DEF1-CTRL"
        assert rows == [len(grid.states)]

    def test_eigen_checks_evaluate_a_state_dictionary_on_the_states(self):
        # a state-only eigen model reads psi(x) on the S states in DEF1's rate and in
        # KAISER, never on the S M product rows, and the two share one Jacobian stack
        system = ControlledSystem("linear", "continuous", 2, 1, lambda x: -x,
                                  lambda u: np.array([0.0, u[0]]), lambda x, u: np.zeros(2))
        model = models(2, 1, "continuous")["eigen"]
        grid, rows = grids(2, 1)["S!=M"], {"_values": [], "_jacobians": []}
        for name, calls in rows.items():
            kernel = getattr(model.eigendict, name)
            setattr(model.eigendict, name,
                    lambda Z, _k=kernel, _c=calls: _c.append(len(Z)) or _k(Z))
        reports, skipped = check_model(system, model, grid)
        assert [r.condition for r in reports] == ["DEF1-CTRL", "KAISER"] and not skipped
        S = len(grid.states)
        assert rows == {"_values": [S, S], "_jacobians": [S]}

    def test_time_kind_guard_holds_on_the_grid(self):
        model = models(1, 1, "continuous")["joint"]
        grid = grids(1, 1)["S!=M"]
        with pytest.raises(ValueError, match="needs a discrete-time model"):
            _on_grid(model.lift_next_jac_x, grid)


class TestSystemHooks:
    @pytest.mark.parametrize("n,m", DIMS)
    def test_per_point_callables_run_on_the_broadcast_arguments(self, n, m):
        system = ControlledSystem("per-point", "continuous", n, m,
                                  lambda x: np.sin(x), lambda u: np.full(n, u.sum() ** 2),
                                  lambda x, u: x * u.sum())
        for grid in grids(n, m).values():
            for name in ("evaluate", "f_xu", "jacobian_fxu_x", "jacobian_fxu_u",
                         "jacobian_x", "jacobian_u"):
                hook_equals_stack(getattr(system, name), grid)


def coupled_flow(n, m):
    """A continuous flow whose pieces couple every coordinate, with finite-difference
    Jacobians: f_x = sin(x) + x_rev, f_u = u_sum^2 + u_0, f_xu = x * u_sum."""
    def f_x(X):
        return np.sin(X) + X[:, ::-1]

    def f_u(U):
        s = U.sum(axis=1, keepdims=True)
        return np.repeat(s ** 2 + U[:, :1], n, axis=1)

    def f_xu(X, U):
        return X * U.sum(axis=1, keepdims=True)

    return ControlledSystem("coupled", "continuous", n, m,
                            _Broadcast(f_x), _Broadcast(f_u), _Broadcast(f_xu))


class TestRK4MapHooks:
    @pytest.mark.parametrize("n,m", DIMS)
    def test_cross_piece_and_its_jacobians(self, n, m):
        for grid in grids(n, m).values():
            for method in ("f_xu", "jacobian_fxu_x", "jacobian_fxu_u"):
                # fresh maps, so that neither side reads the other's memo
                hooked, stacked = (discretize(coupled_flow(n, m), 0.1) for _ in range(2))
                assert_same_bits(_on_grid(getattr(hooked, method), grid),
                                 getattr(stacked, method)(*grid.product))

    def test_other_methods_run_on_the_product(self):
        grid = grids(2, 2)["S!=M"]
        system = discretize(coupled_flow(2, 2), 0.1)
        for method in (system.evaluate, system.jacobian_x, system.jacobian_u):
            hook_equals_stack(method, grid)


def old_norms(*terms):
    """The reduction over each point's trailing axes that `_norms` replaced."""
    R = sum(terms[1:], terms[0])
    return np.abs(R).max(axis=tuple(range(1, R.ndim)), initial=0.0)


class TestNorms:
    @pytest.mark.parametrize("shape", [(11,), (11, 3), (11, 3, 2), (1, 4), (1, 3, 2), (3,),
                                       (5, 0), (5, 2, 0)])
    def test_equals_the_trailing_axes_reduction(self, shape):
        rng = np.random.default_rng(math.prod(shape) + len(shape))
        terms = [rng.standard_normal(shape) for _ in range(3)]
        flat = [t.reshape(-1) for t in terms]  # views
        # NaN and +-inf in the first term; -0.0 in every term, so their sum is -0.0
        for k, value in zip(range(0, flat[0].size, 2), (np.nan, np.inf, -np.inf)):
            flat[0][k] = value
        if flat[0].size > 1:
            for f in flat:
                f[1] = -0.0
        got, want = _norms(*terms), old_norms(*terms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _norms(terms[0]).tobytes() == old_norms(terms[0]).tobytes()

    def test_nan_beats_inf_in_a_block(self):
        got = _norms(np.array([[np.inf, np.nan, -1.0], [-0.0, 0.0, -0.0]]))
        assert np.isnan(got[0]) and got[1] == 0.0 and not np.signbit(got[1])
