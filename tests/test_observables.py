"""Dictionary bases: ordering, values, analytic Jacobians, serialization,
and the point-or-stack contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kooplab.numerics import finite_difference_jacobian
from kooplab.observables import (
    CallableJointDictionary,
    CombinationDictionary,
    CompositeDictionary,
    CustomDictionary,
    MonomialJointDictionary,
    bilinear_cross_dictionary,
    build_dictionary,
    build_joint_dictionary,
    identity,
    joint_dictionary_from_spec,
    monomials,
    rbf,
    subtract_value_at_zero,
)


def fd_check(d, z, tol=1e-6):
    J = d.jacobian(z)
    J_fd = finite_difference_jacobian(d.evaluate, np.asarray(z, dtype=float))
    assert np.max(np.abs(J - J_fd)) <= tol


class TestMonomials:
    def test_degree_two_order_and_values(self):
        d = monomials(2, 2)
        assert d.names == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
        np.testing.assert_allclose(d.evaluate([2.0, 3.0]), [1, 2, 3, 4, 6, 9])

    def test_degree_two_jacobian_hand_values(self):
        d = monomials(2, 2)
        J = d.jacobian([2.0, 3.0])
        expected = np.array(
            [[0, 0], [1, 0], [0, 1], [4, 0], [3, 2], [0, 6]], dtype=float
        )
        np.testing.assert_allclose(J, expected)

    def test_flags(self):
        d = monomials(2, 2)
        assert d.constant_index == 0
        assert not d.zero_at_zero
        assert d.state_inclusive
        np.testing.assert_array_equal(d.state_index_map, [1, 2])

    def test_no_constant_variant(self):
        d = monomials(2, 2, include_constant=False)
        assert d.names[0] == "x1"
        assert d.constant_index is None
        assert d.zero_at_zero
        np.testing.assert_allclose(d.evaluate([0.0, 0.0]), np.zeros(5))

    def test_identity_is_coordinates(self):
        d = identity(3)
        assert d.names == ["x1", "x2", "x3"]
        np.testing.assert_allclose(d.evaluate([4.0, -1.0, 0.5]), [4, -1, 0.5])
        np.testing.assert_allclose(d.jacobian([4.0, -1.0, 0.5]), np.eye(3))
        assert d.zero_at_zero
        np.testing.assert_array_equal(d.state_index_map, [0, 1, 2])

    def test_cubic_scalar(self):
        d = monomials(1, 3)
        np.testing.assert_allclose(d.evaluate([2.0]), [1, 2, 4, 8])
        np.testing.assert_allclose(d.jacobian([2.0]).ravel(), [0, 1, 4, 12])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            monomials(2, 2).evaluate([1.0, 2.0, 3.0])

    def test_batch_shape(self):
        d = monomials(2, 2)
        Z = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]])
        out = d.evaluate(Z)
        assert out.shape == (3, 6)
        np.testing.assert_allclose(out[2], [1, 2, 3, 4, 6, 9])


def power_reference(Z, E):
    """np.power reference for monomial values and Jacobians: (P, N), (P, N, d)."""
    values = np.prod(np.power(Z[:, None, :], E), axis=2)
    jacobian = np.zeros((len(Z),) + E.shape)
    for j in range(E.shape[1]):
        lowered = E.copy()
        lowered[:, j] = np.maximum(E[:, j] - 1, 0)
        jacobian[:, :, j] = E[:, j] * np.prod(np.power(Z[:, None, :], lowered), axis=2)
    return values, jacobian


def assert_matches_reference(actual, reference):
    """Relative agreement to 1e-15, with exact zeros where the reference has them."""
    np.testing.assert_array_equal(actual == 0.0, reference == 0.0)
    scale = np.where(reference == 0.0, 1.0, np.abs(reference))
    assert np.max(np.abs(actual - reference) / scale) <= 1e-15


class TestMonomialKernels:
    """Power-table kernels against an np.power reference."""

    @pytest.mark.parametrize("constant", [True, False])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_match_power_reference(self, dim, degree, constant):
        d = monomials(dim, degree, include_constant=constant)
        rng = np.random.default_rng(100 * dim + degree)
        Z = rng.uniform(-2.0, 2.0, size=(60, dim))
        Z[::4, 0] = 0.0
        Z[1::5, -1] = -0.0
        Z[2::6] = 0.0
        values, jacobian = power_reference(Z, d.exponents)
        assert_matches_reference(d.evaluate(Z), values)
        assert_matches_reference(d.jacobian(Z), jacobian)

    def test_joint_kernels_match_power_reference(self):
        d = MonomialJointDictionary(2, 2, 3, 2)
        rng = np.random.default_rng(7)
        X = rng.uniform(-2.0, 2.0, size=(40, 2))
        U = rng.uniform(-1.0, 1.0, size=(40, 2))
        X[::3, 1] = -0.0
        U[::4, 0] = 0.0
        vx, jx = power_reference(X, d.exponents_x)
        vu, ju = power_reference(U, d.exponents_u)
        assert_matches_reference(d.evaluate(X, U), vx * vu)
        assert_matches_reference(d.jacobian_x(X, U), jx * vu[:, :, None])
        assert_matches_reference(d.jacobian_u(X, U), ju * vx[:, :, None])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_constant_is_one_at_zero(self, dim):
        d = monomials(dim, 4)
        for z in (np.zeros(dim), -np.zeros(dim)):
            psi = d.evaluate(z)
            assert psi[d.constant_index] == 1.0
            assert np.count_nonzero(psi) == 1
            J = d.jacobian(z)
            np.testing.assert_array_equal(J[d.constant_index], 0.0)
            np.testing.assert_array_equal(J[d.state_index_map], np.eye(dim))

    def test_outputs_are_c_contiguous(self):
        Z = np.random.default_rng(3).uniform(-1.0, 1.0, size=(9, 3))
        for d in (monomials(3, 3), identity(3), subtract_value_at_zero(monomials(3, 2))):
            assert d.evaluate(Z).flags.c_contiguous
            assert d.jacobian(Z).flags.c_contiguous
        joint = MonomialJointDictionary(3, 1, 2, 1)
        U = np.ones((9, 1))
        for out in (joint.evaluate(Z, U), joint.jacobian_x(Z, U), joint.jacobian_u(Z, U)):
            assert out.flags.c_contiguous


class TestRbf:
    def test_value_and_gradient_hand(self):
        d = rbf(centers=[[0.0, 0.0]], width=2.0)
        z = np.array([1.0, 2.0])
        val = np.exp(-5.0 / 8.0)
        np.testing.assert_allclose(d.evaluate(z), [val])
        np.testing.assert_allclose(d.jacobian(z), [[-val / 4.0, -val / 2.0]])

    def test_latin_hypercube_deterministic(self):
        a = rbf(n_centers=7, region=[(-2, 2), (-1, 1)], width=1.0, seed=3)
        b = rbf(n_centers=7, region=[(-2, 2), (-1, 1)], width=1.0, seed=3)
        np.testing.assert_array_equal(a.centers, b.centers)
        c = rbf(n_centers=7, region=[(-2, 2), (-1, 1)], width=1.0, seed=4)
        assert not np.array_equal(a.centers, c.centers)

    def test_centers_cover_each_axis(self):
        d = rbf(n_centers=10, region=[(-2.0, 2.0), (0.0, 1.0)], width=0.5, seed=0)
        assert d.centers[:, 0].min() >= -2.0 and d.centers[:, 0].max() <= 2.0
        assert d.centers[:, 1].min() >= 0.0 and d.centers[:, 1].max() <= 1.0
        # one sample per equal-width cell along each axis
        cells = np.sort(np.floor((d.centers[:, 0] + 2.0) / 0.4).astype(int))
        np.testing.assert_array_equal(cells, np.arange(10))

    def test_requires_centers_or_layout(self):
        with pytest.raises(ValueError, match="centers"):
            rbf(width=1.0)
        with pytest.raises(ValueError, match="width"):
            rbf(centers=[[0.0]], width=0.0)


class TestCompositeAndShifted:
    def test_composite_concatenates(self):
        d = CompositeDictionary([identity(2), monomials(2, 2)])
        assert d.size == 8
        np.testing.assert_allclose(
            d.evaluate([2.0, 3.0]), [2, 3, 1, 2, 3, 4, 6, 9]
        )
        np.testing.assert_array_equal(d.state_index_map, [0, 1])
        assert d.constant_index == 2

    def test_composite_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            CompositeDictionary([identity(2), identity(3)])

    def test_shift_zeroes_the_origin(self):
        d = subtract_value_at_zero(monomials(2, 2))
        np.testing.assert_allclose(d.evaluate([0.0, 0.0]), np.zeros(6))
        np.testing.assert_allclose(d.evaluate([2.0, 3.0]), [0, 2, 3, 4, 6, 9])
        assert d.zero_at_zero
        assert d.constant_index is None
        # Jacobian unchanged by a constant shift
        np.testing.assert_allclose(
            d.jacobian([2.0, 3.0]), monomials(2, 2).jacobian([2.0, 3.0])
        )

    def test_shift_of_zero_at_zero_base_is_identity_map(self):
        base = identity(2)
        d = subtract_value_at_zero(base)
        z = np.array([1.5, -0.5])
        np.testing.assert_allclose(d.evaluate(z), base.evaluate(z))


class TestCombination:
    def test_rows_are_linear_combinations(self):
        base = monomials(2, 2)
        # {x1, x2 - (10/9) x1^2}: eigenfunction pair of the slow manifold flow
        C = np.array([[0, 1, 0, 0, 0, 0], [0, 0, 1, -10.0 / 9.0, 0, 0]])
        d = CombinationDictionary(base, C, names=["phi1", "phi2"])
        np.testing.assert_allclose(d.evaluate([3.0, 2.0]), [3.0, 2.0 - 10.0])
        assert d.zero_at_zero
        assert not d.state_inclusive

    def test_unit_rows_keep_state_inclusive(self):
        base = monomials(2, 2)
        C = np.zeros((3, 6))
        C[0, 1] = 1.0  # x1
        C[1, 2] = 1.0  # x2
        C[2, 3] = 1.0  # x1^2
        d = CombinationDictionary(base, C)
        assert d.state_inclusive
        np.testing.assert_array_equal(d.state_index_map, [0, 1])

    def test_column_count_checked(self):
        with pytest.raises(ValueError, match="columns"):
            CombinationDictionary(monomials(2, 2), np.eye(4))


class TestCustom:
    def test_callable_entries(self):
        d = CustomDictionary(
            1,
            [
                ("sin", lambda z: np.sin(z[0]), lambda z: [np.cos(z[0])]),
                ("exp", lambda z: np.exp(z[0]), lambda z: [np.exp(z[0])]),
            ],
        )
        z = np.array([0.3])
        np.testing.assert_allclose(d.evaluate(z), [np.sin(0.3), np.exp(0.3)])
        np.testing.assert_allclose(
            d.jacobian(z), [[np.cos(0.3)], [np.exp(0.3)]]
        )
        assert not d.zero_at_zero  # exp(0) = 1


@pytest.mark.parametrize(
    "factory",
    [
        lambda: monomials(2, 3),
        lambda: monomials(3, 2, include_constant=False),
        lambda: identity(2),
        lambda: rbf(n_centers=5, region=[(-2, 2), (-2, 2)], width=0.8, seed=1),
        lambda: CompositeDictionary([identity(2), monomials(2, 2)]),
        lambda: subtract_value_at_zero(monomials(2, 2)),
        lambda: CombinationDictionary(
            monomials(2, 2), [[0, 1, 0, 0, 0, 0], [0, 0, 1, -1.2, 0, 0]]
        ),
    ],
    ids=["monomials", "no-constant", "identity", "rbf", "composite", "shifted", "combination"],
)
def test_jacobian_matches_finite_differences(factory):
    d = factory()
    rng = np.random.default_rng(11)
    for _ in range(5):
        fd_check(d, rng.uniform(-1.5, 1.5, size=d.input_dim))


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: monomials(2, 3),
            lambda: identity(3),
            lambda: rbf(n_centers=4, region=[(-1, 1)], width=0.5, seed=2),
            lambda: CompositeDictionary([identity(2), monomials(2, 2)]),
            lambda: subtract_value_at_zero(monomials(2, 2)),
            lambda: CombinationDictionary(
                monomials(2, 2), [[0, 1, 0, 0, 0, 0], [0, 0, 1, -1.2, 0, 0]]
            ),
        ],
        ids=["monomials", "identity", "rbf", "composite", "shifted", "combination"],
    )
    def test_rebuild_matches(self, factory):
        d = factory()
        d2 = build_dictionary(d.spec)
        assert d2.names == d.names
        rng = np.random.default_rng(5)
        for _ in range(3):
            z = rng.uniform(-1, 1, size=d.input_dim)
            np.testing.assert_array_equal(d2.evaluate(z), d.evaluate(z))
            np.testing.assert_array_equal(d2.jacobian(z), d.jacobian(z))

    def test_custom_has_no_spec(self):
        d = CustomDictionary(1, [("f", lambda z: z[0], lambda z: [1.0])])
        assert d.spec is None

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            build_dictionary({"dim": 2})
        with pytest.raises(ValueError, match="unknown"):
            build_dictionary({"kind": "wavelets"})
        with pytest.raises(ValueError, match="missing field"):
            build_dictionary({"kind": "monomials", "dim": 2})


class TestJointDictionaries:
    def test_scalar_bilinear_basis(self):
        d = build_joint_dictionary(1, 1, state_degree=1, input_degree=1)
        assert d.names == ["u1", "x1*u1"]
        np.testing.assert_allclose(d.evaluate([2.0], [3.0]), [3.0, 6.0])
        np.testing.assert_allclose(d.jacobian_x([2.0], [3.0]), [[0.0], [3.0]])
        np.testing.assert_allclose(d.jacobian_u([2.0], [3.0]), [[1.0], [2.0]])

    def test_vanishes_on_zero_input_slice(self):
        d = build_joint_dictionary(2, 2, state_degree=2, input_degree=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            np.testing.assert_array_equal(d.evaluate(x, np.zeros(2)), np.zeros(d.size))

    def test_input_degree_must_be_positive(self):
        with pytest.raises(ValueError, match="input_degree"):
            build_joint_dictionary(1, 1, state_degree=1, input_degree=0)

    def test_jacobians_match_finite_differences(self):
        d = build_joint_dictionary(2, 1, state_degree=2, input_degree=2)
        x = np.array([0.7, -1.1])
        u = np.array([0.4])
        Jx_fd = finite_difference_jacobian(lambda xx: d.evaluate(xx, u), x)
        Ju_fd = finite_difference_jacobian(lambda uu: d.evaluate(x, uu), u)
        assert np.max(np.abs(d.jacobian_x(x, u) - Jx_fd)) <= 1e-6
        assert np.max(np.abs(d.jacobian_u(x, u) - Ju_fd)) <= 1e-6

    def test_monomial_joint_spec_round_trip(self):
        d = build_joint_dictionary(2, 1, state_degree=2, input_degree=1)
        d2 = joint_dictionary_from_spec(d.spec)
        assert d2.names == d.names
        x = np.array([0.3, 0.9])
        u = np.array([-0.6])
        np.testing.assert_array_equal(d2.evaluate(x, u), d.evaluate(x, u))

    def test_operator_derived_cross_basis(self):
        # K(u) = K0 + u*K1 over psi_u = {1, u}; cross term is u * K1 @ psi_x
        K0 = np.array([[0.9]])
        K1 = np.array([[0.2]])
        spec = {
            "kind": "bilinear-derived",
            "state": identity(1).spec,
            "input": monomials(1, 1).spec,
            "k_terms": [K0.tolist(), K1.tolist()],
        }
        d = joint_dictionary_from_spec(spec)
        assert isinstance(d, CallableJointDictionary)
        x = np.array([2.0])
        u = np.array([3.0])
        np.testing.assert_allclose(d.evaluate(x, u), [3.0 * 0.2 * 2.0])
        np.testing.assert_allclose(d.jacobian_x(x, u), [[0.6]])
        np.testing.assert_allclose(d.jacobian_u(x, u), [[0.4]])
        np.testing.assert_allclose(d.evaluate(x, np.zeros(1)), [0.0])

    def test_joint_spec_errors(self):
        with pytest.raises(ValueError, match="kind"):
            joint_dictionary_from_spec({"state_dim": 1})
        with pytest.raises(ValueError, match="unknown"):
            joint_dictionary_from_spec({"kind": "mystery"})

    def test_shape_checks(self):
        d = MonomialJointDictionary(2, 1, 1, 1)
        with pytest.raises(ValueError, match="state"):
            d.evaluate([1.0], [0.5])
        with pytest.raises(ValueError, match="input"):
            d.evaluate([1.0, 2.0], [0.5, 0.5])


def custom_2d():
    """Per-point callables: reach stacks through the row adapter."""
    return CustomDictionary(2, [
        ("x2*sin(x1)", lambda z: z[1] * np.sin(z[0]),
         lambda z: [z[1] * np.cos(z[0]), np.sin(z[0])]),
        ("exp(x2)", lambda z: np.exp(z[1]), lambda z: [0.0, np.exp(z[1])]),
    ])


def callable_joint_2x1():
    return CallableJointDictionary(
        2, 1, ["x1*u1", "x2*u1^2"],
        lambda x, u: np.array([x[0] * u[0], x[1] * u[0] ** 2]),
        lambda x, u: np.array([[u[0], 0.0], [0.0, u[0] ** 2]]),
        lambda x, u: np.array([[x[0]], [2.0 * x[1] * u[0]]]),
    )


def bilinear_cross_2x1():
    K_terms = np.random.default_rng(3).normal(size=(3, 6, 6))
    return bilinear_cross_dictionary(monomials(2, 2), monomials(1, 2), list(K_terms))


STACK_DICTIONARIES = {
    "monomials": lambda: monomials(2, 3),
    "no-constant": lambda: monomials(3, 2, include_constant=False),
    "identity": lambda: identity(2),
    "rbf": lambda: rbf(n_centers=5, region=[(-2, 2), (-2, 2)], width=0.8, seed=1),
    "composite": lambda: CompositeDictionary([identity(2), monomials(2, 2)]),
    "combination": lambda: CombinationDictionary(
        monomials(2, 2), [[0, 1, 0, 0, 0, 0], [0, 0, 1, -1.2, 0, 0]]),
    "shifted": lambda: subtract_value_at_zero(rbf(centers=[[0.5, -0.5]], width=1.0)),
    "custom": custom_2d,
}

STACK_JOINT_DICTIONARIES = {
    "monomial-joint": lambda: build_joint_dictionary(2, 2, 2, 2),
    "callable-joint": callable_joint_2x1,
    "bilinear-cross": bilinear_cross_2x1,
}


def assert_stack_equals_rows(fn, *cols):
    stacked = fn(*cols)
    rows = np.array([fn(*row) for row in zip(*cols)])
    assert stacked.shape == rows.shape
    np.testing.assert_allclose(stacked, rows, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(rows).max()))


@st.composite
def stack(draw, dim, bound, rows=None):
    """1 to 50 rows (or exactly `rows`) in [-bound, bound]^dim."""
    P = rows if rows is not None else draw(st.integers(1, 50))
    return draw(arrays(np.float64, (P, dim), elements=st.floats(-bound, bound)))


class TestStackContract:
    @pytest.mark.parametrize("name", sorted(STACK_DICTIONARIES))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_stacked_calls_equal_per_row_calls(self, name, data):
        d = STACK_DICTIONARIES[name]()
        Z = data.draw(stack(d.input_dim, 2.0))
        for method in ("evaluate", "jacobian"):
            assert_stack_equals_rows(getattr(d, method), Z)

    @pytest.mark.parametrize("name", sorted(STACK_JOINT_DICTIONARIES))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_joint_stacked_calls_equal_per_row_calls(self, name, data):
        d = STACK_JOINT_DICTIONARIES[name]()
        X = data.draw(stack(d.state_dim, 2.0))
        U = data.draw(stack(d.input_dim, 1.0, rows=len(X)))
        for method in ("evaluate", "jacobian_x", "jacobian_u"):
            assert_stack_equals_rows(getattr(d, method), X, U)

    @pytest.mark.parametrize("name", sorted(STACK_DICTIONARIES))
    def test_point_shapes_and_bad_arguments(self, name):
        d = STACK_DICTIONARIES[name]()
        N, dim = d.size, d.input_dim
        assert d.evaluate(np.zeros(dim)).shape == (N,)
        assert d.jacobian(np.zeros(dim)).shape == (N, dim)
        for bad in (np.zeros(dim + 1), np.zeros((3, dim + 1)), np.zeros((2, 3, dim))):
            for method in (d.evaluate, d.jacobian):
                with pytest.raises(ValueError, match="shape"):
                    method(bad)

    @pytest.mark.parametrize("name", sorted(STACK_JOINT_DICTIONARIES))
    def test_joint_point_shapes_and_bad_arguments(self, name):
        d = STACK_JOINT_DICTIONARIES[name]()
        N, n, m = d.size, d.state_dim, d.input_dim
        x, u = np.zeros(n), np.zeros(m)
        assert d.evaluate(x, u).shape == (N,)
        assert d.jacobian_x(x, u).shape == (N, n)
        assert d.jacobian_u(x, u).shape == (N, m)
        bad = {
            "single points or stacks": [(np.zeros((3, n)), np.zeros((2, m))),
                                        (np.zeros((3, n)), u), (x, np.zeros((1, m)))],
            "state": [(np.zeros((3, n + 1)), np.zeros((3, m)))],
            "input": [(np.zeros((3, n)), np.zeros((3, m + 1))), (x, np.zeros(m + 1))],
        }
        for message, cases in bad.items():
            for args in cases:
                for method in (d.evaluate, d.jacobian_x, d.jacobian_u):
                    with pytest.raises(ValueError, match=message):
                        method(*args)
