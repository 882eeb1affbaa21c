"""Consistency-condition checkers: exact pairings, known obstructions, reports."""

import dataclasses
import io
import json
import zipfile
from collections import Counter

import numpy as np
import pytest

from kooplab import observables

from kooplab.consistency import (
    CONDITION_IDS,
    NECESSITY_QUALIFIER,
    REPORT_SCHEMA_VERSION,
    ConsistencyReport,
    HypothesisViolationError,
    check_corollary1,
    check_corollary2,
    check_corollary3_kma,
    check_corollary4,
    check_corollary5,
    check_corollary6,
    check_def1,
    check_def2,
    check_def2_joint,
    check_kaiser,
    check_model,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    read_reports_json,
    read_summary_csv,
    report_provenance,
    summarize,
    write_reports_json,
    write_summary_csv,
)
from kooplab.dynamics import (
    ControlledSystem,
    EvaluationGrid,
    bilinear_discrete,
    builtin_system,
    default_grid,
    discretize,
    generate_dataset,
)
from kooplab.formulations import (
    AffineModel,
    EigenModel,
    JointModel,
    SeparableModel,
    fit_affine,
    fit_bilinear,
    fit_eigen,
    fit_joint,
    fit_separable,
)
from kooplab.observables import (
    CallableJointDictionary,
    CombinationDictionary,
    CustomDictionary,
    build_joint_dictionary,
    identity,
    monomials,
    rbf,
)

MU, LAM = -0.05, -1.0
B_SLOW = LAM / (LAM - 2.0 * MU)  # x2 - B_SLOW*x1^2 is invariant under the flow


def xu_joint_dict():
    """Joint dictionary with the single observable x*u (scalar state/input)."""
    return CallableJointDictionary(
        1, 1, ["x1*u1"],
        lambda x, u: np.array([x[0] * u[0]]),
        lambda x, u: np.array([[u[0]]]),
        lambda x, u: np.array([[x[0]]]),
    )


def x_and_xu_joint_dict():
    """Joint dictionary {x, x*u}: a state row plus a genuine cross row."""
    return CallableJointDictionary(
        1, 1, ["x1", "x1*u1"],
        lambda x, u: np.array([x[0], x[0] * u[0]]),
        lambda x, u: np.array([[1.0], [u[0]]]),
        lambda x, u: np.array([[0.0], [x[0]]]),
    )


class TestNonFiniteHypotheses:
    def test_nan_cannot_pass_the_guards(self):
        # f_xu is NaN wherever x != 0: f_xu(x, 0) = 0 and f_xu(x, u) = 0 are unverifiable
        system = ControlledSystem(
            "nan-cross", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u,
            f_xu=lambda x, u: np.where(x != 0.0, np.nan, 0.0),
        )
        grid = default_grid(system, points_per_axis=5)
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, u\) = 0.*inf"):
            check_corollary2(system, identity(1), grid)
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, 0\) = 0.*inf"):
            check_theorem2(system, identity(1), identity(1, "u"), [[-1.0]], [[1.0]], grid)

    def test_nan_at_zero_input_fails_the_single_value_guard(self):
        system = ControlledSystem(
            "nan-input", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: np.where(u == 0.0, np.nan, u),
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(HypothesisViolationError, match=r"f_u\(0\) = 0"):
            check_theorem2(system, identity(1), identity(1, "u"), [[-1.0]], [[1.0]],
                           default_grid(system, points_per_axis=5))


class TestNonFiniteResiduals:
    def test_checker_raises_naming_the_condition_and_first_point(self):
        system = ControlledSystem(
            "nan-cross", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u,
            f_xu=lambda x, u: np.where((x > 0.0) & (u > 0.0), np.nan, 0.0),
        )
        grid = EvaluationGrid(np.array([[-1.0], [1.0], [2.0]]), np.array([[-1.0], [0.5]]))
        with pytest.raises(ValueError, match=r"COR1-FXU: non-finite residual nan at u=0.5; x=1.0"):
            check_corollary1(system, identity(1), grid)

    def test_check_model_propagates_instead_of_skipping(self):
        # the dictionary's Jacobian is NaN for x > 1, so the DEF1 field is NaN there
        dictionary = CustomDictionary(1, [
            ("x1", lambda z: z[0], lambda z: [np.nan] if z[0] > 1.0 else [1.0]),
        ])
        system = builtin_system("bilinear-scalar", a=-1.0, b=0.0)
        model = AffineModel(dictionary, [[-1.0]], [[0.0]], "continuous")
        with pytest.raises(ValueError, match=r"DEF1-CTRL: non-finite residual nan at u=-1.0; x=2.0"):
            check_model(system, model, default_grid(system, points_per_axis=5))


def scalar_discrete(f_x, f_u, jac_fx, jac_fu, name="scalar-discrete"):
    return ControlledSystem(
        name, "discrete", 1, 1,
        f_x=f_x,
        f_u=f_u,
        f_xu=lambda x, u: np.zeros(1),
        jac_fx=jac_fx,
        jac_fu=jac_fu,
        jac_fxu_x=lambda x, u: np.zeros((1, 1)),
        jac_fxu_u=lambda x, u: np.zeros((1, 1)),
    )


def slow_manifold_eigendict():
    base = monomials(2, 2, include_constant=False)
    coeffs = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -B_SLOW, 0.0, 0.0],
    ])
    return CombinationDictionary(base, coeffs, names=["phi1", "phi2"])


class TestConsistencyReport:
    def test_verdict_boundary(self):
        pts = {"x": np.array([[0.0], [1.0]])}
        r = ConsistencyReport("COR1-FXU", 1.0, pts, np.array([0.5, 1.0]))
        assert r.verdict == "consistent"
        r2 = ConsistencyReport("COR1-FXU", 0.999, pts, np.array([0.5, 1.0]))
        assert r2.verdict == "inconsistent"

    def test_argmax_point(self):
        pts = {"x": np.array([[0.0], [1.0], [2.0]]), "u": np.array([[5.0], [6.0], [7.0]])}
        r = ConsistencyReport("COR1-FXU", 1e-6, pts, np.array([0.1, 0.9, 0.3]))
        assert r.argmax_index == 1
        assert r.argmax_point["x"] == pytest.approx([1.0])
        assert r.argmax_point["u"] == pytest.approx([6.0])
        assert r.max_residual == pytest.approx(0.9)
        assert r.mean_residual == pytest.approx((0.1 + 0.9 + 0.3) / 3)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError, match="unknown condition"):
            ConsistencyReport("T9-C9", 1e-6, {}, np.array([0.0]))

    def test_misaligned_points_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            ConsistencyReport(
                "COR1-FXU", 1e-6, {"x": np.zeros((3, 1))}, np.array([0.0, 1.0])
            )

    def test_empty_residuals_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ConsistencyReport("COR1-FXU", 1e-6, {}, np.array([]))

    def test_statistics_are_the_fields_reductions(self):
        residuals = np.random.default_rng(5).random(50)
        residuals[[7, 31]] = 2.0  # a tie: the first maximum wins, as np.argmax has it
        pts = {"x": np.arange(50.0)[:, None], "u": -np.arange(50.0)[:, None]}
        r = ConsistencyReport("COR1-FXU", 1.5, pts, residuals)
        assert r.argmax_index == 7 == int(np.argmax(residuals))
        assert r.max_residual == float(np.max(residuals))
        assert r.mean_residual == float(np.mean(residuals))
        assert r.verdict == "inconsistent"
        d = r.to_dict()
        assert (d["max_residual"], d["mean_residual"], d["verdict"]) == (
            r.max_residual, r.mean_residual, r.verdict)
        assert d["argmax_point"] == {"x": [7.0], "u": [-7.0]}

    def test_frozen_with_read_only_arrays(self):
        pts = {"x": np.array([[0.0], [1.0]])}
        residuals = np.array([0.5, 1.0])
        r = ConsistencyReport("COR1-FXU", 1.0, pts, residuals)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.tolerance = 0.1
        for arr in (r.residuals, r.points["x"]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 9.0
        residuals[1] = pts["x"][1, 0] = 9.0  # writable arrays are copied, so no summary goes stale
        assert (r.residuals[1], r.points["x"][1, 0], r.max_residual) == (1.0, 1.0, 1.0)
        shared = ConsistencyReport("COR1-FXU", 1.0, {"x": r.points["x"]}, r.residuals)
        assert np.shares_memory(shared.points["x"], r.points["x"])  # read-only ones are not
        assert np.shares_memory(shared.residuals, r.residuals)

    def test_to_dict_and_rows_hand_out_copies(self):
        r = ConsistencyReport("COR1-FXU", 1.0, {"x": np.array([[0.0], [1.0]])}, [0.5, 1.0])
        first = r.to_dict()
        first["argmax_point"]["x"].append(5.0)
        first["verdict"] = "edited"
        assert r.to_dict() == {**first, "verdict": "consistent", "argmax_point": {"x": [1.0]}}
        summary = summarize([r])
        summary.to_rows()[0]["verdict"] = "edited"
        assert summary.to_rows()[0]["verdict"] == "consistent"
        assert "edited" not in summary.to_text()


class TestDef1:
    def test_autonomous_slow_manifold_exact(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        base = monomials(2, 2, include_constant=False)
        coeffs = np.zeros((3, 5))
        coeffs[0, 0] = coeffs[1, 1] = coeffs[2, 2] = 1.0  # x1, x2, x1^2
        dict3 = CombinationDictionary(base, coeffs)
        L = np.array([[MU, 0.0, 0.0], [0.0, LAM, -LAM], [0.0, 0.0, 2.0 * MU]])
        model = AffineModel(dict3, L, None, "continuous", input_dim=1)
        report = check_def1(system, model, default_grid(system))
        assert report.condition == "DEF1-AUTON"
        assert report.max_residual <= 1e-12
        assert report.verdict == "consistent"
        assert set(report.points) == {"x"}

    def test_controlled_linear_exact(self):
        system = builtin_system("linear")
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        model = AffineModel(identity(2), A, B, "continuous")
        report = check_def1(system, model, default_grid(system))
        assert report.condition == "DEF1-CTRL"
        assert report.max_residual <= 1e-13
        assert set(report.points) == {"x", "u"}

    def test_controlled_wrong_operator_detected(self):
        system = builtin_system("linear")
        A = np.array([[-1.0 + 0.1, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        model = AffineModel(identity(2), A, B, "continuous")
        report = check_def1(system, model, default_grid(system))
        # defect is |0.1 * x1|, largest at the grid corner x1 = +-2
        assert report.max_residual == pytest.approx(0.2, abs=1e-12)
        assert report.verdict == "inconsistent"
        assert abs(report.argmax_point["x"][0]) == pytest.approx(2.0)

    def test_separable_and_joint_models_exact(self):
        linear = builtin_system("linear")
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        sep = SeparableModel(identity(2), identity(1, var_prefix="u"), A, B, "continuous")
        assert check_def1(linear, sep, default_grid(linear)).max_residual <= 1e-13

        bil = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        joint = JointModel(
            identity(1), xu_joint_dict(), np.array([[-1.0]]), np.array([[1.0]]),
            "continuous",
        )
        report = check_def1(bil, joint, default_grid(bil))
        assert report.condition == "DEF1-CTRL"
        assert report.max_residual <= 1e-13

    def test_eigen_state_only_dispatch(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        model = EigenModel(slow_manifold_eigendict(), [MU, LAM], input_dim=1)
        grid = default_grid(system)
        auto = check_def1(system, model, grid.autonomous())
        assert auto.condition == "DEF1-CTRL"
        assert auto.max_residual <= 1e-12
        # the additive input hits phi2 but the eigen rate cannot see it
        full = check_def1(system, model, grid)
        assert full.max_residual == pytest.approx(1.0, abs=1e-12)

    def test_joint_eigendict_exact_with_udot(self):
        system = builtin_system("bilinear-scalar", a=MU, b=0.0)  # xdot = mu*x
        eigendict = CallableJointDictionary(
            1, 1, ["u1", "x1*u1"],
            lambda x, u: np.array([u[0], x[0] * u[0]]),
            lambda x, u: np.array([[0.0], [u[0]]]),
            lambda x, u: np.array([[1.0], [x[0]]]),
        )
        model = EigenModel(eigendict, [0.0, MU])
        grid = default_grid(system)
        r1 = check_def1(system, model, grid, u_dot=np.array([0.3]))
        assert r1.condition == "DEF1-JOINT"
        assert r1.max_residual <= 1e-13
        r2 = check_def1(system, model, grid, u_dot=lambda x, u: np.array([0.3]))
        assert r2.max_residual <= 1e-13

    def test_joint_eigendict_requires_udot(self):
        system = builtin_system("bilinear-scalar", a=MU, b=0.0)
        eigendict = CallableJointDictionary(
            1, 1, ["u1"],
            lambda x, u: np.array([u[0]]),
            lambda x, u: np.array([[0.0]]),
            lambda x, u: np.array([[1.0]]),
        )
        model = EigenModel(eigendict, [0.0])
        with pytest.raises(ValueError, match="u_dot"):
            check_def1(system, model, default_grid(system))

    def test_time_kind_mismatches_rejected(self):
        dsys = bilinear_discrete(0.9, 0.1)
        model = AffineModel(identity(1), [[0.9]], [[0.1]], "discrete")
        with pytest.raises(ValueError, match="continuous"):
            check_def1(dsys, model, default_grid(dsys))
        csys = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        with pytest.raises(ValueError, match="continuous"):
            check_def1(csys, model, default_grid(csys))


class TestDef2:
    def test_autonomous_exact(self):
        system = scalar_discrete(
            lambda x: 0.9 * x, lambda u: np.zeros(1),
            lambda x: np.array([[0.9]]), lambda u: np.array([[0.0]]),
        )
        model = AffineModel(identity(1), [[0.9]], None, "discrete", input_dim=1)
        reports = check_def2(system, model, default_grid(system))
        assert [r.condition for r in reports] == ["DEF2-AUTON"]
        assert reports[0].max_residual <= 1e-14

    def test_autonomous_quadratic_map_obstruction(self):
        # x_next = x^2 lifts exactly on {x, x^2} values, but the derivative
        # identity needs x^4 in the dictionary, so the defect is 4|x|^3
        system = scalar_discrete(
            lambda x: x**2, lambda u: np.zeros(1),
            lambda x: np.array([[2.0 * x[0]]]), lambda u: np.array([[0.0]]),
        )
        model = AffineModel(
            monomials(1, 2, include_constant=False), [[0.0, 1.0], [0.0, 0.0]],
            None, "discrete", input_dim=1,
        )
        report = check_def2(system, model, default_grid(system))[0]
        assert report.max_residual == pytest.approx(32.0, abs=1e-9)
        states = report.points["x"].ravel()
        at_one = np.flatnonzero(np.isclose(states, 1.0))[0]
        assert report.residuals[at_one] == pytest.approx(4.0, abs=1e-10)

    def test_controlled_fitted_linear_exact(self):
        system = builtin_system("linear")
        data = generate_dataset(system, 300, seed=5, dt=0.1, kind="discrete-pairs")
        model = fit_affine(data, identity(2))
        dsys = discretize(system, 0.1)
        reports = check_def2(dsys, model, default_grid(dsys))
        assert [r.condition for r in reports] == ["DEF2-CTRL-X", "DEF2-CTRL-U"]
        for r in reports:
            assert r.max_residual <= 1e-8
            assert r.verdict == "consistent"

    def test_controlled_bilinear_obstruction(self):
        system = bilinear_discrete(0.9, 0.1)
        model = AffineModel(identity(1), [[0.9]], [[0.0]], "discrete")
        rx, ru = check_def2(system, model, default_grid(system))
        # d(next)/dx = 0.9 + 0.1u and d(next)/du = 0.1x; the model says 0.9 and 0
        assert rx.max_residual == pytest.approx(0.1, abs=1e-12)
        assert ru.max_residual == pytest.approx(0.2, abs=1e-12)

    def test_continuous_model_rejected(self):
        dsys = bilinear_discrete(0.9, 0.1)
        model = AffineModel(identity(1), [[-1.0]], [[1.0]], "continuous")
        with pytest.raises(ValueError, match="discrete"):
            check_def2(dsys, model, default_grid(dsys))


class TestDef2Joint:
    def setup_method(self):
        self.a, self.c = 0.8, 0.5
        self.system = scalar_discrete(
            lambda x: self.a * x, lambda u: np.zeros(1),
            lambda x: np.array([[self.a]]), lambda u: np.array([[0.0]]),
        )
        self.K = np.diag([self.a, self.a * self.c])

    def test_exact_with_input_evolution(self):
        reports = check_def2_joint(
            self.system, x_and_xu_joint_dict(), self.K, default_grid(self.system),
            input_evolution=(lambda u: self.c * u, lambda u: np.array([[self.c]])),
        )
        assert [r.condition for r in reports] == ["DEF2-JOINT-X", "DEF2-JOINT-U"]
        for r in reports:
            assert r.max_residual <= 1e-14
            assert r.note is None

    def test_without_input_evolution_notes_and_defects(self):
        rx, ru = check_def2_joint(
            self.system, x_and_xu_joint_dict(), self.K, default_grid(self.system)
        )
        # held-input evaluation misses the true u decay: a*|u|*(1-c) in x,
        # and the whole transport row a*c*|x| in u
        assert rx.max_residual == pytest.approx(self.a * (1 - self.c), abs=1e-12)
        assert ru.max_residual == pytest.approx(self.a * self.c * 2.0, abs=1e-12)
        assert "held" in rx.note
        assert "transport" in ru.note

    def test_wrong_operator_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            check_def2_joint(
                self.system, x_and_xu_joint_dict(), np.eye(3), default_grid(self.system)
            )


class TestTheorem2:
    def test_linear_identity_exact(self):
        system = builtin_system("linear")
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        reports = check_theorem2(
            system, identity(2), identity(1, var_prefix="u"), A, B,
            default_grid(system),
        )
        assert [r.condition for r in reports] == ["T2-C1", "T2-C2", "T2-C3"]
        assert set(reports[0].points) == {"x"}
        assert set(reports[1].points) == {"u"}
        assert set(reports[2].points) == {"x", "u"}
        for r in reports:
            assert r.max_residual <= 1e-13

    def test_quadratic_observable_cross_defect(self):
        # additive forcing through x2^2: the x-dependent input response
        # (d psi/dx - d psi/dx|0) f_u = 2*x2*u cannot be separated
        system = builtin_system("duffing-forced", delta=0.5)
        dict_x = monomials(2, 2, include_constant=False)
        L_x = np.zeros((5, 5))
        L_u = np.zeros((5, 1))
        grid = default_grid(system, points_per_axis=5)
        reports = check_theorem2(system, dict_x, identity(1, var_prefix="u"),
                                 L_x, L_u, grid)
        c3 = reports[2]
        assert c3.max_residual == pytest.approx(4.0, abs=1e-12)
        X, U = c3.points["x"], c3.points["u"]
        sel = np.flatnonzero(
            np.isclose(X[:, 0], 0.0) & np.isclose(X[:, 1], 1.0)
            & np.isclose(U[:, 0], 1.0)
        )[0]
        assert c3.residuals[sel] == pytest.approx(2.0, abs=1e-12)

    def test_restricted_input_evaluation(self):
        # T2-C2 uses the state Jacobian frozen at the origin, so for a
        # quadratic dictionary only the coordinate rows respond to u
        system = builtin_system("linear")
        dict_x = monomials(2, 2)
        L_u = np.zeros((6, 1))
        reports = check_theorem2(system, dict_x, identity(1, var_prefix="u"),
                                 np.zeros((6, 6)), L_u, default_grid(system))
        expected = np.abs(default_grid(system).inputs).ravel()
        assert reports[1].residuals == pytest.approx(expected, abs=1e-14)

    def test_hypothesis_f_u_at_zero(self):
        system = ControlledSystem(
            "offset", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u + 1.0,
            f_xu=lambda x, u: np.zeros(1),
        )
        with pytest.raises(HypothesisViolationError, match=r"f_u\(0\) = 0"):
            check_theorem2(system, identity(1), identity(1, var_prefix="u"),
                           [[-1.0]], [[1.0]], default_grid(system))

    def test_hypothesis_cross_vanishes_on_axes(self):
        system = ControlledSystem(
            "bad-cross", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: np.zeros(1),
            f_xu=lambda x, u: x * (u + 1.0),
        )
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, 0\) = 0"):
            check_theorem2(system, identity(1), identity(1, var_prefix="u"),
                           [[-1.0]], [[0.0]], default_grid(system))

    def test_hypothesis_input_dictionary_at_zero(self):
        system = builtin_system("linear")
        with pytest.raises(HypothesisViolationError, match=r"psi_u\(0\) = 0"):
            check_theorem2(system, identity(2), monomials(1, 1, var_prefix="u"),
                           np.zeros((2, 2)), np.zeros((2, 2)), default_grid(system))

    def test_discrete_system_rejected(self):
        dsys = bilinear_discrete(0.9, 0.1)
        with pytest.raises(ValueError, match="continuous"):
            check_theorem2(dsys, identity(1), identity(1, var_prefix="u"),
                           [[0.9]], [[0.1]], default_grid(dsys))


class TestCorollary1:
    def test_bilinear_cross_field(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        report = check_corollary1(system, identity(1), default_grid(system))
        assert report.condition == "COR1-FXU"
        assert report.max_residual == pytest.approx(2.0, abs=1e-9)
        assert report.verdict == "inconsistent"
        X, U = report.points["x"], report.points["u"]
        sel = np.flatnonzero(np.isclose(X[:, 0], 1.0) & np.isclose(U[:, 0], 1.0))[0]
        assert report.residuals[sel] == pytest.approx(1.0, abs=1e-12)
        assert abs(report.argmax_point["x"][0]) == pytest.approx(2.0)
        assert abs(report.argmax_point["u"][0]) == pytest.approx(1.0)

    def test_no_cross_term_consistent(self):
        system = builtin_system("duffing-forced", delta=0.5)
        report = check_corollary1(system, identity(2), default_grid(system, points_per_axis=5))
        assert report.max_residual == 0.0
        assert report.verdict == "consistent"

    def test_state_inclusive_required(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        lifted = rbf(dim=1, n_centers=4, region=[(-2.0, 2.0)], seed=0)
        with pytest.raises(ValueError, match="state-inclusive"):
            check_corollary1(system, lifted, default_grid(system))


class TestCorollary2:
    def test_constant_jacobian_consistent(self):
        system = builtin_system("linear")
        report = check_corollary2(system, identity(2), default_grid(system))
        assert report.condition == "COR2-PAIRWISE"
        assert report.n_points == 200
        assert set(report.points) == {"x1", "x2", "u"}
        assert report.max_residual == 0.0

    def test_quadratic_observable_defect_at_known_pair(self):
        system = builtin_system("duffing-forced", delta=0.5)
        grid = EvaluationGrid(
            states=np.array([[0.0, 1.0], [0.0, 0.0]]), inputs=np.array([[1.0]])
        )
        report = check_corollary2(
            system, monomials(2, 2, include_constant=False), grid, n_pairs=50
        )
        # the x2^2 row differs by (0, 2) between the two states; against
        # f_u = (0, u) with u = 1 that is a defect of exactly 2
        assert report.max_residual == pytest.approx(2.0, abs=1e-12)
        assert 0.0 < report.mean_residual < 2.0

    def test_seeded_sampling_is_deterministic(self):
        system = builtin_system("duffing-forced", delta=0.5)
        dict_x = monomials(2, 2, include_constant=False)
        grid = default_grid(system, points_per_axis=5)
        r1 = check_corollary2(system, dict_x, grid, seed=7)
        r2 = check_corollary2(system, dict_x, grid, seed=7)
        assert np.array_equal(r1.residuals, r2.residuals)
        assert np.array_equal(r1.points["x1"], r2.points["x1"])

    def test_cross_term_hypothesis(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, u\) = 0"):
            check_corollary2(system, identity(1), default_grid(system))


class TestCorollary3:
    def test_linear_exact_all_four(self):
        # the affine conditions: the inherited COR1/COR2 from their own checkers, and COR3's two
        system = builtin_system("linear")
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        grid = default_grid(system)
        kma = check_corollary3_kma(system, identity(2), A, B, grid)
        assert [r.condition for r in kma] == ["COR3-KMA-B", "COR3-KMA-L"]
        reports = [check_corollary1(system, identity(2), grid),
                   check_corollary2(system, identity(2), grid), *kma]
        for r in reports:
            assert r.max_residual <= 1e-13
            assert r.verdict == "consistent"

    def test_cross_term_skips_pairwise(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        grid = default_grid(system)
        reports = check_corollary3_kma(system, identity(1), [[-1.0]], [[0.0]], grid)
        assert [r.condition for r in reports] == ["COR3-KMA-B", "COR3-KMA-L"]
        # the x-only and u-only parts of the bilinear field are affine-exact
        for r in reports:
            assert r.max_residual <= 1e-13
            assert r.note is None
        # the cross term fails COR1 and the pairwise hypothesis, in their own checkers
        assert check_corollary1(system, identity(1), grid).max_residual == pytest.approx(
            2.0, abs=1e-9)
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, u\) = 0"):
            check_corollary2(system, identity(1), grid)

    def test_nonlinear_input_response_defect(self):
        system = ControlledSystem(
            "cubic-input", "continuous", 1, 1,
            f_x=lambda x: -x,
            f_u=lambda u: u**3 + u,
            f_xu=lambda x, u: np.zeros(1),
            jac_fx=lambda x: np.array([[-1.0]]),
            jac_fu=lambda u: np.array([[3.0 * u[0] ** 2 + 1.0]]),
            jac_fxu_x=lambda x, u: np.zeros((1, 1)),
            jac_fxu_u=lambda x, u: np.zeros((1, 1)),
        )
        kma_b, kma_l = check_corollary3_kma(
            system, identity(1), [[-1.0]], [[1.0]], default_grid(system)
        )
        assert kma_b.condition == "COR3-KMA-B"
        assert kma_b.max_residual == pytest.approx(3.0, abs=1e-12)
        assert kma_b.verdict == "inconsistent"
        assert kma_l.max_residual <= 1e-13

    def test_state_inclusive_required(self):
        system = builtin_system("linear")
        lifted = rbf(dim=2, n_centers=5, region=[(-2, 2), (-2, 2)], seed=1)
        with pytest.raises(ValueError, match="state-inclusive"):
            check_corollary3_kma(system, lifted, np.eye(5), np.zeros((5, 1)),
                                 default_grid(system))

    def test_cross_term_evaluated_once_per_product_point(self):
        # in one check_model call the COR1 field settles the pairwise hypothesis;
        # it is not re-evaluated
        calls = []

        def f_xu(x, u):
            calls.append((x, u))
            return np.zeros(1)

        system = ControlledSystem("counted", "continuous", 1, 1,
                                  f_x=lambda x: -x, f_u=lambda u: u, f_xu=f_xu)
        grid = default_grid(system, points_per_axis=3)
        model = AffineModel(identity(1), [[-1.0]], [[1.0]], "continuous")
        ids = ["COR1-FXU", "COR2-PAIRWISE", "COR3-KMA-B", "COR3-KMA-L"]
        reports, _ = check_model(system, model, grid, conditions=ids)
        assert [r.condition for r in reports] == [
            "COR1-FXU", "COR2-PAIRWISE", "COR3-KMA-B", "COR3-KMA-L"
        ]
        assert len(calls) == 9


class TestTheorem3:
    def test_bilinear_exact(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        reports = check_theorem3(
            system, identity(1), xu_joint_dict(), [[-1.0]], [[1.0]],
            default_grid(system),
        )
        assert [r.condition for r in reports] == ["T3-C1", "T3-C2"]
        for r in reports:
            assert r.max_residual <= 1e-13
            assert r.verdict == "consistent"

    def test_wrong_cross_operator_detected(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        reports = check_theorem3(
            system, identity(1), xu_joint_dict(), [[-1.0]], [[0.0]],
            default_grid(system),
        )
        assert reports[1].max_residual == pytest.approx(2.0, abs=1e-12)

    def test_additive_input_folds_into_cross(self):
        # f_u = B u is carried by the cross pair (psi_xu = u, L_xu = B)
        system = builtin_system("linear")
        dict_xu = build_joint_dictionary(2, 1, 0, 1)
        reports = check_theorem3(
            system, identity(2), dict_xu,
            np.array([[-1.0, 0.0], [0.0, -2.0]]), np.array([[1.0], [1.0]]),
            default_grid(system),
        )
        for r in reports:
            assert r.max_residual <= 1e-13

    def test_cross_dictionary_hypothesis(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        bad = CallableJointDictionary(
            1, 1, ["x1*u1+1"],
            lambda x, u: np.array([x[0] * u[0] + 1.0]),
            lambda x, u: np.array([[u[0]]]),
            lambda x, u: np.array([[x[0]]]),
        )
        with pytest.raises(HypothesisViolationError, match=r"psi_xu\(x, 0\) = 0"):
            check_theorem3(system, identity(1), bad, [[-1.0]], [[1.0]],
                           default_grid(system))


class TestKaiser:
    def test_slow_manifold_exact_on_zero_input_slice(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        grid = default_grid(system).autonomous()
        report = check_kaiser(system, slow_manifold_eigendict(), [MU, LAM], grid)
        assert report.condition == "KAISER"
        assert report.max_residual <= 1e-12
        assert report.verdict == "consistent"

    def test_additive_input_breaks_eigenpair_off_slice(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        report = check_kaiser(
            system, slow_manifold_eigendict(), [MU, LAM], default_grid(system)
        )
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_eigenvalue_detected(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        grid = default_grid(system).autonomous()
        report = check_kaiser(
            system, slow_manifold_eigendict(), [MU, LAM + 0.1], grid
        )
        # defect 0.1 * |phi2|, maximal at x1 = +-2, x2 = -2
        assert report.max_residual == pytest.approx(0.1 * (2.0 + 4.0 * B_SLOW), abs=1e-9)
        assert report.max_residual >= 0.05
        assert report.verdict == "inconsistent"

    def test_diagonal_matrix_accepted_vector_equivalent(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        grid = default_grid(system, points_per_axis=3).autonomous()
        d = slow_manifold_eigendict()
        r_vec = check_kaiser(system, d, [MU, LAM], grid)
        r_mat = check_kaiser(system, d, np.diag([MU, LAM]), grid)
        assert np.array_equal(r_vec.residuals, r_mat.residuals)

    def test_off_diagonal_rejected(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        for entry in (0.5, np.nan, np.inf):  # a NaN entry is not zero either
            bad = np.array([[MU, entry], [0.0, LAM]])
            with pytest.raises(ValueError, match="diagonal"):
                check_kaiser(system, slow_manifold_eigendict(), bad, default_grid(system))

    def test_eigenvalue_count_mismatch(self):
        system = builtin_system("slow-manifold", mu=MU, lam=LAM)
        with pytest.raises(ValueError, match="one eigenvalue per"):
            check_kaiser(system, slow_manifold_eigendict(), [MU], default_grid(system))

    def test_joint_eigendict_transport_cancels(self):
        system = builtin_system("bilinear-scalar", a=MU, b=0.0)
        eigendict = CallableJointDictionary(
            1, 1, ["x1*u1"],
            lambda x, u: np.array([x[0] * u[0]]),
            lambda x, u: np.array([[u[0]]]),
            lambda x, u: np.array([[x[0]]]),
        )
        report = check_kaiser(system, eigendict, [MU], default_grid(system))
        assert report.max_residual <= 1e-14


class TestTheorem4:
    def test_discretized_linear_fitted_exact(self):
        system = builtin_system("linear")
        data = generate_dataset(system, 300, seed=3, dt=0.1, kind="discrete-pairs")
        model = fit_affine(data, identity(2))
        dsys = discretize(system, 0.1)
        reports = check_theorem4(
            dsys, identity(2), identity(1, var_prefix="u"), model.K, model.B,
            default_grid(dsys, points_per_axis=5),
        )
        assert [r.condition for r in reports] == ["T4-C1", "T4-C2", "T4-C3", "T4-C4"]
        for r in reports:
            assert r.max_residual <= 1e-8
            assert r.verdict == "consistent"

    def test_bilinear_discrete_cross_defects(self):
        system = bilinear_discrete(0.9, 0.1)
        reports = check_theorem4(
            system, identity(1), identity(1, var_prefix="u"),
            [[0.9]], [[0.0]], default_grid(system),
        )
        c1, c2, c3, c4 = reports
        assert c1.max_residual <= 1e-14
        assert c2.max_residual <= 1e-14
        # d f_xu/du = 0.1 x and d f_xu/dx = 0.1 u on the default box
        assert c3.max_residual == pytest.approx(0.2, abs=1e-12)
        assert c4.max_residual == pytest.approx(0.1, abs=1e-12)
        assert c3.verdict == "inconsistent"
        assert c4.verdict == "inconsistent"

    def test_continuous_system_rejected(self):
        system = builtin_system("linear")
        with pytest.raises(ValueError, match="discrete"):
            check_theorem4(system, identity(2), identity(1, var_prefix="u"),
                           np.eye(2), np.zeros((2, 1)), default_grid(system))


class TestCorollary4:
    def test_bilinear_discrete_field_and_details(self):
        system = bilinear_discrete(0.9, 0.1)
        report = check_corollary4(system, identity(1), default_grid(system))
        assert report.condition == "COR4-FXU"
        assert report.max_residual == pytest.approx(0.2, abs=1e-12)
        assert report.details["max_cross_jac_x"] == pytest.approx(0.1, abs=1e-12)
        assert report.details["max_cross_jac_u"] == pytest.approx(0.2, abs=1e-12)

    def test_discretization_induced_cross_term_small(self):
        system = builtin_system("duffing-forced", delta=0.5)
        grid_kwargs = dict(points_per_axis=5)
        r_coarse = check_corollary4(
            discretize(system, 0.1), identity(2),
            default_grid(discretize(system, 0.1), **grid_kwargs),
        )
        # the RK4 map mixes state and input at third order in dt here: the
        # second-order cross term (Df_x(x) - Df_x(0)) B u is state-independent
        # for this field and folds into f_u, so halving dt shrinks it ~8x
        assert 1e-5 < r_coarse.max_residual < 1e-2
        r_fine = check_corollary4(
            discretize(system, 0.05), identity(2),
            default_grid(discretize(system, 0.05), **grid_kwargs),
        )
        ratio = r_coarse.max_residual / r_fine.max_residual
        assert 6.0 < ratio < 11.0

    def test_continuous_rejected_and_inclusivity(self):
        csys = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        with pytest.raises(ValueError, match="discrete"):
            check_corollary4(csys, identity(1), default_grid(csys))
        dsys = bilinear_discrete(0.9, 0.1)
        lifted = rbf(dim=1, n_centers=3, region=[(-2, 2)], seed=0)
        with pytest.raises(ValueError, match="state-inclusive"):
            check_corollary4(dsys, lifted, default_grid(dsys))


class TestCorollary5:
    def test_constant_jacobian_consistent(self):
        system = discretize(builtin_system("linear"), 0.1)
        reports = check_corollary5(system, identity(2), default_grid(system, points_per_axis=5))
        assert [r.condition for r in reports] == ["COR5-PAIRWISE-U", "COR5-PAIRWISE-X"]
        for r in reports:
            assert r.max_residual <= 1e-12

    def test_quadratic_map_defects(self):
        system = scalar_discrete(
            lambda x: x**2, lambda u: u.copy(),
            lambda x: np.array([[2.0 * x[0]]]), lambda u: np.array([[1.0]]),
        )
        grid = EvaluationGrid(
            states=np.array([[0.0], [1.0]]), inputs=np.array([[0.0], [1.0]])
        )
        ru, rx = check_corollary5(
            system, monomials(1, 2, include_constant=False), grid, n_pairs=200
        )
        assert set(ru.points) == {"x1", "x2", "u1"}
        assert set(rx.points) == {"x1", "u1", "u2"}
        # x^2 row: next-state Jacobians differ by 2(x1^2 - x2^2) against
        # df_u/du = 1, and by 2(u1 - u2) against df_x/dx = 2 x1
        assert ru.max_residual == pytest.approx(2.0, abs=1e-12)
        assert rx.max_residual == pytest.approx(4.0, abs=1e-12)

    def test_cross_term_hypothesis(self):
        system = bilinear_discrete(0.9, 0.1)
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, u\) = 0"):
            check_corollary5(system, identity(1), default_grid(system))

    def test_pairs_match_per_point_next_jacobians(self):
        # the pairs are read off the product's next-state Jacobians; four states and
        # three inputs, so a wrong product row cannot pass
        system = discretize(builtin_system("linear"), 0.1)
        grid = EvaluationGrid(np.array([[-1.5, 0.4], [-0.3, 1.2], [0.7, -0.8], [1.6, 0.9]]),
                              np.array([[-0.9], [0.35], [1.1]]))
        dx = monomials(2, 2)
        ru, rx = check_corollary5(system, dx, grid, n_pairs=40, seed=3)

        def J_next(x, u):
            return dx.jacobian(system.evaluate(x, u))

        pu, px = ru.points, rx.points
        np.testing.assert_allclose(ru.residuals, [
            np.max(np.abs((J_next(x1, u1) - J_next(x2, u1)) @ system.jacobian_fu(u1)))
            for x1, x2, u1 in zip(pu["x1"], pu["x2"], pu["u1"])], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rx.residuals, [
            np.max(np.abs((J_next(x1, u1) - J_next(x1, u2)) @ system.jacobian_fx(x1)))
            for x1, u1, u2 in zip(px["x1"], px["u1"], px["u2"])], rtol=1e-12, atol=1e-12)
        assert rx.max_residual > 1e-3  # the quadratic rows see the input


class TestCorollary6:
    def test_discretized_linear_exact(self):
        system = builtin_system("linear")
        data = generate_dataset(system, 300, seed=3, dt=0.1, kind="discrete-pairs")
        model = fit_affine(data, identity(2))
        dsys = discretize(system, 0.1)
        grid = default_grid(dsys, points_per_axis=5)
        reports = check_corollary6(dsys, identity(2), model.K, model.B, grid)
        assert [r.condition for r in reports] == ["COR6-B"]
        # the inherited COR4 comes from its own checker
        for r in [check_corollary4(dsys, identity(2), grid), *reports]:
            assert r.max_residual <= 1e-9
            assert r.verdict == "consistent"

    def test_quadratic_observable_needs_state_dependent_input_row(self):
        system = scalar_discrete(
            lambda x: 0.9 * x, lambda u: 0.1 * u,
            lambda x: np.array([[0.9]]), lambda u: np.array([[0.1]]),
        )
        B = np.array([[0.1], [0.0]])
        [cor6] = check_corollary6(
            system, monomials(1, 2, include_constant=False), [[0.9, 0.0], [0.0, 0.81]],
            B, default_grid(system),
        )
        # the x^2 row wants 2*(0.9x + 0.1u)*0.1, maximal at x=2, u=1
        assert cor6.max_residual == pytest.approx(0.38, abs=1e-12)
        assert cor6.verdict == "inconsistent"

    def test_cubic_input_response_defect(self):
        system = scalar_discrete(
            lambda x: 0.9 * x, lambda u: u**3,
            lambda x: np.array([[0.9]]), lambda u: np.array([[3.0 * u[0] ** 2]]),
        )
        [cor6] = check_corollary6(
            system, identity(1), [[0.9]], [[0.0]], default_grid(system)
        )
        assert cor6.max_residual == pytest.approx(3.0, abs=1e-12)
        assert abs(cor6.argmax_point["u"][0]) == pytest.approx(1.0)


class TestTheorem5:
    def setup_method(self):
        self.system = bilinear_discrete(0.9, 0.1)
        self.dict_x = identity(1)
        self.dict_xu = xu_joint_dict()

    def test_bilinear_exact_all_variants(self):
        reports = check_theorem5(
            self.system, self.dict_x, self.dict_xu, [[0.9]], [[0.1]],
            default_grid(self.system),
        )
        assert [r.condition for r in reports] == [
            "T5-C1", "T5-C2", "COR7-C1", "COR7-C2", "COR8-C1", "COR8-C2"
        ]
        for r in reports:
            assert r.max_residual <= 1e-13
            assert r.verdict == "consistent"

    def test_wrong_cross_operator_hits_input_conditions_only(self):
        reports = check_theorem5(
            self.system, self.dict_x, self.dict_xu, [[0.9]], [[0.0]],
            default_grid(self.system),
        )
        by_id = {r.condition: r for r in reports}
        for cid in ("T5-C1", "COR7-C1", "COR8-C1"):
            assert by_id[cid].max_residual <= 1e-13
        for cid in ("T5-C2", "COR7-C2", "COR8-C2"):
            assert by_id[cid].max_residual == pytest.approx(0.2, abs=1e-12)

    def test_t5_and_cor7_agree_under_hypothesis(self):
        reports = check_theorem5(
            self.system, self.dict_x, self.dict_xu, [[0.7]], [[0.3]],
            default_grid(self.system, points_per_axis=5),
        )
        by_id = {r.condition: r for r in reports}
        assert np.allclose(
            by_id["T5-C1"].residuals, by_id["COR7-C1"].residuals, atol=1e-14
        )
        assert np.array_equal(
            by_id["T5-C2"].residuals, by_id["COR7-C2"].residuals
        )

    def test_cross_dictionary_hypothesis_drops_variants(self):
        bad = CallableJointDictionary(
            1, 1, ["x1*u1+x1"],
            lambda x, u: np.array([x[0] * u[0] + x[0]]),
            lambda x, u: np.array([[u[0] + 1.0]]),
            lambda x, u: np.array([[x[0]]]),
        )
        reports = check_theorem5(
            self.system, self.dict_x, bad, [[0.9]], [[0.1]],
            default_grid(self.system),
        )
        assert [r.condition for r in reports] == ["T5-C1", "T5-C2"]
        for r in reports:
            assert "COR7/COR8" in r.note
            assert "psi_xu(x, 0)" in r.note

    def test_continuous_system_rejected(self):
        csys = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        with pytest.raises(ValueError, match="discrete"):
            check_theorem5(csys, self.dict_x, self.dict_xu, [[0.9]], [[0.1]],
                           default_grid(csys))


class TestSummarize:
    def _mixed_reports(self):
        bil = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        grid = default_grid(bil, points_per_axis=3)
        r_cor1 = check_corollary1(bil, identity(1), grid)
        r_t3 = check_theorem3(bil, identity(1), xu_joint_dict(), [[-1.0]], [[1.0]], grid)
        return [r_t3[1], r_cor1, r_t3[0]]

    def test_rows_follow_canonical_order(self):
        summary = summarize(self._mixed_reports())
        assert [r.condition for r in summary.reports] == ["COR1-FXU", "T3-C1", "T3-C2"]
        order = {cid: i for i, cid in enumerate(CONDITION_IDS)}
        indices = [order[r.condition] for r in summary.reports]
        assert indices == sorted(indices)

    def test_overall_verdict_and_qualifier(self):
        summary = summarize(self._mixed_reports())
        assert summary.overall_verdict == "inconsistent"
        assert "does not establish" in summary.qualifier
        text = summary.to_text()
        assert "overall: inconsistent" in text
        assert NECESSITY_QUALIFIER in text

    def test_all_consistent_overall(self):
        bil = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        grid = default_grid(bil, points_per_axis=3)
        reports = check_theorem3(bil, identity(1), xu_joint_dict(), [[-1.0]], [[1.0]], grid)
        assert summarize(reports).overall_verdict == "consistent"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])


class TestSerialization:
    def _reports(self):
        system = bilinear_discrete(0.9, 0.1)
        reports = check_theorem5(system, identity(1), xu_joint_dict(),
                                 [[0.9]], [[0.0]], default_grid(system, points_per_axis=3))
        reports.append(check_corollary4(system, identity(1),
                                        default_grid(system, points_per_axis=3)))
        return reports

    def test_json_round_trip(self, tmp_path):
        reports = self._reports()
        path = write_reports_json(reports, tmp_path / "reports.json")
        loaded = read_reports_json(path)
        assert len(loaded) == len(reports)
        for orig, back in zip(reports, loaded):
            assert back.condition == orig.condition
            assert back.tolerance == orig.tolerance
            assert back.verdict == orig.verdict
            assert np.array_equal(back.residuals, orig.residuals)
            for role in orig.points:
                assert np.array_equal(back.points[role], orig.points[role])
            assert back.note == orig.note
            assert back.details == orig.details

    def test_json_schema_version_checked(self, tmp_path):
        path = write_reports_json(self._reports(), tmp_path / "reports.json")
        doc = path.read_text().replace(f'"schema_version": {REPORT_SCHEMA_VERSION}',
                                       '"schema_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="schema_version"):
            read_reports_json(path)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "reports document must be a JSON object, got list"),
        ('{"schema_version": 2, "rep', "not a JSON document"),
    ])
    def test_document_that_is_not_an_object_is_named(self, tmp_path, text, message):
        path = tmp_path / "reports.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"reports.json: {message}"):
            read_reports_json(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        reports = self._reports()
        system = bilinear_discrete(0.9, 0.1)
        provenance = report_provenance(system, default_grid(system, points_per_axis=3),
                                       1e-6, 0)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            write_reports_json(reports, tmp_path / d / "reports.json",
                               [("COR6", "a reason")], provenance)
        for name in ("reports.json", "reports.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summaries_in_json_fields_in_sidecar(self, tmp_path):
        reports = self._reports()
        system = bilinear_discrete(0.9, 0.1)
        grid = default_grid(system, points_per_axis=3)
        path = write_reports_json(reports, tmp_path / "reports.json",
                                  [("COR6", "a reason")],
                                  report_provenance(system, grid, 1e-6, 5))
        doc = json.loads(path.read_text())
        assert doc["sidecar"] == "reports.npz"
        assert doc["skipped"] == [["COR6", "a reason"]]
        prov = doc["provenance"]
        assert prov["system"] == {"name": system.name, "time_kind": "discrete",
                                  "dt": system.dt}
        assert prov["grid"] == {"states": [3, 1], "inputs": [3, 1], "n_points": 9}
        assert (prov["tolerance"], prov["pairwise_seed"]) == (1e-6, 5)
        assert prov["numpy"] == np.__version__ and isinstance(prov["kooplab"], str)
        for d, r in zip(doc["reports"], reports):
            assert (d["condition"], d["verdict"], d["n_points"]) == (
                r.condition, r.verdict, r.n_points)
            assert d["max_residual"] == r.max_residual
        # 7 reports name 11 points arrays: the grid states and the (x, u) product
        roles = {name for d in doc["reports"] for name in d["points"].values()}
        with np.load(tmp_path / "reports.npz", allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(
                [d["residual_field"] for d in doc["reports"]] + list(roles))
            assert len(roles) == 3
            first = doc["reports"][0]
            assert np.array_equal(npz[first["residual_field"]], reports[0].residuals)

    @staticmethod
    def _sidecar_member_by_member(reports, path):
        """The reference sidecar: each member written into the open file in turn."""
        members, point_members = {}, {}
        for i, r in enumerate(reports):
            members[f"residual_{i}"] = r.residuals
            for arr in r.points.values():
                key = (arr.shape, arr.tobytes())
                if key not in point_members:
                    point_members[key] = f"points_{len(point_members)}"
                    members[point_members[key]] = arr
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name, arr in members.items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
                zf.writestr(zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0)),
                            buf.getvalue())
        return len(point_members)

    def test_sidecar_equals_the_member_by_member_reference(self, tmp_path):
        # the bilinear-fine-grid workload's joint model, on a coarser grid
        system = bilinear_discrete(0.9, 0.1)
        model = fit_joint(generate_dataset(system, 200, seed=3),
                          monomials(1, 3, include_constant=False),
                          build_joint_dictionary(1, 1, 3, 1))
        reports, skipped = check_model(system, model, default_grid(system, points_per_axis=12))
        write_reports_json(reports, tmp_path / "reports.json", skipped)
        n_points = self._sidecar_member_by_member(reports, tmp_path / "reference.npz")
        assert n_points < sum(len(r.points) for r in reports)  # reports share points
        assert (tmp_path / "reports.npz").read_bytes() == (tmp_path / "reference.npz").read_bytes()

    def test_v1_document_still_loads(self, tmp_path):
        reports = self._reports()
        v1 = {
            "schema_version": 1,
            "qualifier": NECESSITY_QUALIFIER,
            "reports": [{**r.to_dict(),
                         "points": {k: v.tolist() for k, v in r.points.items()},
                         "residual_field": r.residuals.tolist()} for r in reports],
        }
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(v1, indent=2, sort_keys=True) + "\n")
        loaded = read_reports_json(path)
        assert [r.condition for r in loaded] == [r.condition for r in reports]
        for orig, back in zip(reports, loaded):
            assert np.array_equal(back.residuals.view(np.int64), orig.residuals.view(np.int64))
            for role in orig.points:
                assert np.array_equal(back.points[role], orig.points[role])

    def test_missing_sidecar_named(self, tmp_path):
        path = write_reports_json(self._reports(), tmp_path / "reports.json")
        (tmp_path / "reports.npz").unlink()
        with pytest.raises(ValueError, match="reports.npz"):
            read_reports_json(path)

    def test_missing_member_named(self, tmp_path):
        path = write_reports_json(self._reports(), tmp_path / "reports.json")
        path.write_text(path.read_text().replace('"residual_1"', '"residual_99"'))
        with pytest.raises(ValueError, match="residual_99"):
            read_reports_json(path)

    def test_sidecar_from_other_reports_rejected(self, tmp_path):
        path = write_reports_json(self._reports(), tmp_path / "reports.json")
        system = bilinear_discrete(0.9, 0.1)
        other = check_corollary4(system, identity(1), default_grid(system, points_per_axis=4))
        write_reports_json([other] * 3, tmp_path / "other.json")
        (tmp_path / "other.npz").replace(tmp_path / "reports.npz")
        with pytest.raises(ValueError, match="residual_0' has 16 values for 3 points"):
            read_reports_json(path)

    def test_csv_round_trip(self, tmp_path):
        reports = self._reports()
        summary = summarize(reports)
        path = write_summary_csv(summary, tmp_path / "summary.csv")
        rows = read_summary_csv(path)
        assert [r["condition"] for r in rows] == [r.condition for r in summary.reports]
        for row, rep in zip(rows, summary.reports):
            assert row["max_residual"] == rep.max_residual  # repr round-trips exactly
            assert row["mean_residual"] == rep.mean_residual
            assert row["verdict"] == rep.verdict
            assert row["tolerance"] == rep.tolerance
            for role, val in rep.argmax_point.items():
                assert row["argmax"][role] == pytest.approx(val, abs=0)


class TestGridRefinement:
    def test_max_residual_monotone_under_refinement(self):
        bil = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        maxima = []
        for pts in (5, 9, 17):
            grid = default_grid(bil, points_per_axis=pts)
            maxima.append(check_corollary1(bil, identity(1), grid).max_residual)
        assert maxima[0] <= maxima[1] <= maxima[2]

        duff = builtin_system("duffing-forced", delta=0.5)
        dict_x = monomials(2, 2, include_constant=False)
        t2_max = []
        for pts in (3, 5, 9):
            grid = default_grid(duff, points_per_axis=pts)
            reports = check_theorem2(duff, dict_x, identity(1, var_prefix="u"),
                                     np.zeros((5, 5)), np.zeros((5, 1)), grid)
            t2_max.append(reports[2].max_residual)
        assert t2_max[0] <= t2_max[1] <= t2_max[2]


class TestPerPointReference:
    """The broadcast residual fields against per-point evaluation of their formulas.

    Four states and three inputs, so a per-state/per-input broadcast mix-up
    cannot pass; the expected fields loop over the product in state-major order.
    """

    STATES = np.array([[-1.5, 0.4], [-0.3, 1.2], [0.7, -0.8], [1.6, 0.9]])
    INPUTS = np.array([[-0.9], [0.35], [1.1]])

    @staticmethod
    def system():
        return ControlledSystem(
            "cross-2d", "continuous", 2, 1,
            f_x=lambda x: np.array([x[1], -x[0] - x[0] ** 3]),
            f_u=lambda u: np.array([0.0, u[0] + u[0] ** 2]),
            f_xu=lambda x, u: np.array([x[0] * u[0], x[1] * u[0] ** 2]),
        )

    def grid(self):
        return EvaluationGrid(self.STATES, self.INPUTS)

    def product(self):
        return [(x, u) for x in self.STATES for u in self.INPUTS]

    def assert_field(self, report, expected):
        X, U = (np.array(a) for a in zip(*self.product()))
        np.testing.assert_array_equal(report.points["x"], X)
        np.testing.assert_array_equal(report.points["u"], U)
        np.testing.assert_allclose(report.residuals, expected, rtol=1e-12, atol=1e-12)

    def test_continuous_fields(self):
        rng = np.random.default_rng(11)
        system, grid = self.system(), self.grid()
        dx, du = monomials(2, 2), monomials(1, 2, include_constant=False, var_prefix="u")
        dxu = build_joint_dictionary(2, 1, 1, 1)
        J0 = dx.jacobian(np.zeros(2))
        L_x, L_u, L_xu = (rng.normal(size=(dx.size, k)) for k in (dx.size, du.size, dxu.size))

        t2c3 = check_theorem2(system, dx, du, L_x, L_u, grid)[2]
        self.assert_field(t2c3, [
            np.max(np.abs((dx.jacobian(x) - J0) @ system.f_u(u)
                          + dx.jacobian(x) @ system.f_xu(x, u)))
            for x, u in self.product()])

        t3c2 = check_theorem3(system, dx, dxu, L_x, L_xu, grid)[1]
        self.assert_field(t3c2, [
            np.max(np.abs(dx.jacobian(x) @ (system.f_u(u) + system.f_xu(x, u))
                          - L_xu @ dxu.evaluate(x, u)))
            for x, u in self.product()])

        eig = monomials(2, 2, include_constant=False)
        lam = rng.normal(size=eig.size)
        kaiser = check_kaiser(system, eig, lam, grid)
        self.assert_field(kaiser, [
            np.max(np.abs(eig.jacobian(x) @ system.evaluate(x, u) - lam * eig.evaluate(x)))
            for x, u in self.product()])

    def test_discrete_fields(self):
        rng = np.random.default_rng(12)
        system, grid = discretize(self.system(), 0.1), self.grid()
        dx, du = monomials(2, 2), monomials(1, 2, include_constant=False, var_prefix="u")
        dxu = build_joint_dictionary(2, 1, 1, 1)
        x0, u0 = np.zeros(2), np.zeros(1)

        def J_next(x, u):
            return dx.jacobian(system.evaluate(x, u))

        K_x, K_u, K_xu, B = (rng.normal(size=(dx.size, k))
                             for k in (dx.size, du.size, dxu.size, 1))
        t4 = check_theorem4(system, dx, du, K_x, K_u, grid)
        self.assert_field(t4[2], [
            np.max(np.abs((J_next(x, u) - J_next(x0, u)) @ system.jacobian_fu(u)
                          + J_next(x, u) @ system.jacobian_fxu_u(x, u)))
            for x, u in self.product()])
        self.assert_field(t4[3], [
            np.max(np.abs((J_next(x, u) - J_next(x, u0)) @ system.jacobian_fx(x)
                          + J_next(x, u) @ system.jacobian_fxu_x(x, u)))
            for x, u in self.product()])

        [cor6] = check_corollary6(system, dx, K_x, B, grid)
        assert cor6.condition == "COR6-B"
        self.assert_field(cor6, [
            np.max(np.abs(J_next(x, u) @ system.jacobian_fu(u) - B))
            for x, u in self.product()])

        t5 = {r.condition: r for r in check_theorem5(system, dx, dxu, K_x, K_xu, grid)}
        self.assert_field(t5["T5-C2"], [
            np.max(np.abs(J_next(x, u) @ system.jacobian_u(x, u) - K_xu @ dxu.jacobian_u(x, u)))
            for x, u in self.product()])
        self.assert_field(t5["COR8-C2"], [
            np.max(np.abs(J_next(x, u) @ (system.jacobian_fu(u) + system.jacobian_fxu_u(x, u))
                          - K_xu @ dxu.jacobian_u(x, u)))
            for x, u in self.product()])


class TestNoPerRowEvaluation:
    """Dictionaries and systems are called once per stack, so the number of
    their calls in a check or a fit does not grow with the grid or the dataset."""

    SYSTEM_METHODS = ("evaluate", "f_x", "f_u", "f_xu", "jacobian_fx", "jacobian_fu",
                      "jacobian_fxu_x", "jacobian_fxu_u", "jacobian_x", "jacobian_u")

    @pytest.fixture
    def calls(self, monkeypatch):
        """Call counts by "Class.method"; calls.args lists (name, arguments) per call."""
        counts = Counter()
        counts.args = []
        targets = [(cls, ("evaluate", "jacobian", "jacobian_x", "jacobian_u"))
                   for cls in vars(observables).values() if isinstance(cls, type)
                   and issubclass(cls, (observables.Dictionary, observables.JointDictionary))]
        for cls, attrs in targets + [(ControlledSystem, self.SYSTEM_METHODS)]:
            for attr in attrs:
                if attr in vars(cls):
                    def counted(self, *args, _fn=vars(cls)[attr], _name=f"{cls.__name__}.{attr}"):
                        counts[_name] += 1
                        counts.args.append((_name, args))
                        return _fn(self, *args)
                    monkeypatch.setattr(cls, attr, counted)
        return counts

    @staticmethod
    def models():
        disc = generate_dataset(bilinear_discrete(0.9, 0.1), 100, seed=2)
        cont = generate_dataset(builtin_system("bilinear-scalar", a=-1.0, b=1.0), 100, seed=2)
        return [
            (bilinear_discrete(0.9, 0.1),
             fit_separable(disc, monomials(1, 2), identity(1, var_prefix="u"))),
            (builtin_system("bilinear-scalar", a=-1.0, b=1.0),
             fit_joint(cont, monomials(1, 2), build_joint_dictionary(1, 1, 1, 1))),
        ]

    def test_check_model_calls_do_not_grow_with_the_grid(self, calls):
        for system, model in self.models():
            per_grid = []
            for points in (3, 6):
                calls.clear()
                reports, _ = check_model(system, model, default_grid(system, points))
                assert reports
                per_grid.append(dict(calls))
            assert per_grid[0] == per_grid[1] != {}, model.variant

    def test_fit_calls_do_not_grow_with_the_data(self, calls):
        continuous = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        fits = {
            "affine": (bilinear_discrete(0.9, 0.1), lambda d: fit_affine(d, monomials(1, 2))),
            "separable": (bilinear_discrete(0.9, 0.1), lambda d: fit_separable(
                d, monomials(1, 2), identity(1, var_prefix="u"))),
            "joint": (continuous, lambda d: fit_joint(
                d, monomials(1, 2), build_joint_dictionary(1, 1, 1, 1))),
            "bilinear": (bilinear_discrete(0.9, 0.1), lambda d: fit_bilinear(
                d, monomials(1, 2), monomials(1, 1, var_prefix="u"))),
            "eigen": (continuous, lambda d: fit_eigen(d, build_joint_dictionary(1, 1, 1, 1))),
        }
        for variant, (system, fit) in fits.items():
            per_size = []
            for n in (50, 200):
                data = generate_dataset(system, n, seed=4)
                calls.clear()
                fit(data)
                per_size.append(dict(calls))
            assert per_size[0] == per_size[1] != {}, variant

    def test_check_model_evaluates_each_product_stack_once(self, calls):
        # the families of one check share their stacks: each system method runs at
        # most once on the (x, u) product, and J_psi_x at most once at f(x, u)
        system = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(system, 100, seed=2)
        grid = EvaluationGrid(np.linspace(-2.0, 2.0, 4)[:, None],
                              np.linspace(-1.0, 1.0, 3)[:, None])
        X = np.repeat(grid.states, 3, axis=0)
        F = system.evaluate(X, np.tile(grid.inputs, (4, 1)))
        models = {
            "separable": fit_separable(data, monomials(1, 2), identity(1, var_prefix="u")),
            "affine": fit_affine(data, monomials(1, 2)),
            "joint": fit_joint(data, monomials(1, 2), build_joint_dictionary(1, 1, 1, 1)),
            "bilinear": fit_bilinear(data, monomials(1, 2), monomials(1, 1, var_prefix="u")),
        }
        for variant, model in models.items():
            calls.args.clear()
            reports, _ = check_model(system, model, grid)
            assert reports
            on_product = Counter(
                name for name, args in calls.args if name.startswith("ControlledSystem.")
                and np.shape(args[0]) == X.shape and np.array_equal(args[0], X))
            assert on_product["ControlledSystem.evaluate"] == 1, variant
            assert max(on_product.values()) == 1, (variant, on_product)
            at_next = [name for name, args in calls.args
                       if np.shape(args[0]) == F.shape and np.array_equal(args[0], F)]
            assert at_next == ["Dictionary.jacobian"], variant


class TestOneRK4PassPerPointSet:
    """A check of a discretized system takes each RK4 step, and each tangent
    pass, once per point set it asks about: the flow's field runs four times
    per distinct point set, and its tangents once per point set whose
    Jacobians are read."""

    @pytest.fixture
    def asked(self, monkeypatch):
        """The point sets the map is asked to step ("step") or differentiate ("tangent")."""
        from kooplab import dynamics

        sets = {"step": set(), "tangent": set()}
        for kind, attr in (("step", "_step"), ("tangent", "_jac")):
            def asking(self, X, U, _real=getattr(dynamics._RK4Map, attr), _kind=kind):
                sets[_kind].add((X.shape, U.shape, X.tobytes(), U.tobytes()))
                return _real(self, X, U)
            monkeypatch.setattr(dynamics._RK4Map, attr, asking)
        return sets

    def test_check_model_takes_each_pass_once(self, asked):
        from kooplab.dynamics import _RK4Map

        data = generate_dataset(discretize(builtin_system("duffing-forced", delta=0.3), 0.05),
                                200, seed=1)
        dx, du = monomials(2, 2), identity(1, var_prefix="u")
        models = {"affine": fit_affine(data, dx), "separable": fit_separable(data, dx, du),
                  "joint": fit_joint(data, dx, build_joint_dictionary(2, 1, 1, 1)),
                  "bilinear": fit_bilinear(data, dx, monomials(1, 1, var_prefix="u"))}
        for variant, model in models.items():
            flow = builtin_system("duffing-forced", delta=0.3)
            calls = Counter()
            field, tangents = flow._map, flow._tangents
            flow._map = lambda X, U: calls.update(["field"]) or field(X, U)
            flow._tangents = lambda X, U: calls.update(["tangents"]) or tangents(X, U)
            for kind in asked:
                asked[kind].clear()
            system = discretize(flow, 0.05)
            reports, _ = check_model(system, model, default_grid(system, points_per_axis=3))
            assert reports, variant
            point_sets = asked["step"] | asked["tangent"]
            assert asked["tangent"] and len(point_sets) <= _RK4Map.MEMO_SIZE, variant
            assert calls == {"field": 4 * len(point_sets),
                             "tangents": len(asked["tangent"])}, variant

    def test_origin_is_stepped_on_one_row(self, asked):
        # the axis point sets (x,0) and (0,u) are grids of their own, so Phi(0, 0) in
        # f_u is one row that the grid broadcasts, never a stack of copies of the origin
        system = discretize(builtin_system("duffing-forced", delta=0.3), 0.05)
        data = generate_dataset(system, 200, seed=1)
        dx = monomials(2, 2)
        models = [fit_affine(data, dx), fit_separable(data, dx, identity(1, var_prefix="u")),
                  fit_joint(data, dx, build_joint_dictionary(2, 1, 1, 1)),
                  fit_bilinear(data, dx, monomials(1, 1, var_prefix="u"))]
        grid = default_grid(system, points_per_axis=3)  # x = 0 and u = 0 are grid points
        for kind in asked:
            asked[kind].clear()
        for model in models:
            assert check_model(system, model, grid)[0]
        for X_shape, U_shape, X, U in asked["step"] | asked["tangent"]:
            X, U = np.frombuffer(X).reshape(X_shape), np.frombuffer(U).reshape(U_shape)
            assert np.sum(~X.any(axis=1) & ~U.any(axis=1)) <= 1, (X_shape, U_shape)

    def test_cross_piece_steps_the_axes_not_product_sized_copies(self, asked):
        # f_xu and its Jacobians on the product take Phi(x, 0) and Phi(0, u), with
        # their tangents, from the passes on the grid's states and inputs
        system = discretize(builtin_system("duffing-forced", delta=0.3), 0.05)
        model = fit_separable(generate_dataset(system, 200, seed=1), monomials(2, 2),
                              identity(1, var_prefix="u"))
        grid = default_grid(system, points_per_axis=3)
        for kind in asked:
            asked[kind].clear()
        reports, _ = check_model(system, model, grid)
        assert {"T4-C3", "T4-C4", "COR4-FXU"} <= {r.condition for r in reports}
        X, U = np.repeat(grid.states, 3, axis=0), np.tile(grid.inputs, (9, 1))  # state-major
        product = (X.shape, U.shape, X.tobytes(), U.tobytes())
        sized = {key for key in asked["step"] | asked["tangent"] if key[0][0] == len(X)}
        assert sized == {product}


class TestCheckModel:
    @staticmethod
    def cases():
        """Catalog systems and their RK4 discretizations, each with every fit variant."""
        catalog = [builtin_system("linear"), builtin_system("bilinear-scalar", a=-1.0, b=1.0),
                   builtin_system("duffing-forced", delta=0.3),
                   builtin_system("slow-manifold", mu=MU, lam=LAM)]
        systems = catalog + [bilinear_discrete(0.9, 0.1)] + [discretize(s, 0.1) for s in catalog]
        for system in systems:
            n, m = system.state_dim, system.input_dim
            data = generate_dataset(system, 200, seed=1)
            dx, du = monomials(n, 2), identity(m, var_prefix="u")
            models = [fit_affine(data, dx), fit_separable(data, dx, du),
                      fit_joint(data, dx, build_joint_dictionary(n, m, 1, 1)),
                      fit_bilinear(data, dx, monomials(m, 1, var_prefix="u"))]
            if system.time_kind == "continuous":
                models += [fit_eigen(data, monomials(n, 1, include_constant=False)),
                           fit_eigen(data, build_joint_dictionary(n, m, 1, 1))]
            for model in models:
                yield system, model

    def test_reports_equal_the_public_checkers_called_alone(self):
        from kooplab.consistency import CONDITIONS, InapplicableConditionError, _FAMILY_CHECKS

        n_reports = 0
        for system, model in self.cases():
            grid = default_grid(system, points_per_axis=3)
            reports, _ = check_model(system, model, grid, seed=2)
            # each applicable family's public checker on the plain grid, with fresh stacks
            alone = {}
            for family in dict.fromkeys(c.family for c in CONDITIONS.values() if c.applies(model)):
                try:
                    alone.update((a.condition, a) for a in
                                 _FAMILY_CHECKS[family](system, model, grid, 1e-6, 2))
                except (HypothesisViolationError, InapplicableConditionError):
                    continue
            assert sorted(r.condition for r in reports) == sorted(alone), model.variant
            for r in reports:
                a = alone[r.condition]
                assert (r.note, r.details) == (a.note, a.details), r.condition
                np.testing.assert_array_equal(r.residuals, a.residuals, err_msg=r.condition)
                assert r.points.keys() == a.points.keys()
                for role in r.points:
                    np.testing.assert_array_equal(r.points[role], a.points[role])
                n_reports += 1
        assert n_reports > 200

    def test_each_family_returns_only_its_own_ids(self):
        # an id comes from the one family its CONDITIONS row names, whatever the variant
        from kooplab.consistency import CONDITIONS, InapplicableConditionError, _FAMILY_CHECKS

        produced = set()
        for system, model in self.cases():
            grid = default_grid(system, points_per_axis=3)
            for family in dict.fromkeys(c.family for c in CONDITIONS.values() if c.applies(model)):
                try:
                    reports = _FAMILY_CHECKS[family](system, model, grid, 1e-6, 0)
                except (HypothesisViolationError, InapplicableConditionError):
                    continue
                assert {CONDITIONS[r.condition].family for r in reports} == {family}, (
                    family, model.variant)
                produced.add(family)
        assert produced == set(_FAMILY_CHECKS)

    def test_shared_stacks_are_read_only(self):
        system = bilinear_discrete(0.9, 0.1)
        model = fit_separable(generate_dataset(system, 100, seed=2), monomials(1, 2),
                              identity(1, var_prefix="u"))
        reports, _ = check_model(system, model, default_grid(system, points_per_axis=3))
        cor4 = next(r for r in reports if r.condition == "COR4-FXU")
        for shared in (cor4.residuals, cor4.points["x"]):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0

    def test_reports_over_one_axis_cannot_change_the_grid(self):
        system = bilinear_discrete(0.9, 0.1)
        model = fit_separable(generate_dataset(system, 100, seed=2), monomials(1, 2),
                              identity(1, var_prefix="u"))
        states, inputs = np.linspace(-2.0, 2.0, 3)[:, None], np.linspace(-1.0, 1.0, 3)[:, None]
        grid = EvaluationGrid(states, inputs)
        states[0] = inputs[0] = 99.0  # the grid holds copies of its points
        reports = {r.condition: r for r in check_model(system, model, grid)[0]}
        for cid, role in (("T4-C1", "x"), ("T4-C2", "u"), ("DEF2-CTRL-X", "x")):
            with pytest.raises(ValueError, match="read-only"):
                reports[cid].points[role][0] = 99.0
        assert grid.states[0, 0] == -2.0 and grid.inputs[0, 0] == -1.0

    def test_requested_pairwise_id_keeps_its_hypothesis(self):
        # f_xu != 0: requested explicitly, COR2's hypothesis violation raises
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        model = fit_affine(generate_dataset(system, 100, seed=2), monomials(1, 2))
        grid = default_grid(system, points_per_axis=3)
        reports, _ = check_model(system, model, grid, conditions=["COR1-FXU", "COR3-KMA-B"])
        assert [r.condition for r in reports] == ["COR1-FXU", "COR3-KMA-B"]
        with pytest.raises(HypothesisViolationError, match=r"f_xu\(x, u\) = 0"):
            check_model(system, model, grid, conditions=["COR2-PAIRWISE", "COR3-KMA-L"])

    def test_unknown_id_rejected(self):
        system = bilinear_discrete(0.9, 0.1)
        model = fit_affine(generate_dataset(system, 100, seed=2), monomials(1, 2))
        with pytest.raises(ValueError, match="unknown condition id 'NOPE'"):
            check_model(system, model, default_grid(system, points_per_axis=3),
                        conditions=["COR6-B", "NOPE"])


class TestReportTolerance:
    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-6], ids=["inf", "nan", "0", "neg"])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ConsistencyReport("COR1-FXU", tol, {"x": np.zeros((2, 1))}, [0.0, 5.0])

    @pytest.mark.parametrize("tol", [np.inf, np.nan], ids=["inf", "nan"])
    def test_library_checks_have_no_verdict_at_a_bad_tolerance(self, tol):
        # at tolerance inf the cross term used to read consistent, at NaN inconsistent
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        grid = default_grid(system, points_per_axis=3)
        with pytest.raises(ValueError, match="tolerance"):
            check_corollary1(system, identity(1), grid, tolerance=tol)
        model = fit_separable(generate_dataset(system, 100, seed=2, kind="continuous-derivative"),
                              identity(1), identity(1, var_prefix="u"))
        with pytest.raises(ValueError, match="tolerance"):
            check_model(system, model, grid, tolerance=tol)


class TestCheckModelModes:
    def test_explicit_ids_reproduce_the_all_applicable_fields(self):
        system = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(system, 200, seed=4)
        grid = default_grid(system, points_per_axis=4)
        u_dict = identity(1, var_prefix="u")
        models = [fit_affine(data, monomials(1, 2)),
                  fit_separable(data, monomials(1, 2), u_dict),
                  fit_joint(data, identity(1), xu_joint_dict()),
                  fit_bilinear(data, identity(1), monomials(1, 1, var_prefix="u"))]
        for model in models:
            reports, skipped = check_model(system, model, grid, seed=3)
            ids = [r.condition for r in reports]
            assert len(set(ids)) == len(ids)
            explicit, none = check_model(system, model, grid, seed=3, conditions=ids)
            assert none == []
            assert sorted(r.condition for r in explicit) == sorted(ids)
            fields = {r.condition: r.residuals for r in explicit}
            for r in reports:
                np.testing.assert_array_equal(fields[r.condition], r.residuals)
