"""Every residual field is the point norm of its identity's terms, bit for bit.

The checkers pass the operands of each residual's final sum to `_norms`, which
adds them left to right. Each test below recomputes the fields of one family
with the residual written as one inline array expression, grouped the same
way, under the max-abs point norm, and compares the bytes. IEEE negation is
exact and a + (-b) equals a - b, so no field may move by a single bit.
"""

import numpy as np
import pytest

from kooplab.consistency import (
    _Ingredients,
    _sample_pair_indices,
    check_corollary2,
    check_corollary3_kma,
    check_corollary5,
    check_corollary6,
    check_def1,
    check_def2,
    check_def2_joint,
    check_kaiser,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
)
from kooplab.dynamics import EvaluationGrid, builtin_system, discretize
from kooplab.formulations import AffineModel, EigenModel
from kooplab.numerics import _mv, _stacked
from kooplab.observables import (
    CallableJointDictionary,
    CombinationDictionary,
    CompositeDictionary,
    build_joint_dictionary,
    identity,
    monomials,
)


def dense(dim, var_prefix="x", seed=0):
    """Five seeded combinations of the cubic monomials: dense Jacobians at every
    point, so that a regrouped sum rounds differently somewhere."""
    base = monomials(dim, 3, include_constant=False, var_prefix=var_prefix)
    return CombinationDictionary(base, np.random.default_rng(seed).standard_normal((5, base.size)))


DENSE_X = dense(2)
DICT_X = CompositeDictionary([identity(2), DENSE_X])  # state-inclusive, 7 observables
DENSE_U = dense(1, "u", seed=1)  # no constant, so psi_u(0) = 0
DICT_XU = build_joint_dictionary(2, 1, 1, 2)  # vanishes at u = 0, 6 observables
# psi_xu(x, 0) != 0: the K_xu term of T5-C1 is live, and COR7/COR8 are skipped
CROSSING = CallableJointDictionary(
    2, 1, ["x1*(1+u1)", "x1*x2+u1"],
    lambda x, u: np.array([x[0] * (1.0 + u[0]), x[0] * x[1] + u[0]]),
    lambda x, u: np.array([[1.0 + u[0], 0.0], [x[1], x[0]]]),
    lambda x, u: np.array([[x[0]], [1.0]]),
)


def inline_norms(R):
    """Max-abs of each point's block of a field written as one expression."""
    return np.abs(R).max(axis=tuple(range(1, R.ndim)), initial=0.0)


def inline_drift(ing, dict_x, L):
    return inline_norms(_mv(ing.at(dict_x.jacobian, "x"), ing.at(ing.system.f_x, "x"))
                        - _mv(L, ing.at(dict_x.evaluate, "x")))


def assert_fields(reports, expected):
    got = {r.condition: r.residuals for r in reports}
    assert set(expected) <= set(got)
    for cid, field in expected.items():
        assert got[cid].tobytes() == field.tobytes(), cid


def operators(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in shapes]


def grid_for(system):
    """A seeded grid of generic points (on an even grid many products are exact),
    and ingredients of its own for the inline expressions."""
    rng = np.random.default_rng(2)
    grid = EvaluationGrid(rng.uniform(-2.0, 2.0, (16, system.state_dim)),
                          rng.uniform(-1.0, 1.0, (5, system.input_dim)))
    return grid, _Ingredients(system, grid)


DUFFING = builtin_system("duffing-forced", delta=0.5)
# f_xu = b x u vanishes on both axes, so the separable hypotheses hold with f_xu != 0
BILINEAR = builtin_system("bilinear-scalar", a=-0.7, b=1.3)
DUFFING_MAP = discretize(DUFFING, 0.1)
# pairwise conditions need f_xu = 0 on the product: the RK4 map of a linear flow
LINEAR_MAP = discretize(builtin_system("linear"), 0.1)


class TestDefinitionLevel:
    def test_def1_ctrl_auton_and_joint(self):
        grid, ing = grid_for(DUFFING)
        L, B = operators(1, (5, 5), (5, 1))
        for model in (AffineModel(DENSE_X, L, B, "continuous"),
                      AffineModel(DENSE_X, L, None, "continuous", input_dim=1)):
            sub = _Ingredients(DUFFING, grid.autonomous()) if model.B is None else ing
            X, U = sub.grid.product
            truth = _mv(sub.grid.per_state(sub.at(model.dict_x.jacobian, "x")),
                        sub.at(DUFFING.evaluate, "(x,u)"))
            report = check_def1(DUFFING, model, grid)
            assert_fields([report], {report.condition: inline_norms(model.rate(X, U) - truth)})

        model = EigenModel(DICT_XU, *operators(2, (DICT_XU.size,)))
        X, U = ing.grid.product
        truth = _mv(model.observe_jac_x(X, U), ing.at(DUFFING.evaluate, "(x,u)"))
        report = check_def1(DUFFING, model, grid)
        assert_fields([report], {"DEF1-JOINT": inline_norms(model.rate(X, U) - truth)})

    def test_def2_ctrl_and_auton(self):
        grid, ing = grid_for(DUFFING_MAP)
        K, B = operators(3, (5, 5), (5, 1))
        model = AffineModel(DENSE_X, K, B, "discrete")
        X, U = ing.grid.product
        J = ing.at(model.dict_x.jacobian, "f(x,u)")
        res_x = model.lift_next_jac_x(X, U) - J @ ing.at(DUFFING_MAP.jacobian_x, "(x,u)")
        res_u = model.lift_next_jac_u(X, U) - J @ ing.at(DUFFING_MAP.jacobian_u, "(x,u)")
        assert_fields(check_def2(DUFFING_MAP, model, grid),
                      {"DEF2-CTRL-X": inline_norms(res_x), "DEF2-CTRL-U": inline_norms(res_u)})

        auton = AffineModel(DENSE_X, K, None, "discrete", input_dim=1)
        sub = _Ingredients(DUFFING_MAP, grid.autonomous())
        X, U = sub.grid.product
        J = sub.at(auton.dict_x.jacobian, "f(x,u)")
        res_x = auton.lift_next_jac_x(X, U) - J @ sub.at(DUFFING_MAP.jacobian_x, "(x,u)")
        assert_fields(check_def2(DUFFING_MAP, auton, grid), {"DEF2-AUTON": inline_norms(res_x)})

    @pytest.mark.parametrize("evolve", [False, True])
    def test_def2_joint(self, evolve):
        grid, ing = grid_for(DUFFING_MAP)
        (K,) = operators(4, (DICT_XU.size, DICT_XU.size))
        u_map, u_jac = lambda u: 0.5 * u - u ** 2, lambda u: np.array([[0.5 - 2.0 * u[0]]])
        input_evolution = (u_map, u_jac) if evolve else None
        U_next = ing.grid.product[1]
        if evolve:
            U_next = ing.grid.per_input(_stacked(u_map, (1,))(ing.grid.inputs))
        X_next = ing.at(DUFFING_MAP.evaluate, "(x,u)")
        J_next = DICT_XU.jacobian_x(X_next, U_next)
        rhs_x = J_next @ ing.at(DUFFING_MAP.jacobian_x, "(x,u)")
        rhs_u = J_next @ ing.at(DUFFING_MAP.jacobian_u, "(x,u)")
        if evolve:
            rhs_u = rhs_u + DICT_XU.jacobian_u(X_next, U_next) @ ing.grid.per_input(
                _stacked(u_jac, (1, 1))(ing.grid.inputs))
        expected = {
            "DEF2-JOINT-X": inline_norms(K @ ing.at(DICT_XU.jacobian_x, "(x,u)") - rhs_x),
            "DEF2-JOINT-U": inline_norms(K @ ing.at(DICT_XU.jacobian_u, "(x,u)") - rhs_u),
        }
        reports = check_def2_joint(DUFFING_MAP, DICT_XU, K, grid, input_evolution=input_evolution)
        assert_fields(reports, expected)


class TestContinuousFamilies:
    # no catalog flow has f_u != 0 and f_xu != 0 together: duffing has the one, bilinear the other
    @pytest.mark.parametrize("system", [DUFFING, BILINEAR], ids=["duffing", "bilinear"])
    def test_theorem2(self, system):
        dict_x = dense(system.state_dim)
        L_x, L_u = operators(5, (5, 5), (5, 5))
        grid, ing = grid_for(system)
        J0 = ing.at(dict_x.jacobian, "x=0")
        Fu = ing.at(system.f_u, "u")
        res2 = inline_norms(_mv(J0, Fu) - _mv(L_u, ing.at(DENSE_U.evaluate, "u")))
        Jp = ing.grid.per_state(ing.at(dict_x.jacobian, "x"))
        res3 = inline_norms(_mv(Jp - J0, ing.grid.per_input(Fu))
                            + _mv(Jp, ing.at(system.f_xu, "(x,u)")))
        reports = check_theorem2(system, dict_x, DENSE_U, L_x, L_u, grid)
        assert_fields(reports, {"T2-C1": inline_drift(ing, dict_x, L_x),
                                "T2-C2": res2, "T2-C3": res3})

    def test_corollary2(self):
        grid, ing = grid_for(DUFFING)
        i1, i2, iu = _sample_pair_indices(ing.grid, 200, 7, ("x", "x", "u"))
        J = ing.at(DENSE_X.jacobian, "x")
        res = inline_norms(_mv(J[i1] - J[i2], ing.at(DUFFING.f_u, "u")[iu]))
        assert_fields([check_corollary2(DUFFING, DENSE_X, grid, seed=7)], {"COR2-PAIRWISE": res})

    def test_corollary3(self):
        grid, ing = grid_for(DUFFING)
        L, B = operators(6, (7, 7), (7, 1))
        B = 1e-3 * B  # J_psi_x(0) df_u/du is constant here; a small B keeps its last bits
        res_b = inline_norms(ing.at(DICT_X.jacobian, "x=0") @ ing.at(DUFFING.jacobian_fu, "u") - B)
        assert_fields(check_corollary3_kma(DUFFING, DICT_X, L, B, grid),
                      {"COR3-KMA-B": res_b, "COR3-KMA-L": inline_drift(ing, DICT_X, L)})

    def test_theorem3(self):
        grid, ing = grid_for(DUFFING)
        L_x, L_xu = operators(8, (5, 5), (5, DICT_XU.size))
        cross = ing.grid.per_input(ing.at(DUFFING.f_u, "u")) + ing.at(DUFFING.f_xu, "(x,u)")
        res2 = inline_norms(_mv(ing.grid.per_state(ing.at(DENSE_X.jacobian, "x")), cross)
                            - _mv(L_xu, ing.at(DICT_XU.evaluate, "(x,u)")))
        assert_fields(check_theorem3(DUFFING, DENSE_X, DICT_XU, L_x, L_xu, grid),
                      {"T3-C1": inline_drift(ing, DENSE_X, L_x), "T3-C2": res2})

    @pytest.mark.parametrize("eigendict", [DENSE_X, DICT_XU], ids=["state-only", "joint"])
    def test_kaiser(self, eigendict):
        grid, ing = grid_for(DUFFING)
        (lam,) = operators(9, (eigendict.size,))
        if eigendict is DICT_XU:
            psi, J = ing.at(eigendict.evaluate, "(x,u)"), ing.at(eigendict.jacobian_x, "(x,u)")
        else:
            psi, J = (ing.grid.per_state(ing.at(f, "x"))
                      for f in (eigendict.evaluate, eigendict.jacobian))
        res = inline_norms(_mv(J, ing.at(DUFFING.evaluate, "(x,u)")) - lam * psi)
        assert_fields([check_kaiser(DUFFING, eigendict, lam, grid)], {"KAISER": res})


class TestDiscreteFamilies:
    def test_theorem4(self):
        grid, ing = grid_for(DUFFING_MAP)
        K_x, K_u = operators(10, (5, 5), (5, 5))
        system = DUFFING_MAP
        Dfx = ing.at(system.jacobian_fx, "x")
        Dfu = ing.at(system.jacobian_fu, "u")
        J_x0 = ing.at(DENSE_X.jacobian, "f(x,0)")
        J_0u = ing.at(DENSE_X.jacobian, "f(0,u)")
        J = ing.at(DENSE_X.jacobian, "f(x,u)")
        expected = {
            "T4-C1": inline_norms(J_x0 @ Dfx - K_x @ ing.at(DENSE_X.jacobian, "x")),
            "T4-C2": inline_norms(J_0u @ Dfu - K_u @ ing.at(DENSE_U.jacobian, "u")),
            "T4-C3": inline_norms((J - ing.grid.per_input(J_0u)) @ ing.grid.per_input(Dfu)
                                  + J @ ing.at(system.jacobian_fxu_u, "(x,u)")),
            "T4-C4": inline_norms((J - ing.grid.per_state(J_x0)) @ ing.grid.per_state(Dfx)
                                  + J @ ing.at(system.jacobian_fxu_x, "(x,u)")),
        }
        assert_fields(check_theorem4(system, DENSE_X, DENSE_U, K_x, K_u, grid), expected)

    def test_corollary5(self):
        grid, ing = grid_for(LINEAR_MAP)
        inputs = ing.grid.inputs
        i1, i2, j1, j2 = _sample_pair_indices(ing.grid, 200, 11, ("x", "x", "u", "u"))
        J, M = ing.at(DENSE_X.jacobian, "f(x,u)"), len(inputs)
        J_11 = J[i1 * M + j1]
        expected = {
            "COR5-PAIRWISE-U": inline_norms(
                (J_11 - J[i2 * M + j1]) @ ing.at(LINEAR_MAP.jacobian_fu, "u")[j1]),
            "COR5-PAIRWISE-X": inline_norms(
                (J_11 - J[i1 * M + j2]) @ ing.at(LINEAR_MAP.jacobian_fx, "x")[i1]),
        }
        assert_fields(check_corollary5(LINEAR_MAP, DENSE_X, grid, seed=11), expected)

    def test_corollary6(self):
        grid, ing = grid_for(DUFFING_MAP)
        K, B = operators(12, (7, 7), (7, 1))
        res = inline_norms(ing.at(DICT_X.jacobian, "f(x,u)")
                           @ ing.grid.per_input(ing.at(DUFFING_MAP.jacobian_fu, "u")) - B)
        assert_fields(check_corollary6(DUFFING_MAP, DICT_X, K, B, grid), {"COR6-B": res})

    @pytest.mark.parametrize("dict_xu", [DICT_XU, CROSSING], ids=["vanishing", "crossing"])
    def test_theorem5_and_its_corollaries(self, dict_xu):
        grid, ing = grid_for(DUFFING_MAP)
        K_x, K_xu = operators(13, (5, 5), (5, dict_xu.size))
        system = DUFFING_MAP
        J_x0 = ing.at(DENSE_X.jacobian, "f(x,0)")
        lhs_full = J_x0 @ ing.at(system.jacobian_x, "(x,0)")
        base = K_x @ ing.at(DENSE_X.jacobian, "x")
        res_t5c2 = inline_norms(ing.at(DENSE_X.jacobian, "f(x,u)") @ ing.at(system.jacobian_u, "(x,u)")
                                - K_xu @ ing.at(dict_xu.jacobian_u, "(x,u)"))
        expected = {
            "T5-C1": inline_norms(lhs_full - base - K_xu @ ing.at(dict_xu.jacobian_x, "(x,0)")),
            "T5-C2": res_t5c2,
        }
        if dict_xu is DICT_XU:
            expected.update({
                "COR7-C1": inline_norms(lhs_full - base),
                "COR7-C2": res_t5c2,
                "COR8-C1": inline_norms(J_x0 @ ing.at(system.jacobian_fx, "x") - base),
                "COR8-C2": res_t5c2,
            })
        reports = check_theorem5(system, DENSE_X, dict_xu, K_x, K_xu, grid)
        assert [r.condition for r in reports] == list(expected)
        assert_fields(reports, expected)
