"""Formulation fits: exact recoveries, error contracts, predictions, payloads,
and the point-or-stack contract of fitted models."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kooplab.dynamics import (
    SnapshotDataset,
    bilinear_discrete,
    builtin_system,
    discretize,
    generate_dataset,
    linear_system,
)
from kooplab.formulations import (
    AffineModel,
    EigenModel,
    bilinear_to_joint,
    fit_affine,
    fit_bilinear,
    fit_eigen,
    fit_joint,
    fit_separable,
    load_model,
    model_from_payload,
    model_residual,
    model_to_payload,
    predict_step,
    VARIANTS,
    rollout,
    save_model,
)
from kooplab.numerics import RankDeficiencyError
from kooplab.observables import (
    CallableJointDictionary,
    CombinationDictionary,
    CustomDictionary,
    build_joint_dictionary,
    identity,
    monomials,
    rbf,
)


def scalar_linear_pairs(n=40, seed=0, a=0.9, b=0.1, u_scale=1.0):
    """Snapshot pairs of x+ = a x + b u."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 1))
    U = u_scale * rng.uniform(-1, 1, size=(n, 1))
    Y = a * X + b * U
    return SnapshotDataset("discrete-pairs", X, U, Y, dt=0.1)


def xu_cross_dict():
    """The single cross observable psi_xu = x * u (scalar state and input)."""
    return CallableJointDictionary(
        1, 1, ["x1*u1"],
        lambda x, u: np.array([x[0] * u[0]]),
        lambda x, u: np.array([[u[0]]]),
        lambda x, u: np.array([[x[0]]]),
    )


class TestFitAffine:
    def test_scalar_exact_recovery(self):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        np.testing.assert_allclose(model.K, [[0.9]], atol=1e-10)
        np.testing.assert_allclose(model.B, [[0.1]], atol=1e-10)
        assert model.training_residual <= 1e-10
        assert model.time_kind == "discrete"

    def test_zero_input_rank_error_names_B(self):
        data = scalar_linear_pairs(u_scale=0.0)
        with pytest.raises(RankDeficiencyError, match="B is\n?.*unidentifiable|B is "):
            fit_affine(data, identity(1))

    def test_zero_input_with_ridge_fits(self):
        model = fit_affine(scalar_linear_pairs(u_scale=0.0), identity(1), ridge=1e-8)
        np.testing.assert_allclose(model.K, [[0.9]], atol=1e-5)
        np.testing.assert_allclose(model.B, [[0.0]], atol=1e-6)

    def test_state_rows_recover_continuous_generator(self):
        # quadratic observables cannot all be matched, but the state rows of
        # the least-squares solution still land exactly on (A, B)
        system = builtin_system("linear")
        data = generate_dataset(system, 500, seed=7, kind="continuous-derivative")
        model = fit_affine(data, monomials(2, 2))
        idx = model.dict_x.state_index_map
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        np.testing.assert_allclose(model.K[idx][:, idx], A, atol=1e-8)
        np.testing.assert_allclose(model.B[idx], B, atol=1e-8)
        off = model.K[idx].copy()
        off[:, idx] = 0.0
        assert np.max(np.abs(off)) <= 1e-8

    def test_insufficient_samples(self):
        data = scalar_linear_pairs(n=2)
        with pytest.raises(ValueError, match="insufficient samples"):
            fit_affine(data, monomials(1, 3))

    def test_fit_is_stationary(self):
        data = scalar_linear_pairs(a=0.8, b=0.3)
        model = fit_affine(data, monomials(1, 2))
        base = model_residual(model, data)
        rng = np.random.default_rng(1)
        for _ in range(5):
            dK = rng.standard_normal(model.K.shape)
            dK *= 1e-3 / np.linalg.norm(dK)
            perturbed = AffineModel(model.dict_x, model.K + dK, model.B, "discrete")
            assert model_residual(perturbed, data) >= base - 1e-12


class TestFitSeparable:
    def test_reduces_to_affine_with_identity_input_dict(self):
        data = scalar_linear_pairs()
        affine = fit_affine(data, identity(1))
        sep = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        np.testing.assert_array_equal(sep.K_x, affine.K)
        np.testing.assert_array_equal(sep.K_u, affine.B)

    def test_rejects_non_vanishing_input_dict(self):
        with pytest.raises(ValueError, match="vanish"):
            fit_separable(scalar_linear_pairs(), identity(1), monomials(1, 1))

    def test_bilinear_data_leaves_irreducible_residual(self):
        system = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(system, 300, seed=3)
        model = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        assert model.training_residual > 0.01

    def test_zero_input_rank_error_names_K_u(self):
        data = scalar_linear_pairs(u_scale=0.0)
        with pytest.raises(RankDeficiencyError, match="K_u"):
            fit_separable(data, identity(1), identity(1, var_prefix="u"))


class TestFitJoint:
    def test_bilinear_generator_exact(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        data = generate_dataset(system, 200, seed=5, kind="continuous-derivative")
        model = fit_joint(data, identity(1), xu_cross_dict())
        np.testing.assert_allclose(model.K_x, [[-1.0]], atol=1e-10)
        np.testing.assert_allclose(model.K_xu, [[1.0]], atol=1e-10)
        assert model.training_residual <= 1e-10

    def test_two_stage_matches_one_stage_on_exact_data(self):
        system = bilinear_discrete(0.9, 0.1)
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(60, 1))
        U = rng.uniform(-1, 1, size=(60, 1))
        U[:20] = 0.0  # zero-input stage needs exact zeros
        Y = 0.9 * X + 0.1 * X * U
        data = SnapshotDataset("discrete-pairs", X, U, Y, dt=0.1)
        one = fit_joint(data, identity(1), xu_cross_dict())
        two = fit_joint(data, identity(1), xu_cross_dict(), two_stage=True)
        np.testing.assert_allclose(two.K_x, one.K_x, atol=1e-10)
        np.testing.assert_allclose(two.K_xu, one.K_xu, atol=1e-10)
        assert two.fully_identified

    def test_two_stage_without_actuation_flags_K_xu(self):
        X = np.linspace(-1, 1, 12)[:, None]
        data = SnapshotDataset("discrete-pairs", X, np.zeros((12, 1)), 0.9 * X, dt=0.1)
        model = fit_joint(data, identity(1), xu_cross_dict(), two_stage=True)
        np.testing.assert_array_equal(model.K_xu, [[0.0]])
        assert not model.fully_identified
        assert any("unidentified" in n for n in model.notes)

    def test_two_stage_requires_zero_input_samples(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(30, 1))
        U = rng.uniform(0.5, 1.0, size=(30, 1))
        data = SnapshotDataset("discrete-pairs", X, U, 0.9 * X + 0.1 * X * U, dt=0.1)
        with pytest.raises(ValueError, match="zero-input stage"):
            fit_joint(data, identity(1), xu_cross_dict(), two_stage=True)

    def test_joint_matches_affine_on_linear_system(self):
        system = discretize(builtin_system("linear"), 0.1)
        data = generate_dataset(system, 300, seed=11)
        affine = fit_affine(data, identity(2))
        joint = fit_joint(data, identity(2), build_joint_dictionary(2, 1, 0, 1))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            u = rng.uniform(-1, 1, size=1)
            np.testing.assert_allclose(
                joint.lift_next(x, u), affine.lift_next(x, u), atol=1e-10
            )

    def test_cross_dict_must_vanish_at_zero_input(self):
        bad = CallableJointDictionary(
            1, 1, ["1+x*u"],
            lambda x, u: np.array([1.0 + x[0] * u[0]]),
            lambda x, u: np.array([[u[0]]]),
            lambda x, u: np.array([[x[0]]]),
        )
        with pytest.raises(ValueError, match="vanish"):
            fit_joint(scalar_linear_pairs(), identity(1), bad)

    def test_cross_dict_checked_at_every_data_state(self):
        # max(0, x - 1.5) breaks psi_xu(x, 0) = 0 only at the states beyond 1.5
        data = generate_dataset(builtin_system("bilinear-scalar", a=-1.0, b=1.0), 400, seed=1)
        assert 0 < np.count_nonzero(data.X[:, 0] > 1.5) < data.n_samples
        bad = CallableJointDictionary(
            1, 1, ["x1*u1", "max(0,x1-1.5)"],
            lambda x, u: np.array([x[0] * u[0], max(0.0, x[0] - 1.5)]),
            lambda x, u: np.array([[u[0]], [float(x[0] > 1.5)]]),
            lambda x, u: np.array([[x[0]], [0.0]]),
        )
        with pytest.raises(ValueError, match="vanish at u = 0"):
            fit_joint(data, identity(1), bad)

    @pytest.mark.parametrize("two_stage", [False, True])
    def test_joint_fit_on_no_samples_reports_insufficient_samples(self, two_stage):
        data = scalar_linear_pairs(n=0)
        with pytest.raises(ValueError, match="insufficient samples .* got 0"):
            fit_joint(data, identity(1), xu_cross_dict(), two_stage=two_stage)


class TestFitBilinear:
    def test_exact_scalar_recovery(self):
        system = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(system, 100, seed=1)
        model = fit_bilinear(data, identity(1), monomials(1, 1, var_prefix="u"))
        np.testing.assert_allclose(model.K_terms[0], [[0.9]], atol=1e-10)
        np.testing.assert_allclose(model.K_terms[1], [[0.1]], atol=1e-10)
        assert model.training_residual <= 1e-10

    def test_requires_constant_in_input_dict(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 50, seed=1)
        with pytest.raises(ValueError, match="constant"):
            fit_bilinear(data, identity(1), identity(1, var_prefix="u"))

    def test_constant_input_fallback_identifies_K0_only(self):
        X = np.linspace(-2, 2, 25)[:, None]
        data = SnapshotDataset("discrete-pairs", X, np.zeros((25, 1)), 0.9 * X, dt=0.1)
        model = fit_bilinear(data, identity(1), monomials(1, 1, var_prefix="u"))
        assert not model.fully_identified
        assert any("constant" in n for n in model.notes)
        np.testing.assert_allclose(model.K_of(np.zeros(1)), [[0.9]], atol=1e-10)

    def test_varying_input_rank_failure_reraises(self):
        # two colinear input observables {u, u} make the design rank deficient
        # even though the inputs vary
        dup = CustomDictionary(
            1,
            [
                ("1", lambda z: 1.0, lambda z: [0.0]),
                ("u", lambda z: z[0], lambda z: [1.0]),
                ("u-again", lambda z: z[0], lambda z: [1.0]),
            ],
            constant_index=0,
        )
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 60, seed=4)
        with pytest.raises(RankDeficiencyError):
            fit_bilinear(data, identity(1), dup)

    def test_offset_channel_needed_for_additive_input(self):
        system = discretize(builtin_system("linear"), 0.1)
        data = generate_dataset(system, 400, seed=6)
        without = fit_bilinear(data, identity(2), monomials(1, 1, var_prefix="u"))
        with_const = fit_bilinear(data, monomials(2, 1), monomials(1, 1, var_prefix="u"))
        assert without.training_residual > 1e-3
        assert with_const.training_residual <= 1e-8


class TestFitEigen:
    def test_slow_manifold_eigenpair(self):
        system = builtin_system("slow-manifold", mu=-0.05, lam=-1.0)
        data = generate_dataset(system, 200, "zero", seed=8, kind="continuous-derivative")
        b = -1.0 / (-1.0 - 2 * (-0.05))
        eigendict = CombinationDictionary(
            monomials(2, 2),
            [[0, 1, 0, 0, 0, 0], [0, 0, 1, -b, 0, 0]],
            names=["phi1", "phi2"],
        )
        model = fit_eigen(data, eigendict)
        np.testing.assert_allclose(model.eigenvalues, [-0.05, -1.0], atol=1e-10)
        assert model.training_residual <= 1e-10
        np.testing.assert_allclose(model.Lam, np.diag([-0.05, -1.0]), atol=1e-10)

    def test_scalar_linear_eigenfunction(self):
        system = linear_system([[-0.3]], [[0.0]])
        data = generate_dataset(system, 50, "zero", seed=0, kind="continuous-derivative")
        model = fit_eigen(data, identity(1))
        np.testing.assert_allclose(model.eigenvalues, [-0.3], atol=1e-12)

    def test_non_eigenfunction_dictionary_reports_residual(self):
        system = builtin_system("slow-manifold", mu=-0.05, lam=-1.0)
        data = generate_dataset(system, 200, "zero", seed=8, kind="continuous-derivative")
        model = fit_eigen(data, monomials(2, 2))
        assert model.training_residual > 1e-3

    def test_joint_observable_eigenvalues(self):
        # d/dt (x*u) = mu*(x*u) + x*udot: the transport term cancels in the
        # fit target, so the x*u row recovers mu under varying held inputs
        system = linear_system([[-0.4]], [[0.0]])
        data = generate_dataset(system, 100, seed=2, kind="continuous-derivative")
        model = fit_eigen(data, build_joint_dictionary(1, 1, 1, 1))
        np.testing.assert_allclose(model.eigenvalues, [0.0, -0.4], atol=1e-10)

    def test_requires_derivative_data(self):
        with pytest.raises(ValueError, match="derivative"):
            fit_eigen(scalar_linear_pairs(), identity(1))

    def test_vanishing_observable_noted(self):
        system = linear_system([[-0.3]], [[0.0]])
        data = generate_dataset(system, 50, "zero", seed=0, kind="continuous-derivative")
        eigendict = CombinationDictionary(monomials(1, 1), [[0.0, 1.0], [0.0, 0.0]])
        model = fit_eigen(data, eigendict)
        assert model.eigenvalues[1] == 0.0
        assert any("vanishes" in n for n in model.notes)


class TestBilinearToJoint:
    def fit(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 100, seed=1)
        return fit_bilinear(data, identity(1), monomials(1, 1, var_prefix="u"))

    def test_predictions_preserved(self):
        src = self.fit()
        conv = bilinear_to_joint(src)
        np.testing.assert_allclose(conv.K_x, src.K_of(np.zeros(1)), atol=1e-14)
        np.testing.assert_array_equal(conv.K_xu, np.eye(1))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=1)
            u = rng.uniform(-1, 1, size=1)
            np.testing.assert_allclose(
                conv.lift_next(x, u), src.lift_next(x, u), atol=1e-12
            )

    def test_cross_dictionary_vanishes_at_zero(self):
        conv = bilinear_to_joint(self.fit())
        for x in np.linspace(-2, 2, 9):
            np.testing.assert_allclose(
                conv.dict_xu.evaluate(np.array([x]), np.zeros(1)), [0.0], atol=1e-14
            )

    def test_zero_input_prediction_is_K0_lift(self):
        src = self.fit()
        conv = bilinear_to_joint(src)
        x = np.array([1.3])
        np.testing.assert_allclose(
            conv.lift_next(x, np.zeros(1)),
            src.K_of(np.zeros(1)) @ src.dict_x.evaluate(x),
            atol=1e-14,
        )

    def test_requires_bilinear_variant(self):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        with pytest.raises(ValueError, match="bilinear"):
            bilinear_to_joint(model)


class TestPrediction:
    def test_predict_step_scalar(self):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        psi_next, x_next = predict_step(model, np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(psi_next, [0.9], atol=1e-10)
        np.testing.assert_allclose(x_next, [0.9], atol=1e-10)

    def test_state_extraction_contract(self):
        d = rbf(centers=[[0.0], [1.0]], width=1.0)
        model = AffineModel(d, np.eye(2), np.zeros((2, 1)), "discrete")
        psi_next, x_next = predict_step(model, np.array([0.5]), np.zeros(1))
        assert x_next is None
        with pytest.raises(ValueError, match="state-inclusive"):
            predict_step(model, np.array([0.5]), np.zeros(1), extract_state=True)

    def test_predict_requires_discrete(self):
        system = builtin_system("bilinear-scalar", a=-1.0, b=1.0)
        data = generate_dataset(system, 100, seed=5, kind="continuous-derivative")
        model = fit_joint(data, identity(1), xu_cross_dict())
        with pytest.raises(ValueError, match="discrete"):
            predict_step(model, np.array([1.0]), np.zeros(1))


class TestRollout:
    def make_affine(self):
        return fit_affine(scalar_linear_pairs(n=60, seed=4), identity(1))

    def test_matches_true_linear_iteration(self):
        model = self.make_affine()
        controls = np.full((20, 1), 0.5)
        res = rollout(model, np.array([1.0]), controls)
        x = 1.0
        for k in range(20):
            x = 0.9 * x + 0.1 * 0.5
            np.testing.assert_allclose(res.states[k + 1], [x], atol=1e-9)
        assert not res.diverged

    def test_relift_modes_agree_on_exact_model(self):
        system = discretize(builtin_system("linear"), 0.1)
        data = generate_dataset(system, 300, seed=11)
        model = fit_affine(data, monomials(2, 2))
        rng = np.random.default_rng(1)
        controls = rng.uniform(-1, 1, size=(50, 1))
        a = rollout(model, np.array([0.5, -0.5]), controls, relift="every-step")
        b = rollout(model, np.array([0.5, -0.5]), controls, relift="none")
        assert len(a) == len(b) == 51
        np.testing.assert_allclose(a.states, b.states, atol=1e-9)

    def test_zero_length_controls(self):
        res = rollout(self.make_affine(), np.array([1.0]), np.zeros((0, 1)))
        np.testing.assert_array_equal(res.states, [[1.0]])
        assert not res.diverged

    def test_divergence_guard_truncates(self):
        model = AffineModel(identity(1), [[2.0]], [[0.0]], "discrete")
        res = rollout(model, np.array([1.0]), np.zeros((100, 1)), divergence_bound=1e3)
        assert res.diverged
        assert len(res) < 101
        assert np.max(np.abs(res.states)) <= 1e3

    def test_joint_rollout_without_relift(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 100, seed=1)
        model = fit_joint(data, identity(1), xu_cross_dict())
        controls = np.full((10, 1), 0.8)
        res = rollout(model, np.array([1.0]), controls, relift="none")
        x = 1.0
        for k in range(10):
            x = 0.9 * x + 0.1 * x * 0.8
            np.testing.assert_allclose(res.states[k + 1], [x], atol=1e-9)

    def test_bilinear_rollout_beats_separable_on_bilinear_system(self):
        system = bilinear_discrete(0.9, 0.1)
        data = generate_dataset(system, 300, seed=3)
        sep = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        joint = fit_joint(data, identity(1), xu_cross_dict())
        rng = np.random.default_rng(12)
        controls = rng.uniform(-1, 1, size=(20, 1))
        x0 = np.array([1.5])
        truth = [x0.copy()]
        for u in controls:
            truth.append(system.evaluate(truth[-1], u))
        truth = np.array(truth)
        rj = rollout(joint, x0, controls).states
        rs = rollout(sep, x0, controls).states
        err_j = np.sqrt(np.mean((rj - truth) ** 2))
        err_s = np.sqrt(np.mean((rs - truth) ** 2))
        assert err_j < err_s / 2


class TestStackedRollout:
    """A stack of trajectories rolls out as one model call per step."""

    # [30, 30] leaves the bound at the first step, [-6, -2] later (2-norm 6.3 < 8)
    X0 = np.array([[0.3, -0.2], [30.0, 30.0], [-1.0, 0.5], [-6.0, -2.0], [0.0, 0.0]])

    @staticmethod
    def discrete_models():
        models = {k: m for k, m in STACK_MODELS.items() if m.time_kind == "discrete"}
        models["bilinear-to-joint"] = bilinear_to_joint(STACK_MODELS["bilinear"])
        return models

    @pytest.mark.parametrize("relift", ["every-step", "none"])
    def test_stack_equals_single_rollouts_bit_for_bit(self, relift):
        for label, model in self.discrete_models().items():
            rng = np.random.default_rng(11)
            controls = rng.uniform(-1.0, 1.0, size=(len(self.X0), 30, model.input_dim))
            stacked = rollout(model, self.X0, controls, relift=relift, divergence_bound=8.0)
            assert len(stacked) == len(self.X0)
            # two trajectories leave the bound, at different steps
            assert len({len(r) for r in stacked if r.diverged}) == 2, label
            for x0, us, got in zip(self.X0, controls, stacked):
                alone = rollout(model, x0, us, relift=relift, divergence_bound=8.0)
                np.testing.assert_array_equal(got.states, alone.states, err_msg=label)
                assert (len(got), got.diverged) == (len(alone), alone.diverged), label

    @pytest.mark.parametrize("relift", ["every-step", "none"])
    def test_two_norm_past_the_bound_diverges(self, relift):
        # the first state [6, 6] is within 8 in max-abs, but its 2-norm is 8.49
        model = AffineModel(identity(2), 2.0 * np.eye(2), None, "discrete", input_dim=0)
        res = rollout(model, np.array([3.0, 3.0]), np.zeros((5, 0)), relift=relift,
                      divergence_bound=8.0)
        assert res.diverged and len(res) == 1
        np.testing.assert_array_equal(res.states, [[3.0, 3.0]])

    def test_mismatched_shapes_rejected(self):
        model = STACK_MODELS["affine"]
        X0, U = np.zeros((3, 2)), np.zeros((3, 5, 1))
        for x0, controls in ((X0, U[:2]), (X0, U[0]), (X0[0], U), (X0[:, :1], U),
                             (X0, np.zeros((3, 5, 2))), (X0[0], np.zeros(5))):
            with pytest.raises(ValueError, match="x0 and controls"):
                rollout(model, x0, controls)

    def test_autonomous_model_rolls_out_every_step(self):
        model = AffineModel(identity(2), [[0.9, 0.1], [0.0, 0.8]], None, "discrete", input_dim=0)
        x0 = np.array([1.0, -1.0])
        res = rollout(model, x0, np.zeros((20, 0)))
        assert len(res) == 21 and not res.diverged
        x = x0
        for k in range(20):
            x = model.K @ x
            np.testing.assert_allclose(res.states[k + 1], x, rtol=1e-14)
        stacked = rollout(model, np.array([x0, 2 * x0, -x0]), np.zeros((3, 20, 0)))
        assert [len(r) for r in stacked] == [21, 21, 21]
        np.testing.assert_array_equal(stacked[0].states, res.states)


class TestNesting:
    def test_residual_chain_on_bilinear_data(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 300, seed=3)
        affine = fit_affine(data, identity(1))
        sep = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        joint = fit_joint(data, identity(1), build_joint_dictionary(1, 1, 1, 1))
        assert joint.training_residual <= sep.training_residual + 1e-12
        assert sep.training_residual <= affine.training_residual + 1e-12


class TestSerialization:
    def roundtrip(self, model):
        return model_from_payload(model_to_payload(model))

    def assert_same_step(self, a, b, x, u):
        np.testing.assert_array_equal(a.lift_next(x, u), b.lift_next(x, u))

    def test_affine_roundtrip(self, tmp_path):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        path = tmp_path / "affine.json"
        save_model(model, path)
        back = load_model(path)
        self.assert_same_step(model, back, np.array([1.2]), np.array([-0.4]))
        assert back.training_residual == model.training_residual
        assert back.n_samples == model.n_samples

    def test_separable_roundtrip(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 200, seed=3)
        model = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        back = self.roundtrip(model)
        self.assert_same_step(model, back, np.array([0.7]), np.array([0.2]))

    def test_joint_roundtrip_with_monomial_cross(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 200, seed=3)
        model = fit_joint(data, identity(1), build_joint_dictionary(1, 1, 1, 1))
        back = self.roundtrip(model)
        self.assert_same_step(model, back, np.array([0.7]), np.array([0.2]))

    def test_bilinear_and_converted_roundtrip(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 100, seed=1)
        model = fit_bilinear(data, identity(1), monomials(1, 1, var_prefix="u"))
        back = self.roundtrip(model)
        self.assert_same_step(model, back, np.array([0.7]), np.array([0.2]))
        conv = bilinear_to_joint(model)
        conv_back = self.roundtrip(conv)
        self.assert_same_step(conv, conv_back, np.array([0.7]), np.array([0.2]))

    def test_eigen_roundtrip(self):
        system = linear_system([[-0.3]], [[0.0]])
        data = generate_dataset(system, 50, "zero", seed=0, kind="continuous-derivative")
        model = fit_eigen(data, identity(1))
        back = self.roundtrip(model)
        assert isinstance(back, EigenModel)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        x, u = np.array([0.8]), np.zeros(1)
        np.testing.assert_array_equal(back.rate(x, u), model.rate(x, u))

    def test_callable_dictionary_rejected(self):
        data = generate_dataset(
            builtin_system("bilinear-scalar", a=-1.0, b=1.0),
            100, seed=5, kind="continuous-derivative",
        )
        model = fit_joint(data, identity(1), xu_cross_dict())
        with pytest.raises(ValueError, match="serializable"):
            model_to_payload(model)

    def test_schema_version_checked(self):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        payload = model_to_payload(model)
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            model_from_payload(payload)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            model_from_payload({"schema_version": 1, "variant": "spectral", "time_kind": "discrete"})


def payload_models():
    """One fitted model of each variant, all with spec-backed dictionaries."""
    pairs = generate_dataset(bilinear_discrete(0.9, 0.1), 100, seed=1)
    bilinear = fit_bilinear(pairs, identity(1), monomials(1, 1, var_prefix="u"))
    decay = generate_dataset(linear_system([[-0.3]], [[0.0]]), 50, "zero", seed=0,
                             kind="continuous-derivative")
    return [
        fit_affine(scalar_linear_pairs(), identity(1)),
        fit_separable(pairs, identity(1), identity(1, var_prefix="u")),
        fit_joint(pairs, identity(1), build_joint_dictionary(1, 1, 1, 1)),
        bilinear,
        fit_eigen(decay, identity(1)),
    ]


class TestMalformedPayload:
    """A model file missing a field, or holding a badly typed one, raises
    ValueError naming the field; the CLI turns that into exit 1."""

    @pytest.mark.parametrize("index", range(5))
    def test_every_missing_field_is_named(self, index):
        payload = model_to_payload(payload_models()[index])
        removals = [((), "time_kind")]
        removals += [(("dictionaries",), key) for key in payload["dictionaries"]]
        removals += [(("operators",), key) for key in payload["operators"]]
        assert len(removals) >= 3
        for where, key in removals:
            broken = copy.deepcopy(payload)
            section = broken
            for name in where:
                section = section[name]
            del section[key]
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                model_from_payload(broken)

    def test_all_five_variants_are_covered(self):
        assert [m.variant for m in payload_models()] == list(VARIANTS)

    @pytest.mark.parametrize("key, value", [("ridge", None), ("ridge", "high"),
                                            ("notes", 5), ("notes", None),
                                            ("fully_identified", "no"), ("notes", "abc"),
                                            ("ridge", True), ("dt", "0.05"), ("dt", True),
                                            ("training_residual", "0.1"), ("n_samples", 2.5),
                                            ("system_name", None), ("design_rank", "2"),
                                            ("design_condition", -1.0),
                                            ("design_condition", float("nan")),
                                            ("design_matrix", 3)])
    def test_badly_typed_metadata_is_named(self, key, value):
        payload = model_to_payload(payload_models()[0])
        payload["metadata"][key] = value
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            model_from_payload(payload)

    def test_non_object_metadata_rejected(self):
        payload = model_to_payload(payload_models()[0])
        payload["metadata"] = [1, 2]
        with pytest.raises(ValueError, match="metadata"):
            model_from_payload(payload)

    def test_badly_typed_operator_is_a_value_error(self):
        payload = model_to_payload(payload_models()[3])
        payload["operators"]["K_terms"] = 5
        with pytest.raises(ValueError, match="bilinear"):
            model_from_payload(payload)

    def test_metadata_round_trips_through_the_table(self):
        for model in payload_models():
            model.notes.append("a note")
            back = model_from_payload(model_to_payload(model))
            assert back._metadata() == model._metadata()
            assert back.notes is not model.notes


class TestDesignConditioning:
    """Rank and condition number of the regression design in the model file."""

    def test_keys_and_types_for_every_stacked_fit(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 200, seed=3)
        dx, du = identity(1), identity(1, var_prefix="u")
        models = [
            fit_affine(data, dx),
            fit_separable(data, dx, du),
            fit_joint(data, dx, build_joint_dictionary(1, 1, 1, 1)),
            fit_bilinear(data, dx, monomials(1, 1, var_prefix="u")),
        ]
        models.append(bilinear_to_joint(models[-1]))
        for model, columns in zip(models, [2, 2, 3, 2, 2]):  # full column rank
            meta = model_to_payload(model)["metadata"]
            assert isinstance(meta["design_rank"], int) and meta["design_rank"] == columns
            assert isinstance(meta["design_condition"], float)
            assert 1.0 <= meta["design_condition"] < 1e3
            assert meta["design_matrix"] == "plain"
            back = model_from_payload(model_to_payload(model))
            assert back.design_rank == model.design_rank
            assert back.design_condition == model.design_condition

    def test_near_collinear_design_reports_large_condition(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 1.0, size=(80, 1))
        U = X + 1e-9 * rng.standard_normal((80, 1))
        data = SnapshotDataset("discrete-pairs", X, U, 0.9 * X + 0.1 * U, dt=0.1)
        model = fit_affine(data, identity(1))
        assert model.design_rank == 2
        assert model.design_condition > 1e8

    def test_ridge_describes_the_augmented_matrix(self):
        data = scalar_linear_pairs(n=60, seed=4, u_scale=0.0)
        with pytest.raises(RankDeficiencyError):
            fit_affine(data, identity(1))
        model = fit_affine(data, identity(1), ridge=1e-6)
        meta = model_to_payload(model)["metadata"]
        assert meta["design_matrix"] == "ridge-augmented"
        assert meta["design_rank"] == 2
        assert np.isfinite(meta["design_condition"]) and meta["design_condition"] > 1.0

    def test_fits_without_one_stacked_regression_leave_them_unset(self):
        system = linear_system([[-0.3]], [[0.0]])
        cont = generate_dataset(system, 50, "zero", seed=0, kind="continuous-derivative")
        X = np.linspace(-1, 1, 12)[:, None]
        U = np.where(np.arange(12)[:, None] % 2, 0.5, 0.0)
        disc = SnapshotDataset("discrete-pairs", X, U, 0.9 * X + 0.1 * X * U, dt=0.1)
        for model in (fit_eigen(cont, identity(1)),
                      fit_joint(disc, identity(1), xu_cross_dict(), two_stage=True)):
            assert model.design_rank is model.design_condition is model.design_matrix is None

    def test_infinite_condition_and_null_fields_load(self):
        # a fit writes Infinity when s_min = 0; eigen and two-stage joint fits write null
        # design_* keys, and a bilinear_to_joint model copies its source's metadata
        model = fit_affine(scalar_linear_pairs(), identity(1))
        model.design_condition = float("inf")
        text = json.dumps(model_to_payload(model))
        assert '"design_condition": Infinity' in text
        assert model_from_payload(json.loads(text)).design_condition == float("inf")

        system = linear_system([[-0.3]], [[0.0]])
        cont = generate_dataset(system, 50, "zero", seed=0, kind="continuous-derivative")
        X = np.linspace(-1, 1, 12)[:, None]
        U = np.where(np.arange(12)[:, None] % 2, 0.5, 0.0)
        disc = SnapshotDataset("discrete-pairs", X, U, 0.9 * X + 0.1 * X * U, dt=0.1)
        bilinear = fit_bilinear(disc, identity(1), monomials(1, 1, var_prefix="u"))
        for model in (fit_eigen(cont, identity(1)), bilinear_to_joint(bilinear),
                      fit_joint(disc, identity(1), build_joint_dictionary(1, 1, 1, 1),
                                two_stage=True)):
            payload = json.loads(json.dumps(model_to_payload(model)))
            assert model_from_payload(payload)._metadata() == model._metadata()

    def test_model_file_without_the_keys_still_loads(self):
        payload = model_to_payload(fit_affine(scalar_linear_pairs(), identity(1)))
        for key in ("design_rank", "design_condition", "design_matrix"):
            del payload["metadata"][key]
        back = model_from_payload(payload)
        assert back.design_rank is back.design_condition is back.design_matrix is None


class TestModelResidual:
    def test_matches_training_residual(self):
        data = generate_dataset(bilinear_discrete(0.9, 0.1), 150, seed=3)
        model = fit_separable(data, identity(1), identity(1, var_prefix="u"))
        assert abs(model_residual(model, data) - model.training_residual) <= 1e-12

    def test_kind_mismatch_rejected(self):
        model = fit_affine(scalar_linear_pairs(), identity(1))
        cont = generate_dataset(
            builtin_system("linear"), 50, seed=0, kind="continuous-derivative"
        )
        with pytest.raises(ValueError, match="discrete-pairs"):
            model_residual(model, cont)


def stack_models():
    """One fitted model per variant, keyed by label."""
    duffing = builtin_system("duffing-forced", delta=0.5)
    disc = generate_dataset(discretize(duffing, 0.1), 120, seed=3)
    cont = generate_dataset(duffing, 120, seed=3)
    auton = SnapshotDataset("discrete-pairs", disc.X, np.zeros((120, 0)), disc.Y, dt=0.1)
    dx, du = monomials(2, 2), identity(1, var_prefix="u")
    eig = CombinationDictionary(monomials(2, 2), [[0, 1, 0, 0, 0, 0], [0, 0, 1, -1.2, 0, 0]])
    return {
        "affine-autonomous": fit_affine(auton, dx),
        "affine": fit_affine(disc, dx),
        "separable": fit_separable(disc, dx, du),
        "joint": fit_joint(disc, dx, build_joint_dictionary(2, 1, 1, 1)),
        "bilinear": fit_bilinear(disc, dx, monomials(1, 1, var_prefix="u")),
        "separable-continuous": fit_separable(cont, dx, du),
        "eigen": fit_eigen(cont, eig),
        "eigen-joint": fit_eigen(cont, build_joint_dictionary(2, 1, 1, 1)),
    }


STACK_MODELS = stack_models()


def model_methods(model):
    """method name -> (callable, which of the aligned stacks X, U, Udot it takes)."""
    if model.variant == "eigen":
        out = {name: (getattr(model, name), "xu")
               for name in ("observe", "observe_jac_x", "observe_jac_u", "rate")}
        out["rate-u_dot"] = (lambda x, u, ud: model.rate(x, u, u_dot=ud), "xud")
        return out
    out = {"lift": (model.lift, "x")}
    if model.time_kind == "continuous":
        out["rate"] = (model.rate, "xu")
    else:
        out.update({name: (getattr(model, name), "xu")
                    for name in ("lift_next", "lift_next_jac_x", "lift_next_jac_u")})
    if model.input_dim == 0:
        del out["lift_next_jac_u"]
    if model.variant == "bilinear":
        out["K_of"] = (model.K_of, "u")
    return out


class TestModelStackContract:
    @pytest.mark.parametrize("label", sorted(STACK_MODELS))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_stacked_calls_equal_per_row_calls(self, label, data):
        model = STACK_MODELS[label]
        P = data.draw(st.integers(1, 50))
        cols = {key: data.draw(arrays(np.float64, (P, dim), elements=st.floats(-bound, bound)))
                for key, dim, bound in (("x", model.state_dim, 2.0),
                                        ("u", model.input_dim, 1.0), ("d", model.input_dim, 1.0))}
        for method, (fn, takes) in model_methods(model).items():
            args = [cols[key] for key in takes]
            stacked = fn(*args)
            rows = np.array([fn(*row) for row in zip(*args)])
            assert stacked.shape == rows.shape, method
            np.testing.assert_allclose(stacked, rows, rtol=1e-12,
                                       atol=1e-12 * max(1.0, np.abs(rows).max()), err_msg=method)

    def test_input_jacobians_of_stacks_are_stacked(self):
        X, U = np.zeros((4, 2)), np.zeros((4, 1))
        affine = STACK_MODELS["affine"]
        assert affine.lift_next_jac_u(X, U).shape == (4, affine.lifted_dim, 1)
        assert affine.lift_next_jac_u(X[0], U[0]).shape == (affine.lifted_dim, 1)
        eigen = STACK_MODELS["eigen"]
        assert eigen.observe_jac_u(X, U).shape == (4, eigen.lifted_dim, 1)
        assert eigen.observe_jac_u(X[0], U[0]).shape == (eigen.lifted_dim, 1)

    def test_state_only_eigen_model_checks_the_input(self):
        # psi(x, u) = psi(x) ignores the value of u, not its shape
        eigen = STACK_MODELS["eigen"]
        for method in (eigen.observe, eigen.observe_jac_x, eigen.observe_jac_u, eigen.rate):
            with pytest.raises(ValueError, match="input must have shape"):
                method(np.zeros(2), np.zeros(2))
            with pytest.raises(ValueError, match="equal row counts"):
                method(np.zeros((4, 2)), np.zeros((3, 1)))


class TestMetadataDefaults:
    @staticmethod
    def new_models():
        return [AffineModel(identity(1), [[0.5]], None, "discrete"),
                AffineModel(identity(1), [[0.5]], [[1.0]], "continuous"),
                EigenModel(identity(1), [-1.0])]

    def test_every_metadata_key_starts_at_its_default(self):
        from kooplab.formulations import _METADATA

        for model in self.new_models():
            for key, (default, _) in _METADATA.items():
                value = getattr(model, key)
                assert value == default and type(value) is type(default), (model, key)

    def test_new_models_do_not_share_notes(self):
        from kooplab.formulations import _METADATA

        models = self.new_models() + self.new_models()
        models[0].notes.append("only the first model")
        assert [m.notes for m in models[1:]] == [[]] * (len(models) - 1)
        assert len({id(m.notes) for m in models}) == len(models)
        assert _METADATA["notes"][0] == []
