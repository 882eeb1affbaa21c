"""Dynamical-consistency conditions as residual fields over state-input grids.

Each condition is a chain-rule identity that an (operator, dictionary) pair
must satisfy to represent a given system. The checkers evaluate the defect of
one identity at every grid point and report the residual field with its max,
mean, and the point of worst violation. All conditions are necessary only: a
consistent verdict never establishes that a lifted representation exists.

A residual field is one array expression over stacked ingredients. Those of
the state alone or the input alone (psi_x and its Jacobian, f_x, f_u, their
Jacobians, J_psi_x at f(x, 0) or f(0, u)) are evaluated once per grid axis
and broadcast onto the (x, u) product in state-major order. A non-finite
residual raises ValueError: such a field has no verdict.

Condition identifiers form a closed set (CONDITION_IDS). The DEF1-*/DEF2-*
conditions test a fitted model's represented dynamics directly; the T*/COR*
conditions test operator matrices against a system's decomposition pieces
f_x, f_u, f_xu and the dictionary Jacobians, and come in continuous
(T2/T3/COR1-3 and the eigen condition) and discrete (T4/T5/COR4-8) families.
CONDITIONS is the one table of which checker family evaluates each id and
which fitted models it applies to; check_model runs a model through it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import ControlledSystem, EvaluationGrid
from .formulations import VARIANTS, bilinear_to_joint
from .numerics import _mv, _stacked
from .observables import Dictionary, JointDictionary

__all__ = [
    "CONDITIONS",
    "CONDITION_IDS",
    "DEFAULT_TOLERANCE",
    "NECESSITY_QUALIFIER",
    "Condition",
    "ConsistencyReport",
    "ConsistencySummary",
    "HypothesisViolationError",
    "InapplicableConditionError",
    "check_model",
    "check_def1",
    "check_def2",
    "check_def2_joint",
    "check_theorem2",
    "check_corollary1",
    "check_corollary2",
    "check_corollary3_kma",
    "check_theorem3",
    "check_kaiser",
    "check_theorem4",
    "check_corollary4",
    "check_corollary5",
    "check_corollary6",
    "check_theorem5",
    "summarize",
    "write_reports_json",
    "read_reports_json",
    "write_summary_csv",
    "read_summary_csv",
    "REPORT_SCHEMA_VERSION",
]


class Condition(NamedTuple):
    """One row of the condition table."""

    family: str | None  # checker family; None for library-only conditions
    applies: Callable  # fitted model -> whether the CLI can evaluate the id for it
    requirement: str  # what `applies` asks of the model, for mismatch errors


def _autonomous(model) -> bool:
    return model.variant == "affine" and model.B is None


def _controlled(model) -> bool:
    # an input channel, and observables of the state alone
    return not _autonomous(model) and not getattr(model, "joint_observables", False)


def _row(family, time_kind, variants, what=None, narrow=None) -> Condition:
    return Condition(
        family,
        lambda m: (m.time_kind == time_kind and m.variant in variants
                   and (narrow is None or narrow(m))),
        f"{time_kind}-time {what or ' or '.join(variants) + ' models'}",
    )


def _library_only(what) -> Condition:
    return Condition(None, lambda m: False, what)


# condition id -> (family, applicability, requirement), in canonical report order
CONDITIONS = {
    "DEF1-AUTON": _row("DEF1", "continuous", ("affine",),
                       "autonomous affine models (no input matrix)", _autonomous),
    "DEF1-CTRL": _row("DEF1", "continuous", VARIANTS,
                      "controlled models with state observables", _controlled),
    "DEF1-JOINT": _library_only("an input-rate signal; use check_def1 with u_dot directly"),
    "DEF2-AUTON": _row("DEF2", "discrete", ("affine",),
                       "autonomous affine models (no input matrix)", _autonomous),
    **dict.fromkeys(("DEF2-CTRL-X", "DEF2-CTRL-U"),
                    _row("DEF2", "discrete", VARIANTS, "controlled models", _controlled)),
    **dict.fromkeys(("DEF2-JOINT-X", "DEF2-JOINT-U"),
                    _library_only("an input-evolution map; use check_def2_joint directly")),
    **dict.fromkeys(("T2-C1", "T2-C2", "T2-C3"), _row("T2", "continuous", ("separable",))),
    "COR1-FXU": _row("COR1", "continuous", ("affine", "separable")),
    "COR2-PAIRWISE": _row("COR2", "continuous", ("affine", "separable")),
    **dict.fromkeys(("COR3-KMA-B", "COR3-KMA-L"), _row("COR3", "continuous", ("affine",))),
    **dict.fromkeys(("T3-C1", "T3-C2"), _row("T3", "continuous", ("joint", "bilinear"))),
    "KAISER": _row("KAISER", "continuous", ("eigen",)),
    **dict.fromkeys(("T4-C1", "T4-C2", "T4-C3", "T4-C4"), _row("T4", "discrete", ("separable",))),
    "COR4-FXU": _row("COR4", "discrete", ("affine", "separable")),
    **dict.fromkeys(("COR5-PAIRWISE-U", "COR5-PAIRWISE-X"),
                    _row("COR5", "discrete", ("separable",))),
    "COR6-B": _row("COR6", "discrete", ("affine",)),
    **dict.fromkeys(("T5-C1", "T5-C2", "COR7-C1", "COR7-C2", "COR8-C1", "COR8-C2"),
                    _row("T5", "discrete", ("joint", "bilinear"))),
}

CONDITION_IDS = tuple(CONDITIONS)

DEFAULT_TOLERANCE = 1e-6
REPORT_SCHEMA_VERSION = 1

# exact-representation rounding sits below this; genuine violations far above
_HYPOTHESIS_TOL = 1e-8

NECESSITY_QUALIFIER = (
    "Necessary conditions only: a consistent verdict does not establish "
    "that a lifted representation exists."
)


def _fmt_where(where) -> str:
    if isinstance(where, tuple):
        return "(" + ", ".join(_fmt_where(w) for w in where) + ")"
    arr = np.asarray(where, dtype=float)
    if arr.ndim == 0:
        return f"{float(arr):g}"
    return "[" + ", ".join(f"{v:g}" for v in arr.ravel()) + "]"


class HypothesisViolationError(ValueError):
    """A checker's standing hypothesis fails on the supplied system/dictionary."""

    def __init__(self, hypothesis: str, max_violation: float, where=None):
        self.hypothesis = hypothesis
        self.max_violation = float(max_violation)
        loc = f" (worst at {_fmt_where(where)})" if where is not None else ""
        super().__init__(
            f"hypothesis violated: {hypothesis}; "
            f"max violation {self.max_violation:.6g}{loc}"
        )


class InapplicableConditionError(ValueError):
    """A condition does not apply to the supplied model or dictionary."""


@dataclass
class ConsistencyReport:
    """Residual field of one condition over its evaluation points.

    points maps role names to aligned (P, dim) arrays; the roles depend on
    the condition ("x", "u" for grid conditions, "x1"/"x2"/"u1"/"u2" for
    the pairwise ones). verdict is consistent iff max_residual <= tolerance;
    a non-finite residual raises ValueError, since such a field has no verdict.
    """

    condition: str
    tolerance: float
    points: dict
    residuals: np.ndarray
    note: str | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.condition not in CONDITION_IDS:
            raise ValueError(f"unknown condition id {self.condition!r}")
        self.residuals = np.asarray(self.residuals, dtype=float).ravel()
        if self.residuals.size == 0:
            raise ValueError("a report needs at least one evaluation point")
        self.points = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in self.points.items()}
        for role, arr in self.points.items():
            if arr.shape[0] != self.residuals.size:
                raise ValueError(
                    f"points[{role!r}] has {arr.shape[0]} rows for "
                    f"{self.residuals.size} residuals"
                )
        bad = np.flatnonzero(~np.isfinite(self.residuals))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"{self.condition}: non-finite residual {self.residuals[i]} at "
                f"{_format_point({role: arr[i] for role, arr in self.points.items()})}; "
                "a non-finite field has no verdict"
            )

    @property
    def n_points(self) -> int:
        return self.residuals.size

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def mean_residual(self) -> float:
        return float(np.mean(self.residuals))

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.residuals))

    @property
    def argmax_point(self) -> dict:
        i = self.argmax_index
        return {role: arr[i].copy() for role, arr in self.points.items()}

    @property
    def verdict(self) -> str:
        return "consistent" if self.max_residual <= self.tolerance else "inconsistent"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "argmax_point": {k: v.tolist() for k, v in self.argmax_point.items()},
            "n_points": self.n_points,
            "points": {k: v.tolist() for k, v in self.points.items()},
            "residual_field": self.residuals.tolist(),
            "note": self.note,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConsistencyReport":
        return cls(
            condition=d["condition"],
            tolerance=float(d["tolerance"]),
            points={k: np.asarray(v, dtype=float) for k, v in d["points"].items()},
            residuals=np.asarray(d["residual_field"], dtype=float),
            note=d.get("note"),
            details=d.get("details", {}),
        )

    def __repr__(self):
        return (
            f"ConsistencyReport({self.condition}, max={self.max_residual:.3g}, "
            f"{self.verdict})"
        )


# -- shared helpers --------------------------------------------------------------


def _inf(arr) -> float:
    arr = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _norms(R) -> np.ndarray:
    """Max-abs of each point's block of a stacked field; NaN propagates as in _inf."""
    return np.abs(R).max(axis=tuple(range(1, R.ndim)), initial=0.0)


def _worst(field, *cols):
    """(largest point norm of a stacked field, that point's rows of cols); a
    non-finite norm counts as inf, so NaN cannot pass a hypothesis guard."""
    v = _norms(field)
    v[~np.isfinite(v)] = np.inf
    i = int(np.argmax(v))
    at = tuple(c[i] for c in cols)
    return float(v[i]), at if len(at) > 1 else at[0]


def _per_state(A, grid) -> np.ndarray:
    """Per-state rows broadcast onto the product points."""
    return np.repeat(A, len(grid.inputs), axis=0)


def _per_input(A, grid) -> np.ndarray:
    """Per-input rows broadcast onto the product points."""
    return np.tile(A, (len(grid.states),) + (1,) * (A.ndim - 1))


def _product_points(grid: EvaluationGrid):
    """All (x, u) combinations as aligned arrays, state-major."""
    return _per_state(grid.states, grid), _per_input(grid.inputs, grid)


def _axes(system, grid):
    """Aligned rows (x, 0) over the states and (0, u) over the inputs."""
    return (_product_points(grid.autonomous()),
            (np.zeros((len(grid.inputs), system.state_dim)), grid.inputs))


def _next_jacobian(system, dict_x, X, U) -> np.ndarray:
    """J+ = J_psi_x(f(x, u)) at the aligned rows of X, U."""
    return dict_x.jacobian(system.evaluate(X, U))


def _drift_residuals(system, dict_x, L, grid, J) -> np.ndarray:
    """|| J_psi_x(x) f_x(x) - L psi_x(x) || over the states, J = J_psi_x per state."""
    F = system.f_x(grid.states)
    return _norms(_mv(J, F) - _mv(L, dict_x.evaluate(grid.states)))


def _require_time_kind(system: ControlledSystem, kind: str, checker: str):
    if system.time_kind != kind:
        raise ValueError(f"{checker} applies to {kind}-time systems, got {system.time_kind}")


def _require_state_inclusive(dict_x: Dictionary, checker: str):
    if not dict_x.state_inclusive:
        raise InapplicableConditionError(
            f"{checker} is inapplicable: the dictionary is not state-inclusive "
            "(it must contain every coordinate observable)"
        )


def _check_sep_hypotheses(system, dict_u, grid, tol=_HYPOTHESIS_TOL):
    """Hypotheses shared by the separable-formulation conditions."""
    v = _inf(system.f_u(np.zeros(system.input_dim)))
    if not v <= tol:
        raise HypothesisViolationError("f_u(0) = 0", v)
    x_axis, u_axis = _axes(system, grid)
    worst, worst_x = _worst(system.f_xu(*x_axis), grid.states)
    if worst > tol:
        raise HypothesisViolationError("f_xu(x, 0) = 0", worst, where=worst_x)
    worst, worst_u = _worst(system.f_xu(*u_axis), grid.inputs)
    if worst > tol:
        raise HypothesisViolationError("f_xu(0, u) = 0", worst, where=worst_u)
    if dict_u is not None:
        v = _inf(dict_u.evaluate(np.zeros(dict_u.input_dim)))
        if not v <= tol:
            raise HypothesisViolationError("psi_u(0) = 0", v)


def _check_fxu_vanishes(system, grid, tol=_HYPOTHESIS_TOL):
    X, U = _product_points(grid)
    worst, worst_at = _worst(system.f_xu(X, U), X, U)
    if worst > tol:
        raise HypothesisViolationError("f_xu(x, u) = 0", worst, where=worst_at)


def _sample_pair_indices(grid, n_pairs, seed, n_index_sets):
    rng = np.random.default_rng(seed)
    sizes = {"x": len(grid.states), "u": len(grid.inputs)}
    return [rng.integers(0, sizes[kind], size=n_pairs) for kind in n_index_sets]


# -- definition-level checks -------------------------------------------------------


def check_def1(system: ControlledSystem, model, grid: EvaluationGrid,
               u_dot=None, tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Compare a continuous model's represented lift rate with the chain rule.

    The residual is || model rate - J_psi(x) f(x, u) || at each point, with
    the input-rate transport term J_u_psi udot added to both sides when the
    model's observables depend on the input (udot must then be supplied as a
    constant array or a callable (x, u) -> udot).
    """
    _require_time_kind(system, "continuous", "check_def1")
    if model.time_kind != "continuous":
        raise ValueError("check_def1 needs a continuous-time model")
    joint = model.variant == "eigen" and model.joint_observables
    if joint and u_dot is None:
        raise ValueError(
            "model observables depend on the input: supply u_dot "
            "(a constant array or a callable (x, u) -> udot) to evaluate "
            "the transport term"
        )

    auton = _autonomous(model)
    g = grid.autonomous() if auton else grid
    X, U = _product_points(g)
    F = system.evaluate(X, U)
    if joint:
        Udot = (_stacked(u_dot, (system.input_dim,))(X, U) if callable(u_dot)
                else np.broadcast_to(np.asarray(u_dot, dtype=float), U.shape))
        truth = _mv(model.observe_jac_x(X, U), F) + _mv(model.observe_jac_u(X, U), Udot)
        rate = model.rate(X, U, u_dot=Udot)
    else:
        jac = model.eigendict.jacobian if model.variant == "eigen" else model.dict_x.jacobian
        truth = _mv(_per_state(jac(g.states), g), F)
        rate = model.rate(X, U)
    cid = "DEF1-AUTON" if auton else "DEF1-JOINT" if joint else "DEF1-CTRL"
    points = {"x": X} if auton else {"x": X, "u": U}
    return ConsistencyReport(cid, tolerance, points, _norms(rate - truth))


def check_def2(system: ControlledSystem, model, grid: EvaluationGrid,
               tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Compare a discrete model's next-step lift derivatives with chain-rule truth.

    The x-identity residual is || d(model lift_next)/dx - J_psi(f(x,u)) df/dx ||
    and likewise in u; an autonomous model (no input channel) yields the single
    zero-input x-identity report.
    """
    _require_time_kind(system, "discrete", "check_def2")
    if model.time_kind != "discrete":
        raise ValueError("check_def2 needs a discrete-time model")

    auton = _autonomous(model)
    g = grid.autonomous() if auton else grid
    X, U = _product_points(g)
    points = {"x": X} if auton else {"x": X, "u": U}
    J = _next_jacobian(system, model.dict_x, X, U)
    res_x = model.lift_next_jac_x(X, U) - J @ system.jacobian_x(X, U)
    if auton:
        return [ConsistencyReport("DEF2-AUTON", tolerance, points, _norms(res_x))]
    res_u = model.lift_next_jac_u(X, U) - J @ system.jacobian_u(X, U)
    return [
        ConsistencyReport("DEF2-CTRL-X", tolerance, points, _norms(res_x)),
        ConsistencyReport("DEF2-CTRL-U", tolerance, points, _norms(res_u)),
    ]


def check_def2_joint(system: ControlledSystem, joint_dict: JointDictionary, K,
                     grid: EvaluationGrid, input_evolution=None,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Next-step derivative identities for a lift of joint observables psi(x, u).

    K is the one-step matrix on the joint dictionary. Because psi at step
    k+1 takes an input argument, the u-identity carries a transport term
    J_u_psi(x_{k+1}, u_{k+1}) du_{k+1}/du_k that is only evaluable when the
    input dynamics are modeled: pass input_evolution = (map, jacobian) with
    map(u) -> u_{k+1} and jacobian(u) -> du_{k+1}/du_k. Without it, psi at
    step k+1 is evaluated at the held input u_k, the transport term is
    omitted, and both reports carry explanatory notes; u_{k+1} = u_k is
    never assumed for the derivative itself.
    """
    _require_time_kind(system, "discrete", "check_def2_joint")
    K = np.asarray(K, dtype=float)
    if K.shape != (joint_dict.size, joint_dict.size):
        raise ValueError(
            f"K must be {joint_dict.size}x{joint_dict.size} for this "
            f"dictionary, got {K.shape}"
        )

    X, U = _product_points(grid)
    m = system.input_dim
    U_next = U
    if input_evolution is not None:
        u_map, u_jac = input_evolution
        U_next = _per_input(_stacked(u_map, (m,))(grid.inputs), grid)
    X_next = system.evaluate(X, U)
    J_next = joint_dict.jacobian_x(X_next, U_next)
    rhs_x = J_next @ system.jacobian_x(X, U)
    rhs_u = J_next @ system.jacobian_u(X, U)
    if input_evolution is not None:
        rhs_u = rhs_u + joint_dict.jacobian_u(X_next, U_next) @ _per_input(
            _stacked(u_jac, (m, m))(grid.inputs), grid)
    res_x = _norms(K @ joint_dict.jacobian_x(X, U) - rhs_x)
    res_u = _norms(K @ joint_dict.jacobian_u(X, U) - rhs_u)

    note_x = note_u = None
    if input_evolution is None:
        note_x = (
            "input dynamics unmodeled: psi at step k+1 evaluated at the held "
            "input u_k"
        )
        note_u = note_x + "; transport term J_u_psi du_{k+1}/du_k not evaluated"
    return [
        ConsistencyReport("DEF2-JOINT-X", tolerance, {"x": X, "u": U}, res_x, note=note_x),
        ConsistencyReport("DEF2-JOINT-U", tolerance, {"x": X, "u": U}, res_u, note=note_u),
    ]


# -- continuous separable family (T2, COR1-3) ------------------------------------


def check_theorem2(system: ControlledSystem, dict_x: Dictionary, dict_u: Dictionary,
                   L_x, L_u, grid: EvaluationGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Continuous separable-formulation conditions.

    T2-C1: || J_psi_x(x) f_x(x) - L_x psi_x(x) ||            over states
    T2-C2: || J_psi_x(0) f_u(u) - L_u psi_u(u) ||            over inputs
    T2-C3: || (J_psi_x(x) - J_psi_x(0)) f_u(u)
              + J_psi_x(x) f_xu(x, u) ||                     over the product

    Hypotheses f_u(0) = 0, f_xu(x, 0) = f_xu(0, u) = 0, psi_u(0) = 0 are
    verified first and raise HypothesisViolationError when broken.
    """
    _require_time_kind(system, "continuous", "check_theorem2")
    _check_sep_hypotheses(system, dict_u, grid)
    L_x = np.asarray(L_x, dtype=float)
    L_u = np.asarray(L_u, dtype=float)
    J0 = dict_x.jacobian(np.zeros(system.state_dim))
    J = dict_x.jacobian(grid.states)
    Fu = system.f_u(grid.inputs)
    X, U = _product_points(grid)

    res1 = _drift_residuals(system, dict_x, L_x, grid, J)
    res2 = _norms(_mv(J0, Fu) - _mv(L_u, dict_u.evaluate(grid.inputs)))
    Jp = _per_state(J, grid)
    res3 = _norms(_mv(Jp - J0, _per_input(Fu, grid)) + _mv(Jp, system.f_xu(X, U)))
    return [
        ConsistencyReport("T2-C1", tolerance, {"x": grid.states}, res1),
        ConsistencyReport("T2-C2", tolerance, {"u": grid.inputs}, res2),
        ConsistencyReport("T2-C3", tolerance, {"x": X, "u": U}, res3),
    ]


def _fxu_field_report(system, grid, condition, tolerance,
                      with_jacobians=False) -> ConsistencyReport:
    X, U = _product_points(grid)
    details = {}
    if with_jacobians:
        details = {"max_cross_jac_x": _inf(system.jacobian_fxu_x(X, U)),
                   "max_cross_jac_u": _inf(system.jacobian_fxu_u(X, U))}
    return ConsistencyReport(condition, tolerance, {"x": X, "u": U},
                             _norms(system.f_xu(X, U)), details=details)


def check_corollary1(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """State-inclusive separable representations force f_xu = 0 (continuous).

    The residual field is || f_xu(x, u) || itself; an inconsistent verdict
    means no consistent separable representation with this dictionary exists.
    """
    _require_time_kind(system, "continuous", "check_corollary1")
    _require_state_inclusive(dict_x, "check_corollary1")
    return _fxu_field_report(system, grid, "COR1-FXU", tolerance)


def check_corollary2(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     n_pairs: int = 200, seed: int = 0,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Pairwise x-independence of the input response (continuous).

    Residual || (J_psi_x(x1) - J_psi_x(x2)) f_u(u) || over seeded random
    (x1, x2, u) triples drawn from the grid. Hypothesis: f_xu = 0.
    """
    _require_time_kind(system, "continuous", "check_corollary2")
    _check_fxu_vanishes(system, grid)
    return _pairwise_report(system, dict_x, grid, n_pairs, seed, tolerance)


def _pairwise_report(system, dict_x, grid, n_pairs, seed, tolerance) -> ConsistencyReport:
    """The COR2 field, once its hypothesis f_xu = 0 is settled."""
    i1, i2, iu = _sample_pair_indices(grid, n_pairs, seed, ("x", "x", "u"))
    J = dict_x.jacobian(grid.states)
    res = _norms(_mv(J[i1] - J[i2], system.f_u(grid.inputs)[iu]))
    return ConsistencyReport(
        "COR2-PAIRWISE", tolerance,
        {"x1": grid.states[i1], "x2": grid.states[i2], "u": grid.inputs[iu]}, res
    )


def check_corollary3_kma(system: ControlledSystem, dict_x: Dictionary, L, B,
                         grid: EvaluationGrid, n_pairs: int = 200, seed: int = 0,
                         tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Conditions for the continuous affine formulation (constant B).

    Returns the inherited COR1/COR2 checks plus
    COR3-KMA-B: || J_psi_x(0) df_u/du(u) - B ||     over inputs
    COR3-KMA-L: || J_psi_x(x) f_x(x) - L psi_x(x) || over states

    When f_xu is not identically zero the pairwise check's hypothesis fails;
    that report is skipped (the cross-term violation is already captured by
    COR1-FXU, which carries a note).
    """
    _require_time_kind(system, "continuous", "check_corollary3_kma")
    _require_state_inclusive(dict_x, "check_corollary3_kma")
    L = np.asarray(L, dtype=float)
    B = np.asarray(B, dtype=float)

    # the COR1 field is finite (the report rejects NaN), so its max is the
    # worst violation of COR2's hypothesis f_xu = 0
    reports = [_fxu_field_report(system, grid, "COR1-FXU", tolerance)]
    if reports[0].max_residual <= _HYPOTHESIS_TOL:
        reports.append(_pairwise_report(system, dict_x, grid, n_pairs, seed, tolerance))
    else:
        reports[0].note = "cross term nonzero: pairwise condition skipped (its hypothesis fails)"

    J0 = dict_x.jacobian(np.zeros(system.state_dim))
    res_b = _norms(J0 @ system.jacobian_fu(grid.inputs) - B)
    reports.append(ConsistencyReport("COR3-KMA-B", tolerance, {"u": grid.inputs}, res_b))
    res_l = _drift_residuals(system, dict_x, L, grid, dict_x.jacobian(grid.states))
    reports.append(ConsistencyReport("COR3-KMA-L", tolerance, {"x": grid.states}, res_l))
    return reports


def check_theorem3(system: ControlledSystem, dict_x: Dictionary,
                   dict_xu: JointDictionary, L_x, L_xu, grid: EvaluationGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Continuous joint-formulation conditions.

    The decomposition here is f = f_x + cross with cross(x, 0) = 0; the
    system's f_u piece is folded into the cross term (cross = f_u + f_xu),
    which keeps cross(x, 0) = 0 automatically.

    T3-C1: || J_psi_x(x) f_x(x) - L_x psi_x(x) ||           over states
    T3-C2: || J_psi_x(x) cross(x, u) - L_xu psi_xu(x, u) || over the product

    Hypothesis: psi_xu(x, 0) = 0 on the grid.
    """
    _require_time_kind(system, "continuous", "check_theorem3")
    L_x = np.asarray(L_x, dtype=float)
    L_xu = np.asarray(L_xu, dtype=float)

    x_axis, _ = _axes(system, grid)
    worst, worst_x = _worst(dict_xu.evaluate(*x_axis), grid.states)
    if worst > _HYPOTHESIS_TOL:
        raise HypothesisViolationError("psi_xu(x, 0) = 0", worst, where=worst_x)

    J = dict_x.jacobian(grid.states)
    X, U = _product_points(grid)
    cross = _per_input(system.f_u(grid.inputs), grid) + system.f_xu(X, U)
    res2 = _norms(_mv(_per_state(J, grid), cross) - _mv(L_xu, dict_xu.evaluate(X, U)))
    return [
        ConsistencyReport("T3-C1", tolerance, {"x": grid.states},
                          _drift_residuals(system, dict_x, L_x, grid, J)),
        ConsistencyReport("T3-C2", tolerance, {"x": X, "u": U}, res2),
    ]


def check_kaiser(system: ControlledSystem, eigendict, Lam, grid: EvaluationGrid,
                 tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Diagonal eigen-formulation condition (continuous).

    Residual || J_x_psi(x, u) f(x, u) - Lambda psi(x, u) || over the grid.
    The input-rate transport term appears identically on both sides of the
    defining relation and cancels, so it is not part of this condition.
    Lambda may be given as a vector of eigenvalues or a strictly diagonal
    matrix.
    """
    _require_time_kind(system, "continuous", "check_kaiser")
    Lam = np.asarray(Lam, dtype=float)
    if Lam.ndim == 2:
        if Lam.shape[0] != Lam.shape[1] or _inf(Lam - np.diag(np.diag(Lam))) > 0:
            raise ValueError("Lambda must be strictly diagonal")
        lam = np.diag(Lam).copy()
    elif Lam.ndim == 1:
        lam = Lam
    else:
        raise ValueError("Lambda must be a vector or a diagonal matrix")
    if lam.shape[0] != eigendict.size:
        raise ValueError(
            f"need one eigenvalue per observable ({eigendict.size}), got {lam.shape[0]}"
        )

    X, U = _product_points(grid)
    if isinstance(eigendict, JointDictionary):
        psi, J = eigendict.evaluate(X, U), eigendict.jacobian_x(X, U)
    else:
        psi = _per_state(eigendict.evaluate(grid.states), grid)
        J = _per_state(eigendict.jacobian(grid.states), grid)
    res = _norms(_mv(J, system.evaluate(X, U)) - lam * psi)
    return ConsistencyReport("KAISER", tolerance, {"x": X, "u": U}, res)


# -- discrete separable family (T4, COR4-6) ---------------------------------------


def check_theorem4(system: ControlledSystem, dict_x: Dictionary, dict_u: Dictionary,
                   K_x, K_u, grid: EvaluationGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Discrete separable-formulation conditions.

    With J+ denoting J_psi_x evaluated at the relevant next state:

    T4-C1: || J+(f(x,0)) df_x/dx(x) - K_x J_psi_x(x) ||         over states
    T4-C2: || J+(f(0,u)) df_u/du(u) - K_u J_psi_u(u) ||         over inputs
    T4-C3: || (J+(f(x,u)) - J+(f(0,u))) df_u/du(u)
              + J+(f(x,u)) df_xu/du(x,u) ||                     over the product
    T4-C4: || (J+(f(x,u)) - J+(f(x,0))) df_x/dx(x)
              + J+(f(x,u)) df_xu/dx(x,u) ||                     over the product

    The restricted evaluations re-evaluate the next state at u = 0 or x = 0
    accordingly. Hypotheses as in the continuous separable case.
    """
    _require_time_kind(system, "discrete", "check_theorem4")
    _check_sep_hypotheses(system, dict_u, grid)
    K_x = np.asarray(K_x, dtype=float)
    K_u = np.asarray(K_u, dtype=float)
    x_axis, u_axis = _axes(system, grid)
    X, U = _product_points(grid)
    Dfx = system.jacobian_fx(grid.states)
    Dfu = system.jacobian_fu(grid.inputs)
    J_x0 = _next_jacobian(system, dict_x, *x_axis)
    J_0u = _next_jacobian(system, dict_x, *u_axis)
    J = _next_jacobian(system, dict_x, X, U)

    res1 = _norms(J_x0 @ Dfx - K_x @ dict_x.jacobian(grid.states))
    res2 = _norms(J_0u @ Dfu - K_u @ dict_u.jacobian(grid.inputs))
    res3 = _norms((J - _per_input(J_0u, grid)) @ _per_input(Dfu, grid)
                  + J @ system.jacobian_fxu_u(X, U))
    res4 = _norms((J - _per_state(J_x0, grid)) @ _per_state(Dfx, grid)
                  + J @ system.jacobian_fxu_x(X, U))
    return [
        ConsistencyReport("T4-C1", tolerance, {"x": grid.states}, res1),
        ConsistencyReport("T4-C2", tolerance, {"u": grid.inputs}, res2),
        ConsistencyReport("T4-C3", tolerance, {"x": X, "u": U}, res3),
        ConsistencyReport("T4-C4", tolerance, {"x": X, "u": U}, res4),
    ]


def check_corollary4(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """State-inclusive separable representations force f_xu = 0 (discrete).

    The residual field is || f_xu(x, u) ||; the details record the largest
    cross-term Jacobian norms in x and u, the proof's intermediate quantities.
    """
    _require_time_kind(system, "discrete", "check_corollary4")
    _require_state_inclusive(dict_x, "check_corollary4")
    return _fxu_field_report(system, grid, "COR4-FXU", tolerance, with_jacobians=True)


def check_corollary5(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     n_pairs: int = 200, seed: int = 0,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Pairwise next-state independence conditions (discrete).

    Over seeded random quadruples (x1, x2, u1, u2) from the grid:

    COR5-PAIRWISE-U: || (J+(f(x1,u1)) - J+(f(x2,u1))) df_u/du(u1) ||
    COR5-PAIRWISE-X: || (J+(f(x1,u1)) - J+(f(x1,u2))) df_x/dx(x1) ||

    Hypothesis: f_xu = 0.
    """
    _require_time_kind(system, "discrete", "check_corollary5")
    _check_fxu_vanishes(system, grid)
    i1, i2, j1, j2 = _sample_pair_indices(grid, n_pairs, seed, ("x", "x", "u", "u"))
    X1, X2 = grid.states[i1], grid.states[i2]
    U1, U2 = grid.inputs[j1], grid.inputs[j2]

    J_11 = _next_jacobian(system, dict_x, X1, U1)
    res_u = _norms((J_11 - _next_jacobian(system, dict_x, X2, U1))
                   @ system.jacobian_fu(grid.inputs)[j1])
    res_x = _norms((J_11 - _next_jacobian(system, dict_x, X1, U2))
                   @ system.jacobian_fx(grid.states)[i1])
    return [
        ConsistencyReport(
            "COR5-PAIRWISE-U", tolerance, {"x1": X1, "x2": X2, "u1": U1}, res_u
        ),
        ConsistencyReport(
            "COR5-PAIRWISE-X", tolerance, {"x1": X1, "u1": U1, "u2": U2}, res_x
        ),
    ]


def check_corollary6(system: ControlledSystem, dict_x: Dictionary, K, B,
                     grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Conditions for the discrete affine formulation (constant B).

    Returns the inherited COR4-FXU check plus
    COR6-B: || J_psi_x(f(x,u)) df_u/du(u) - B ||  over the product.
    """
    _require_time_kind(system, "discrete", "check_corollary6")
    _require_state_inclusive(dict_x, "check_corollary6")
    B = np.asarray(B, dtype=float)

    reports = [_fxu_field_report(system, grid, "COR4-FXU", tolerance, with_jacobians=True)]
    X, U = _product_points(grid)
    J = _next_jacobian(system, dict_x, X, U)
    res = _norms(J @ _per_input(system.jacobian_fu(grid.inputs), grid) - B)
    reports.append(ConsistencyReport("COR6-B", tolerance, {"x": X, "u": U}, res))
    return reports


def check_theorem5(system: ControlledSystem, dict_x: Dictionary,
                   dict_xu: JointDictionary, K_x, K_xu, grid: EvaluationGrid,
                   tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Discrete joint-formulation conditions, with their corollary variants.

    With J+ = J_psi_x at the indicated next state and the full derivatives
    df/dx, df/du of the assembled map:

    T5-C1:   || J+(f(x,0)) df/dx(x,0)
                - (K_x J_psi_x(x) + K_xu J_x_psi_xu(x,0)) ||   over states
    T5-C2:   || J+(f(x,u)) df/du(x,u) - K_xu J_u_psi_xu(x,u) || over the product
    COR7-C1: T5-C1 without the K_xu term (it vanishes under the hypothesis
             psi_xu(x, 0) = 0)
    COR7-C2: the T5-C2 identity under the same hypothesis
    COR8-C1: || J+(f(x,0)) df_x/dx(x) - K_x J_psi_x(x) ||      over states
    COR8-C2: || J+(f(x,u)) dcross/du(x,u) - K_xu J_u_psi_xu(x,u) ||
             with cross = f_u + f_xu folded as in the continuous joint case

    The COR7/COR8 reports are produced only when psi_xu(x, 0) = 0 holds on
    the grid; otherwise the T5 reports are returned alone, with a note
    recording the per-variant hypothesis violation.
    """
    _require_time_kind(system, "discrete", "check_theorem5")
    K_x = np.asarray(K_x, dtype=float)
    K_xu = np.asarray(K_xu, dtype=float)
    x_axis, _ = _axes(system, grid)
    worst, worst_x = _worst(dict_xu.evaluate(*x_axis), grid.states)

    J_x0 = _next_jacobian(system, dict_x, *x_axis)
    lhs_full = J_x0 @ system.jacobian_x(*x_axis)
    base = K_x @ dict_x.jacobian(grid.states)
    res_t5c1 = _norms(lhs_full - base - K_xu @ dict_xu.jacobian_x(*x_axis))
    res_c7c1 = _norms(lhs_full - base)
    res_c8c1 = _norms(J_x0 @ system.jacobian_fx(grid.states) - base)

    # dcross/du = df_u/du + df_xu/du is df/du, so COR8-C2 shares T5-C2's field
    X, U = _product_points(grid)
    J = _next_jacobian(system, dict_x, X, U)
    res_t5c2 = _norms(J @ system.jacobian_u(X, U) - K_xu @ dict_xu.jacobian_u(X, U))

    reports = [
        ConsistencyReport("T5-C1", tolerance, {"x": grid.states}, res_t5c1),
        ConsistencyReport("T5-C2", tolerance, {"x": X, "u": U}, res_t5c2),
    ]
    if not worst <= _HYPOTHESIS_TOL:
        note = (
            f"COR7/COR8 variants skipped: hypothesis psi_xu(x, 0) = 0 fails "
            f"(max |psi_xu(x, 0)| = {worst:.3g} at x = {worst_x})"
        )
        for r in reports:
            r.note = note
        return reports

    reports.extend([
        ConsistencyReport("COR7-C1", tolerance, {"x": grid.states}, res_c7c1),
        ConsistencyReport("COR7-C2", tolerance, {"x": X, "u": U}, res_t5c2.copy()),
        ConsistencyReport("COR8-C1", tolerance, {"x": grid.states}, res_c8c1),
        ConsistencyReport("COR8-C2", tolerance, {"x": X, "u": U}, res_t5c2.copy()),
    ])
    return reports


# -- fitted models through the condition table -------------------------------------


def _input_matrix(system, model):
    # an autonomous affine model has the zero input matrix
    return model.B if model.B is not None else np.zeros((model.K.shape[0], system.input_dim))


def _joint_operators(model):
    # operator-family conditions see a bilinear model in its joint form
    joint = bilinear_to_joint(model) if model.variant == "bilinear" else model
    return joint.dict_x, joint.dict_xu, joint.K_x, joint.K_xu


# family -> its public checker for a fitted model, (system, model, grid, tol, seed)
# -> reports; checkers are looked up by name at call time, so a rebound one is used
_FAMILY_CHECKS = {
    "DEF1": lambda s, m, g, tol, seed: [check_def1(s, m, g, tolerance=tol)],
    "DEF2": lambda s, m, g, tol, seed: check_def2(s, m, g, tolerance=tol),
    "T2": lambda s, m, g, tol, seed: check_theorem2(
        s, m.dict_x, m.dict_u, m.K_x, m.K_u, g, tolerance=tol),
    "COR1": lambda s, m, g, tol, seed: [check_corollary1(s, m.dict_x, g, tolerance=tol)],
    "COR2": lambda s, m, g, tol, seed: [
        check_corollary2(s, m.dict_x, g, seed=seed, tolerance=tol)],
    "COR3": lambda s, m, g, tol, seed: check_corollary3_kma(
        s, m.dict_x, m.K, _input_matrix(s, m), g, seed=seed, tolerance=tol),
    "T3": lambda s, m, g, tol, seed: check_theorem3(s, *_joint_operators(m), g, tolerance=tol),
    "KAISER": lambda s, m, g, tol, seed: [check_kaiser(s, m.eigendict, m.Lam, g, tolerance=tol)],
    "T4": lambda s, m, g, tol, seed: check_theorem4(
        s, m.dict_x, m.dict_u, m.K_x, m.K_u, g, tolerance=tol),
    "COR4": lambda s, m, g, tol, seed: [check_corollary4(s, m.dict_x, g, tolerance=tol)],
    "COR5": lambda s, m, g, tol, seed: check_corollary5(s, m.dict_x, g, seed=seed, tolerance=tol),
    "COR6": lambda s, m, g, tol, seed: check_corollary6(
        s, m.dict_x, m.K, _input_matrix(s, m), g, tolerance=tol),
    "T5": lambda s, m, g, tol, seed: check_theorem5(s, *_joint_operators(m), g, tolerance=tol),
}

# COR3 already returns the COR1/COR2 reports, and COR6 the COR4 report
_SUBSUMED = {"COR3": ("COR1", "COR2"), "COR6": ("COR4",)}


def _families(ids) -> list:
    return list(dict.fromkeys(CONDITIONS[cid].family for cid in ids))


def check_model(system: ControlledSystem, model, grid: EvaluationGrid,
                tolerance: float = DEFAULT_TOLERANCE, seed: int = 0,
                conditions=None) -> tuple[list, list]:
    """Evaluate table conditions for a fitted model; returns (reports, skipped).

    conditions = None runs every family with an id whose CONDITIONS row
    applies to the model; a family whose hypothesis fails, or which is
    inapplicable to the model's dictionary, is skipped with a
    (family, reason) note, and any other error propagates. An explicit id
    list is strict: an id whose row does not apply raises
    InapplicableConditionError, hypothesis violations propagate, and only
    the requested reports are returned. seed drives the pairwise samples.
    """
    def run(family):
        return _FAMILY_CHECKS[family](system, model, grid, tolerance, seed)

    if conditions is None:
        families = _families(cid for cid, c in CONDITIONS.items() if c.applies(model))
        subsumed = {f for family in families for f in _SUBSUMED.get(family, ())}
        reports, skipped = [], []
        for family in families:
            if family in subsumed:
                continue
            try:
                reports.extend(run(family))
            except (HypothesisViolationError, InapplicableConditionError) as exc:
                skipped.append((family, str(exc)))
        if getattr(model, "joint_observables", False):
            skipped.append(("DEF1", "input-rate signal unavailable in batch mode"))
        return reports, skipped

    for cid in conditions:
        if not CONDITIONS[cid].applies(model):
            raise InapplicableConditionError(
                f"condition {cid} requires {CONDITIONS[cid].requirement}; the loaded "
                f"model is a {model.time_kind}-time {model.variant} model"
            )
    wanted = set(conditions)
    reports = [r for family in _families(conditions) for r in run(family)]
    return [r for r in reports if r.condition in wanted], []


# -- summaries and serialization ---------------------------------------------------


@dataclass
class ConsistencySummary:
    """Ordered roll-up of consistency reports with an overall verdict."""

    reports: list
    overall_verdict: str
    qualifier: str = NECESSITY_QUALIFIER

    def to_rows(self) -> list[dict]:
        rows = []
        for r in self.reports:
            rows.append({
                "condition": r.condition,
                "max_residual": r.max_residual,
                "mean_residual": r.mean_residual,
                "argmax": _format_point(r.argmax_point),
                "verdict": r.verdict,
                "tolerance": r.tolerance,
                "note": r.note or "",
            })
        return rows

    def to_text(self) -> str:
        rows = self.to_rows()
        widths = {
            "condition": max(9, *(len(r["condition"]) for r in rows)),
            "verdict": 12,
        }
        lines = [
            f"{'condition':<{widths['condition']}}  {'max':>12}  {'mean':>12}  "
            f"{'verdict':<{widths['verdict']}}  argmax"
        ]
        for r in rows:
            lines.append(
                f"{r['condition']:<{widths['condition']}}  "
                f"{r['max_residual']:>12.4e}  {r['mean_residual']:>12.4e}  "
                f"{r['verdict']:<{widths['verdict']}}  {r['argmax']}"
            )
        lines.append(f"overall: {self.overall_verdict}")
        lines.append(self.qualifier)
        return "\n".join(lines)


def _format_point(point: dict) -> str:
    parts = []
    for role in sorted(point):
        vals = ",".join(repr(float(v)) for v in np.atleast_1d(point[role]))
        parts.append(f"{role}={vals}")
    return "; ".join(parts)


def _parse_point(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split("; "):
        role, vals = part.split("=", 1)
        out[role] = np.array([float(v) for v in vals.split(",")])
    return out


def summarize(reports) -> ConsistencySummary:
    """Order reports canonically and attach the overall verdict."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot summarize an empty report list")
    order = {cid: i for i, cid in enumerate(CONDITION_IDS)}
    indexed = sorted(enumerate(reports), key=lambda t: (order[t[1].condition], t[0]))
    ordered = [r for _, r in indexed]
    overall = "consistent" if all(r.verdict == "consistent" for r in ordered) else "inconsistent"
    return ConsistencySummary(ordered, overall)


def write_reports_json(reports, path) -> Path:
    """Full residual fields, one JSON document for a list of reports."""
    if isinstance(reports, ConsistencyReport):
        reports = [reports]
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "qualifier": NECESSITY_QUALIFIER,
        "reports": [r.to_dict() for r in reports],
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_reports_json(path) -> list[ConsistencyReport]:
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema_version {version!r}; "
            f"this build reads version {REPORT_SCHEMA_VERSION}"
        )
    return [ConsistencyReport.from_dict(d) for d in doc["reports"]]


_SUMMARY_FIELDS = ("condition", "max_residual", "mean_residual", "argmax",
                   "verdict", "tolerance", "note")


def write_summary_csv(summary: ConsistencySummary, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        for row in summary.to_rows():
            row = dict(row)
            row["max_residual"] = repr(row["max_residual"])
            row["mean_residual"] = repr(row["mean_residual"])
            row["tolerance"] = repr(row["tolerance"])
            writer.writerow(row)
    return path


def read_summary_csv(path) -> list[dict]:
    """Rows with numeric fields parsed and argmax decoded to arrays."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        out.append({
            "condition": row["condition"],
            "max_residual": float(row["max_residual"]),
            "mean_residual": float(row["mean_residual"]),
            "argmax": _parse_point(row["argmax"]),
            "verdict": row["verdict"],
            "tolerance": float(row["tolerance"]),
            "note": row["note"],
        })
    return out
