"""Dynamical-consistency conditions as residual fields over state-input grids.

Each condition is a chain-rule identity that an (operator, dictionary) pair
must satisfy to represent a given system. The checkers evaluate the defect of
one identity at every grid point and report the residual field with its max,
mean, and the point of worst violation. All conditions are necessary only: a
consistent verdict never establishes that a lifted representation exists.

The conditions share their ingredients: f, its pieces f_x, f_u, f_xu, their
Jacobians, and psi and J_psi at the states, the inputs and the next states
f(x, u), f(x, 0), f(0, u). One ingredient object per (system, grid) evaluates
each once, as one read-only stack, and check_model hands one to every family.
The grid holds read-only copies of its points and lays out the (x, u)
product state-major. The pair point sets (x, u), (x, 0) and (0, u) are the
products of the grid, of its autonomous() slice and of the zero state with
its inputs, and an ingredient on one comes from the one grid hook
`numerics._on_grid`. The hook runs the owner's kernel, in its one form
kernel(X, U, ex, eu), on that grid's states and inputs: each factor of x
alone is evaluated once per state and each factor of u alone once per input,
then broadcast onto the product rows with the kernel's own arithmetic, so
every field is the same bit for bit. Each residual is `_norms` of the
terms of its identity, grouped as in the checker docstring: stacks on the
product, added left to right, and a point's residual is the max-abs entry
of its block (the || . ||), one reduction over the blocks laid out (k, P).
A non-finite residual raises ValueError: such a field has no verdict.

Condition identifiers form a closed set (CONDITION_IDS). The DEF1-*/DEF2-*
conditions test a fitted model's represented dynamics directly; the T*/COR*
conditions test operator matrices against a system's decomposition pieces
f_x, f_u, f_xu and the dictionary Jacobians, and come in continuous
(T2/T3/COR1-3 and the eigen condition) and discrete (T4/T5/COR4-8) families.
CONDITIONS is the one table of which checker family evaluates each id and
which fitted models it applies to; check_model runs a model through it. An
id comes from its row's family alone: affine models (separable ones with
psi_u(u) = u) get COR1, COR2 and COR4 because those rows list them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import ControlledSystem, EvaluationGrid
from .formulations import VARIANTS, bilinear_to_joint
from .numerics import (_check_seed, _mv, _on_grid, _read_json_object, _read_only, _rng,
                       _stacked, _violation, _write_csv, _write_json)
from .observables import Dictionary, JointDictionary, _as_joint

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
    "report_provenance",
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
    return not _autonomous(model) and not model.joint_observables


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
    "DEF1-JOINT": _row("DEF1", "continuous", ("eigen",), "eigen models with joint observables",
                       lambda m: m.joint_observables),
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
REPORT_SCHEMA_VERSION = 2

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
        self.where = where
        loc = f" (worst at {_fmt_where(where)})" if where is not None else ""
        super().__init__(
            f"hypothesis violated: {hypothesis}; "
            f"max violation {self.max_violation:.6g}{loc}"
        )


class InapplicableConditionError(ValueError):
    """A condition does not apply to the supplied model or dictionary."""


@dataclass(frozen=True)
class ConsistencyReport:
    """Residual field of one condition over its evaluation points.

    points maps role names to aligned (P, dim) arrays; the roles depend on
    the condition ("x", "u" for grid conditions, "x1"/"x2"/"u1"/"u2" for
    the pairwise ones). verdict is consistent iff max_residual <= tolerance;
    a non-finite residual, or a tolerance that is not positive and finite,
    raises ValueError, since such a field has no verdict. A report is frozen,
    and it holds read-only arrays (copies of writable ones), so n_points,
    argmax_index, max_residual, mean_residual, verdict and the JSON summary
    are computed once, at construction, and every output reads that result.
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
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        put = partial(object.__setattr__, self)  # frozen: only construction sets attributes

        def owned(a):  # a read-only array is shared as it is, a writable one copied
            a = np.asarray(a, dtype=float)
            return _read_only(a.copy() if a.flags.writeable else a)

        put("residuals", owned(np.ravel(self.residuals)))
        if self.residuals.size == 0:
            raise ValueError("a report needs at least one evaluation point")
        put("points", {k: owned(np.atleast_2d(v)) for k, v in self.points.items()})
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
        i = int(np.argmax(self.residuals))  # the first maximum; the field is finite
        put("n_points", self.residuals.size)
        put("argmax_index", i)
        put("max_residual", float(self.residuals[i]))
        put("mean_residual", float(np.mean(self.residuals)))
        put("verdict", "consistent" if self.max_residual <= self.tolerance else "inconsistent")
        put("_summary", {
            "condition": self.condition,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "argmax_point": {k: v[i].tolist() for k, v in self.points.items()},
            "n_points": self.n_points,
            "note": self.note,
            "details": self.details,
        })

    @property
    def argmax_point(self) -> dict:
        return {role: arr[self.argmax_index].copy() for role, arr in self.points.items()}

    def to_dict(self) -> dict:
        """The report's JSON summary; the fields themselves go to the sidecar."""
        d = self._summary
        return {**d, "argmax_point": {k: list(v) for k, v in d["argmax_point"].items()}}

    @cached_property
    def _row(self) -> dict:
        """The report's summary.csv row, read off its JSON summary."""
        d = {**self._summary, "argmax": _format_point(self._summary["argmax_point"]),
             "note": self.note or ""}
        return {key: d[key] for key in _SUMMARY_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "ConsistencyReport":
        """A report from a summary whose "points" and "residual_field" hold arrays or lists."""
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


# -- shared ingredients ------------------------------------------------------------


def _norms(*terms) -> np.ndarray:
    """Max-abs of each point's block of the terms' left-to-right sum; NaN propagates.
    The blocks' entries are laid out (k, P), so that one reduction runs along P."""
    R = sum(terms[1:], terms[0])
    A = np.abs(R).reshape(len(R), math.prod(R.shape[1:])).T
    return np.ascontiguousarray(A).max(axis=0, initial=0.0)


class _Ingredients:
    """The stacks that the conditions of one check share, for one (system, grid).

    Every ingredient is a system, dictionary or model method evaluated at a
    named point set: the grid states "x" and inputs "u", the single points
    "x=0" and "u=0", the grid's (x, u) product "(x,u)", the axis rows "(x,0)"
    and "(0,u)", and the next states "f(x,u)", "f(x,0)", "f(0,u)". `at`
    evaluates each (method, point set) pair once and keeps the result as a
    read-only array; `norms` does the same for its point norms.
    """

    def __init__(self, system: ControlledSystem, grid: EvaluationGrid):
        self.system, self.grid = system, grid
        self._stacks = {}
        self.xu = dict(zip("xu", grid.product))  # report points; each report copies the dict
        # the pair point sets, each the product of a grid
        self.grids = {"(x,u)": grid, "(x,0)": grid.autonomous(),
                      "(0,u)": EvaluationGrid(np.zeros((1, system.state_dim)), grid.inputs)}

    def points(self, where) -> tuple:
        """The stacks of the point set `where`, as `at` passes them to a method."""
        if where.startswith("f("):
            return (self.at(self.system.evaluate, where[1:]),)
        if where in self.grids:
            return self.grids[where].product
        return {"x": (self.grid.states,), "u": (self.grid.inputs,),
                "x=0": (np.zeros(self.system.state_dim),),
                "u=0": (np.zeros(self.system.input_dim),)}[where]

    def _memo(self, key, compute) -> np.ndarray:
        if key not in self._stacks:
            self._stacks[key] = _read_only(compute())
        return self._stacks[key]

    def at(self, fn, where) -> np.ndarray:
        """fn evaluated on the point set `where`; on a pair point set through the grid
        hook `numerics._on_grid`, with fn a method of a system, dictionary or model."""
        if where in self.grids:
            return self._memo((fn, where), lambda: _on_grid(fn, self.grids[where]))
        return self._memo((fn, where), lambda: fn(*self.points(where)))

    def norms(self, fn, where) -> np.ndarray:
        """Point norms of at(fn, where)."""
        return self._memo((fn, where, "norms"), lambda: _norms(self.at(fn, where)))

    def require_vanishing(self, hypothesis, fn, where, *cols):
        """Raise HypothesisViolationError, naming the worst point's rows of cols, unless
        at(fn, where) vanishes; a non-finite norm counts as inf, so NaN cannot pass.
        A single point ("x=0", "u=0") takes no cols and names no location."""
        v = _violation(self.norms(fn, where))
        i = int(np.argmax(v))
        if v[i] > _HYPOTHESIS_TOL:
            at = tuple(c[i] for c in cols)
            raise HypothesisViolationError(hypothesis, v[i],
                                           where=at[0] if len(at) == 1 else at or None)


def _ingredients(system, grid, checker: str, kind: str) -> _Ingredients:
    """A checker's ingredients after its time-kind check: check_model's shared ones, or fresh."""
    if system.time_kind != kind:
        raise ValueError(f"{checker} applies to {kind}-time systems, got {system.time_kind}")
    return grid if isinstance(grid, _Ingredients) else _Ingredients(system, grid)


def _drift(ing, dict_x, L) -> np.ndarray:
    """|| J_psi_x(x) f_x(x) - L psi_x(x) || over the states."""
    return _norms(_mv(ing.at(dict_x.jacobian, "x"), ing.at(ing.system.f_x, "x")),
                  -_mv(L, ing.at(dict_x.evaluate, "x")))


def _require_state_inclusive(dict_x: Dictionary, checker: str):
    if not dict_x.state_inclusive:
        raise InapplicableConditionError(
            f"{checker} is inapplicable: the dictionary is not state-inclusive "
            "(it must contain every coordinate observable)"
        )


def _require_separable(ing, dict_u):
    """Hypotheses shared by the separable-formulation conditions."""
    ing.require_vanishing("f_u(0) = 0", ing.system.f_u, "u=0")
    ing.require_vanishing("f_xu(x, 0) = 0", ing.system.f_xu, "(x,0)", ing.grid.states)
    ing.require_vanishing("f_xu(0, u) = 0", ing.system.f_xu, "(0,u)", ing.grid.inputs)
    ing.require_vanishing("psi_u(0) = 0", dict_u.evaluate, "u=0")


def _sample_pair_indices(grid, n_pairs, seed, n_index_sets):
    rng = _rng(seed)
    sizes = {"x": len(grid.states), "u": len(grid.inputs)}
    return [rng.integers(0, sizes[kind], size=n_pairs) for kind in n_index_sets]


# -- definition-level checks -------------------------------------------------------


def check_def1(system: ControlledSystem, model, grid: EvaluationGrid,
               tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Compare a continuous model's represented lift rate with the chain rule.

    The residual is || model rate - J_x_psi f(x, u) || at each point. When the
    model's observables depend on the input, the input-rate transport term
    J_u_psi udot sits on both sides of the identity and cancels for every
    udot, so it is not part of the residual: DEF1-JOINT is the KAISER field.
    """
    ing = _ingredients(system, grid, "check_def1", "continuous")
    if model.time_kind != "continuous":
        raise ValueError("check_def1 needs a continuous-time model")

    auton = _autonomous(model)
    where = "(x,0)" if auton else "(x,u)"  # an autonomous model lives on the u = 0 slice
    # an eigen model's J_x_psi(x, u) on the product, shared with KAISER
    J = (ing.at(model._psi.jacobian_x, where) if model.variant == "eigen"
         else ing.grids[where].per_state(ing.at(model.dict_x.jacobian, "x")))
    truth = _mv(J, ing.at(system.evaluate, where))
    cid = "DEF1-AUTON" if auton else "DEF1-JOINT" if model.joint_observables else "DEF1-CTRL"
    points = {"x": ing.grid.states} if auton else ing.xu
    return ConsistencyReport(cid, tolerance, points, _norms(ing.at(model.rate, where), -truth))


def check_def2(system: ControlledSystem, model, grid: EvaluationGrid,
               tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Compare a discrete model's next-step lift derivatives with chain-rule truth.

    The x-identity residual is || d(model lift_next)/dx - J_psi(f(x,u)) df/dx ||
    and likewise in u; an autonomous model (no input channel) yields the single
    zero-input x-identity report.
    """
    ing = _ingredients(system, grid, "check_def2", "discrete")
    if model.time_kind != "discrete":
        raise ValueError("check_def2 needs a discrete-time model")

    auton = _autonomous(model)
    where = "(x,0)" if auton else "(x,u)"  # an autonomous model lives on the u = 0 slice
    points = {"x": ing.grid.states} if auton else ing.xu
    J = ing.at(model.dict_x.jacobian, f"f{where}")
    res_x = _norms(ing.at(model.lift_next_jac_x, where), -(J @ ing.at(system.jacobian_x, where)))
    if auton:
        return [ConsistencyReport("DEF2-AUTON", tolerance, points, res_x)]
    res_u = _norms(ing.at(model.lift_next_jac_u, "(x,u)"),
                   -(J @ ing.at(system.jacobian_u, "(x,u)")))
    return [
        ConsistencyReport("DEF2-CTRL-X", tolerance, points, res_x),
        ConsistencyReport("DEF2-CTRL-U", tolerance, points, res_u),
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
    ing = _ingredients(system, grid, "check_def2_joint", "discrete")
    K = np.asarray(K, dtype=float)
    if K.shape != (joint_dict.size, joint_dict.size):
        raise ValueError(
            f"K must be {joint_dict.size}x{joint_dict.size} for this "
            f"dictionary, got {K.shape}"
        )

    grid, m = ing.grid, system.input_dim
    U_next = grid.product[1]
    if input_evolution is not None:
        u_map, u_jac = input_evolution
        U_next = grid.per_input(_stacked(u_map, (m,))(grid.inputs))
    X_next = ing.at(system.evaluate, "(x,u)")
    J_next = joint_dict.jacobian_x(X_next, U_next)
    rhs_x = J_next @ ing.at(system.jacobian_x, "(x,u)")
    rhs_u = J_next @ ing.at(system.jacobian_u, "(x,u)")
    if input_evolution is not None:
        rhs_u = rhs_u + joint_dict.jacobian_u(X_next, U_next) @ grid.per_input(
            _stacked(u_jac, (m, m))(grid.inputs))
    res_x = _norms(K @ ing.at(joint_dict.jacobian_x, "(x,u)"), -rhs_x)
    res_u = _norms(K @ ing.at(joint_dict.jacobian_u, "(x,u)"), -rhs_u)

    note_x = note_u = None
    if input_evolution is None:
        note_x = (
            "input dynamics unmodeled: psi at step k+1 evaluated at the held "
            "input u_k"
        )
        note_u = note_x + "; transport term J_u_psi du_{k+1}/du_k not evaluated"
    return [
        ConsistencyReport("DEF2-JOINT-X", tolerance, ing.xu, res_x, note=note_x),
        ConsistencyReport("DEF2-JOINT-U", tolerance, ing.xu, res_u, note=note_u),
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
    ing = _ingredients(system, grid, "check_theorem2", "continuous")
    _require_separable(ing, dict_u)
    L_x = np.asarray(L_x, dtype=float)
    L_u = np.asarray(L_u, dtype=float)
    J0 = ing.at(dict_x.jacobian, "x=0")
    Fu = ing.at(system.f_u, "u")

    res2 = _norms(_mv(J0, Fu), -_mv(L_u, ing.at(dict_u.evaluate, "u")))
    Jp = ing.grid.per_state(ing.at(dict_x.jacobian, "x"))
    res3 = _norms(_mv(Jp - J0, ing.grid.per_input(Fu)), _mv(Jp, ing.at(system.f_xu, "(x,u)")))
    return [
        ConsistencyReport("T2-C1", tolerance, {"x": ing.grid.states}, _drift(ing, dict_x, L_x)),
        ConsistencyReport("T2-C2", tolerance, {"u": ing.grid.inputs}, res2),
        ConsistencyReport("T2-C3", tolerance, ing.xu, res3),
    ]


def check_corollary1(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """State-inclusive separable representations force f_xu = 0 (continuous).

    The residual field is || f_xu(x, u) || itself; an inconsistent verdict
    means no consistent separable representation with this dictionary exists.
    """
    ing = _ingredients(system, grid, "check_corollary1", "continuous")
    _require_state_inclusive(dict_x, "check_corollary1")
    return ConsistencyReport("COR1-FXU", tolerance, ing.xu, ing.norms(system.f_xu, "(x,u)"))


def check_corollary2(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     n_pairs: int = 200, seed: int = 0,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Pairwise x-independence of the input response (continuous).

    Residual || (J_psi_x(x1) - J_psi_x(x2)) f_u(u) || over seeded random
    (x1, x2, u) triples drawn from the grid. Hypothesis: f_xu = 0.
    """
    ing = _ingredients(system, grid, "check_corollary2", "continuous")
    ing.require_vanishing("f_xu(x, u) = 0", system.f_xu, "(x,u)", *ing.grid.product)
    i1, i2, iu = _sample_pair_indices(ing.grid, n_pairs, seed, ("x", "x", "u"))
    J, states = ing.at(dict_x.jacobian, "x"), ing.grid.states
    res = _norms(_mv(J[i1] - J[i2], ing.at(system.f_u, "u")[iu]))
    points = {"x1": states[i1], "x2": states[i2], "u": ing.grid.inputs[iu]}
    return ConsistencyReport("COR2-PAIRWISE", tolerance, points, res)


def check_corollary3_kma(system: ControlledSystem, dict_x: Dictionary, L, B,
                         grid: EvaluationGrid,
                         tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Conditions for the continuous affine formulation (constant B).

    COR3-KMA-B: || J_psi_x(0) df_u/du(u) - B ||     over inputs
    COR3-KMA-L: || J_psi_x(x) f_x(x) - L psi_x(x) || over states

    An affine model also inherits the separable COR1-FXU and COR2-PAIRWISE;
    check_corollary1 and check_corollary2 evaluate those, not this checker.
    """
    ing = _ingredients(system, grid, "check_corollary3_kma", "continuous")
    _require_state_inclusive(dict_x, "check_corollary3_kma")
    L = np.asarray(L, dtype=float)
    B = np.asarray(B, dtype=float)
    res_b = _norms(ing.at(dict_x.jacobian, "x=0") @ ing.at(system.jacobian_fu, "u"), -B)
    return [
        ConsistencyReport("COR3-KMA-B", tolerance, {"u": ing.grid.inputs}, res_b),
        ConsistencyReport("COR3-KMA-L", tolerance, {"x": ing.grid.states},
                          _drift(ing, dict_x, L)),
    ]


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
    ing = _ingredients(system, grid, "check_theorem3", "continuous")
    L_x = np.asarray(L_x, dtype=float)
    L_xu = np.asarray(L_xu, dtype=float)
    ing.require_vanishing("psi_xu(x, 0) = 0", dict_xu.evaluate, "(x,0)", ing.grid.states)

    cross = ing.grid.per_input(ing.at(system.f_u, "u")) + ing.at(system.f_xu, "(x,u)")
    res2 = _norms(_mv(ing.grid.per_state(ing.at(dict_x.jacobian, "x")), cross),
                  -_mv(L_xu, ing.at(dict_xu.evaluate, "(x,u)")))
    return [
        ConsistencyReport("T3-C1", tolerance, {"x": ing.grid.states}, _drift(ing, dict_x, L_x)),
        ConsistencyReport("T3-C2", tolerance, ing.xu, res2),
    ]


def check_kaiser(system: ControlledSystem, eigendict, Lam, grid: EvaluationGrid,
                 tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Diagonal eigen-formulation condition (continuous).

    Residual || J_x_psi(x, u) f(x, u) - Lambda psi(x, u) || over the grid.
    The input-rate transport term appears identically on both sides of the
    defining relation and cancels, so it is not part of this condition.
    Lambda may be given as a vector of eigenvalues or a strictly diagonal
    matrix; an off-diagonal entry that is nonzero or not finite is rejected.
    """
    ing = _ingredients(system, grid, "check_kaiser", "continuous")
    Lam = np.asarray(Lam, dtype=float)
    if Lam.ndim == 2:
        if Lam.shape[0] != Lam.shape[1] or np.any(Lam[~np.eye(len(Lam), dtype=bool)] != 0):
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

    psi = _as_joint(eigendict, system.input_dim)  # a state dictionary as psi(x, u)
    res = _norms(_mv(ing.at(psi.jacobian_x, "(x,u)"), ing.at(system.evaluate, "(x,u)")),
                 -(lam * ing.at(psi.evaluate, "(x,u)")))
    return ConsistencyReport("KAISER", tolerance, ing.xu, res)


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
    ing = _ingredients(system, grid, "check_theorem4", "discrete")
    _require_separable(ing, dict_u)
    K_x = np.asarray(K_x, dtype=float)
    K_u = np.asarray(K_u, dtype=float)
    Dfx = ing.at(system.jacobian_fx, "x")
    Dfu = ing.at(system.jacobian_fu, "u")
    J_x0 = ing.at(dict_x.jacobian, "f(x,0)")
    J_0u = ing.at(dict_x.jacobian, "f(0,u)")
    J = ing.at(dict_x.jacobian, "f(x,u)")

    res1 = _norms(J_x0 @ Dfx, -(K_x @ ing.at(dict_x.jacobian, "x")))
    res2 = _norms(J_0u @ Dfu, -(K_u @ ing.at(dict_u.jacobian, "u")))
    per_state, per_input = ing.grid.per_state, ing.grid.per_input
    res3 = _norms((J - per_input(J_0u)) @ per_input(Dfu),
                  J @ ing.at(system.jacobian_fxu_u, "(x,u)"))
    res4 = _norms((J - per_state(J_x0)) @ per_state(Dfx),
                  J @ ing.at(system.jacobian_fxu_x, "(x,u)"))
    return [
        ConsistencyReport("T4-C1", tolerance, {"x": ing.grid.states}, res1),
        ConsistencyReport("T4-C2", tolerance, {"u": ing.grid.inputs}, res2),
        ConsistencyReport("T4-C3", tolerance, ing.xu, res3),
        ConsistencyReport("T4-C4", tolerance, ing.xu, res4),
    ]


def check_corollary4(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """State-inclusive separable representations force f_xu = 0 (discrete).

    The residual field is || f_xu(x, u) ||; the details record the largest
    cross-term Jacobian norms in x and u, the proof's intermediate quantities.
    """
    ing = _ingredients(system, grid, "check_corollary4", "discrete")
    _require_state_inclusive(dict_x, "check_corollary4")
    details = {"max_cross_jac_x": float(ing.norms(system.jacobian_fxu_x, "(x,u)").max()),
               "max_cross_jac_u": float(ing.norms(system.jacobian_fxu_u, "(x,u)").max())}
    return ConsistencyReport("COR4-FXU", tolerance, ing.xu,
                             ing.norms(system.f_xu, "(x,u)"), details=details)


def check_corollary5(system: ControlledSystem, dict_x: Dictionary, grid: EvaluationGrid,
                     n_pairs: int = 200, seed: int = 0,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Pairwise next-state independence conditions (discrete).

    Over seeded random quadruples (x1, x2, u1, u2) from the grid:

    COR5-PAIRWISE-U: || (J+(f(x1,u1)) - J+(f(x2,u1))) df_u/du(u1) ||
    COR5-PAIRWISE-X: || (J+(f(x1,u1)) - J+(f(x1,u2))) df_x/dx(x1) ||

    Hypothesis: f_xu = 0.
    """
    ing = _ingredients(system, grid, "check_corollary5", "discrete")
    ing.require_vanishing("f_xu(x, u) = 0", system.f_xu, "(x,u)", *ing.grid.product)
    states, inputs = ing.grid.states, ing.grid.inputs
    i1, i2, j1, j2 = _sample_pair_indices(ing.grid, n_pairs, seed, ("x", "x", "u", "u"))
    X1, X2 = states[i1], states[i2]
    U1, U2 = inputs[j1], inputs[j2]

    # J+ on the product, whose row i * len(inputs) + j is the pair (x_i, u_j)
    J, M = ing.at(dict_x.jacobian, "f(x,u)"), len(inputs)
    J_11 = J[i1 * M + j1]
    res_u = _norms((J_11 - J[i2 * M + j1]) @ ing.at(system.jacobian_fu, "u")[j1])
    res_x = _norms((J_11 - J[i1 * M + j2]) @ ing.at(system.jacobian_fx, "x")[i1])
    return [
        ConsistencyReport("COR5-PAIRWISE-U", tolerance, {"x1": X1, "x2": X2, "u1": U1}, res_u),
        ConsistencyReport("COR5-PAIRWISE-X", tolerance, {"x1": X1, "u1": U1, "u2": U2}, res_x),
    ]


def check_corollary6(system: ControlledSystem, dict_x: Dictionary, K, B,
                     grid: EvaluationGrid,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[ConsistencyReport]:
    """Condition for the discrete affine formulation (constant B); returns [COR6-B].

    COR6-B: || J_psi_x(f(x,u)) df_u/du(u) - B ||  over the product.

    An affine model also inherits the separable COR4-FXU, which
    check_corollary4 evaluates, not this checker.
    """
    ing = _ingredients(system, grid, "check_corollary6", "discrete")
    _require_state_inclusive(dict_x, "check_corollary6")
    B = np.asarray(B, dtype=float)
    res = _norms(ing.at(dict_x.jacobian, "f(x,u)")
                 @ ing.grid.per_input(ing.at(system.jacobian_fu, "u")), -B)
    return [ConsistencyReport("COR6-B", tolerance, ing.xu, res)]


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
    ing = _ingredients(system, grid, "check_theorem5", "discrete")
    K_x = np.asarray(K_x, dtype=float)
    K_xu = np.asarray(K_xu, dtype=float)
    states, note = ing.grid.states, None
    try:
        ing.require_vanishing("psi_xu(x, 0) = 0", dict_xu.evaluate, "(x,0)", states)
    except HypothesisViolationError as exc:
        note = ("COR7/COR8 variants skipped: hypothesis psi_xu(x, 0) = 0 fails "
                f"(max |psi_xu(x, 0)| = {exc.max_violation:.3g} at x = {_fmt_where(exc.where)})")

    J_x0 = ing.at(dict_x.jacobian, "f(x,0)")
    lhs_full = J_x0 @ ing.at(system.jacobian_x, "(x,0)")
    base = K_x @ ing.at(dict_x.jacobian, "x")
    res_t5c1 = _norms(lhs_full, -base, -(K_xu @ ing.at(dict_xu.jacobian_x, "(x,0)")))
    res_c7c1 = _norms(lhs_full, -base)
    res_c8c1 = _norms(J_x0 @ ing.at(system.jacobian_fx, "x"), -base)

    # dcross/du = df_u/du + df_xu/du is df/du, so COR8-C2 shares T5-C2's field
    res_t5c2 = _norms(ing.at(dict_x.jacobian, "f(x,u)") @ ing.at(system.jacobian_u, "(x,u)"),
                      -(K_xu @ ing.at(dict_xu.jacobian_u, "(x,u)")))

    reports = [
        ConsistencyReport("T5-C1", tolerance, {"x": states}, res_t5c1, note=note),
        ConsistencyReport("T5-C2", tolerance, ing.xu, res_t5c2, note=note),
    ]
    if note:
        return reports

    reports.extend([
        ConsistencyReport("COR7-C1", tolerance, {"x": states}, res_c7c1),
        ConsistencyReport("COR7-C2", tolerance, ing.xu, res_t5c2),
        ConsistencyReport("COR8-C1", tolerance, {"x": states}, res_c8c1),
        ConsistencyReport("COR8-C2", tolerance, ing.xu, res_t5c2),
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


# family -> its public checker for a fitted model, (system, model, ingredients, tol,
# seed) -> the reports of exactly the ids whose CONDITIONS rows name that family;
# checkers are looked up by name at call time, so a rebound one is used
_FAMILY_CHECKS = {
    "DEF1": lambda s, m, g, tol, seed: [check_def1(s, m, g, tolerance=tol)],
    "DEF2": lambda s, m, g, tol, seed: check_def2(s, m, g, tolerance=tol),
    "T2": lambda s, m, g, tol, seed: check_theorem2(
        s, m.dict_x, m.dict_u, m.K_x, m.K_u, g, tolerance=tol),
    "COR1": lambda s, m, g, tol, seed: [check_corollary1(s, m.dict_x, g, tolerance=tol)],
    "COR2": lambda s, m, g, tol, seed: [
        check_corollary2(s, m.dict_x, g, seed=seed, tolerance=tol)],
    "COR3": lambda s, m, g, tol, seed: check_corollary3_kma(
        s, m.dict_x, m.K, _input_matrix(s, m), g, tolerance=tol),
    "T3": lambda s, m, g, tol, seed: check_theorem3(s, *_joint_operators(m), g, tolerance=tol),
    "KAISER": lambda s, m, g, tol, seed: [
        check_kaiser(s, m._psi, m.eigenvalues, g, tolerance=tol)],
    "T4": lambda s, m, g, tol, seed: check_theorem4(
        s, m.dict_x, m.dict_u, m.K_x, m.K_u, g, tolerance=tol),
    "COR4": lambda s, m, g, tol, seed: [check_corollary4(s, m.dict_x, g, tolerance=tol)],
    "COR5": lambda s, m, g, tol, seed: check_corollary5(s, m.dict_x, g, seed=seed, tolerance=tol),
    "COR6": lambda s, m, g, tol, seed: check_corollary6(
        s, m.dict_x, m.K, _input_matrix(s, m), g, tolerance=tol),
    "T5": lambda s, m, g, tol, seed: check_theorem5(s, *_joint_operators(m), g, tolerance=tol),
}


def check_model(system: ControlledSystem, model, grid: EvaluationGrid,
                tolerance: float = DEFAULT_TOLERANCE, seed: int = 0,
                conditions=None) -> tuple[list, list]:
    """Evaluate table conditions for a fitted model; returns (reports, skipped).

    The families of the ids in play run in CONDITION_IDS order on one
    ingredient object, each returning its own ids only, so an id reports or
    is skipped alike for every variant its row lists. conditions = None takes
    every id whose row applies to the model; a family whose hypothesis fails,
    or which is inapplicable to the model's dictionary, is skipped with a
    (family, reason) note, and any other error propagates. An explicit id
    list is strict: an unknown id raises ValueError, an id whose row does
    not apply raises InapplicableConditionError, hypothesis violations
    propagate, and each requested id yields one report. Reports come in
    CONDITION_IDS order in both modes. seed, an integer >= 0, drives the
    pairwise samples.
    """
    _check_seed(seed)
    strict = conditions is not None
    for cid in conditions or ():
        if cid not in CONDITIONS:
            raise ValueError(f"unknown condition id {cid!r}")
        if not CONDITIONS[cid].applies(model):
            raise InapplicableConditionError(
                f"condition {cid} requires {CONDITIONS[cid].requirement}; the loaded "
                f"model is a {model.time_kind}-time {model.variant} model"
            )
    ids = [cid for cid, c in CONDITIONS.items()
           if (cid in conditions if strict else c.applies(model))]
    ing = _Ingredients(system, grid)
    reports, skipped = {}, []
    for family in dict.fromkeys(CONDITIONS[cid].family for cid in ids):
        try:
            reports.update((r.condition, r) for r in
                           _FAMILY_CHECKS[family](system, model, ing, tolerance, seed))
        except (HypothesisViolationError, InapplicableConditionError) as exc:
            if strict:
                raise
            skipped.append((family, str(exc)))
    return [reports[cid] for cid in ids if cid in reports], skipped


# -- summaries and serialization ---------------------------------------------------

# summary.csv columns, and those of them written with repr and read back as floats
_SUMMARY_FIELDS = ("condition", "max_residual", "mean_residual", "argmax",
                   "verdict", "tolerance", "note")
_SUMMARY_FLOATS = ("max_residual", "mean_residual", "tolerance")


@dataclass
class ConsistencySummary:
    """Ordered roll-up of consistency reports with an overall verdict."""

    reports: list
    overall_verdict: str
    qualifier: str = NECESSITY_QUALIFIER

    def to_rows(self) -> list[dict]:
        """One summary.csv row per report, read off its JSON summary."""
        return [dict(r._row) for r in self.reports]

    def to_text(self) -> str:
        rows = self.to_rows()
        width = max(9, *(len(r["condition"]) for r in rows))
        lines = [f"{'condition':<{width}}  {'max':>12}  {'mean':>12}  {'verdict':<12}  argmax"]
        for r in rows:
            lines.append(
                f"{r['condition']:<{width}}  "
                f"{r['max_residual']:>12.4e}  {r['mean_residual']:>12.4e}  "
                f"{r['verdict']:<12}  {r['argmax']}"
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
    ordered = sorted(reports, key=lambda r: order[r.condition])  # stable: ties keep their order
    overall = "consistent" if all(r.verdict == "consistent" for r in ordered) else "inconsistent"
    return ConsistencySummary(ordered, overall)


def report_provenance(system: ControlledSystem, grid: EvaluationGrid,
                      tolerance: float, seed: int) -> dict:
    """What a set of reports was evaluated on: versions, system, grid, tolerance, seed."""
    from . import __version__

    return {
        "kooplab": __version__,
        "numpy": np.__version__,
        "system": {"name": system.name, "time_kind": system.time_kind, "dt": system.dt},
        "grid": {"states": list(grid.states.shape), "inputs": list(grid.inputs.shape),
                 "n_points": len(grid.states) * len(grid.inputs)},
        "tolerance": tolerance,
        "pairwise_seed": seed,
    }


# members of a sidecar carry no timestamp, so that rewriting it repeats its bytes
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def write_reports_json(reports, path, skipped=(), provenance=None) -> Path:
    """Report summaries to `path` (JSON) and their fields to the `.npz` sidecar beside it.

    The sidecar holds one member per residual field and one per distinct
    points array, which the reports sharing it name; both files repeat
    byte for byte for the same reports. skipped lists (family, reason)
    pairs and provenance is a `report_provenance` dict. Returns `path`.
    """
    import io
    import zipfile

    if isinstance(reports, ConsistencyReport):
        reports = [reports]
    path = Path(path)
    sidecar = path.with_suffix(".npz")
    members, point_members, summaries = {}, {}, []
    for i, r in enumerate(reports):
        d = r.to_dict()
        d["residual_field"] = f"residual_{i}"
        members[d["residual_field"]] = r.residuals
        d["points"] = {}
        for role, arr in r.points.items():
            key = (arr.shape, arr.tobytes())
            if key not in point_members:
                point_members[key] = f"points_{len(point_members)}"
                members[point_members[key]] = arr
            d["points"][role] = point_members[key]
        summaries.append(d)
    archive = io.BytesIO()  # built in memory, written with one call
    with zipfile.ZipFile(archive, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in members.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", _ZIP_DATE_TIME), buf.getvalue())
    sidecar.write_bytes(archive.getbuffer())
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "qualifier": NECESSITY_QUALIFIER,
        "sidecar": sidecar.name,
        "provenance": provenance,
        "skipped": [[family, reason] for family, reason in skipped],
        "reports": summaries,
    }
    _write_json(path, doc)
    return path


def read_reports_json(path) -> list[ConsistencyReport]:
    """Reports from a v2 document and its sidecar, or from a v1 document with inline fields."""
    path = Path(path)
    doc = _read_json_object(path, "reports document")
    version = doc.get("schema_version")
    if version == 1:
        return [ConsistencyReport.from_dict(d) for d in doc["reports"]]
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema_version {version!r}; "
            f"this build reads versions 1 and {REPORT_SCHEMA_VERSION}"
        )
    sidecar = path.parent / doc["sidecar"]
    if not sidecar.is_file():
        raise ValueError(f"{path.name}: residual-field sidecar {sidecar} is missing")
    reports = []
    with np.load(sidecar, allow_pickle=False) as npz:
        def member(name):
            if name not in npz.files:
                raise ValueError(f"{sidecar.name} has no member {name!r}")
            return npz[name]

        for d in doc["reports"]:
            fields = {"points": {role: member(name) for role, name in d["points"].items()},
                      "residual_field": member(d["residual_field"])}
            if fields["residual_field"].size != d["n_points"]:
                raise ValueError(
                    f"{sidecar.name}: member {d['residual_field']!r} has "
                    f"{fields['residual_field'].size} values for {d['n_points']} points"
                )
            reports.append(ConsistencyReport.from_dict({**d, **fields}))
    return reports


def write_summary_csv(summary: ConsistencySummary, path) -> Path:
    _write_csv(path, _SUMMARY_FIELDS, summary.to_rows())
    return Path(path)


def read_summary_csv(path) -> list[dict]:
    """Rows with numeric fields parsed and argmax decoded to arrays."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{**row, **{key: float(row[key]) for key in _SUMMARY_FLOATS},
             "argmax": _parse_point(row["argmax"])} for row in rows]
