"""Controlled dynamical systems and trajectory data.

A system's right-hand side is always stored in the additive split

    f(x, u) = f_x(x) + f_u(u) + f_xu(x, u)

with the normalization f_u(0) = 0, f_xu(x, 0) = 0, f_xu(0, u) = 0, so the
three pieces are uniquely determined by f. Consistency checks downstream
interrogate the pieces separately, which is why the split is primary here
rather than reconstructed on demand.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .numerics import (
    _Broadcast,
    _check_seed,
    _fd_jacobians,
    _itself,
    _NonFiniteFieldError,
    _point_or_stack,
    _read_json_object,
    _read_only,
    _require_finite_rows,
    _rng,
    _stacked,
    _typed_field,
    _violation,
    rk4_step,
)

__all__ = [
    "ControlledSystem",
    "Trajectory",
    "SnapshotDataset",
    "EvaluationGrid",
    "builtin_system",
    "linear_system",
    "bilinear_discrete",
    "simulate",
    "discretize",
    "generate_dataset",
    "default_grid",
    "decomposition_residuals",
    "validate_decomposition",
    "validate_jacobians",
    "save_dataset",
    "load_dataset",
    "DATASET_SCHEMA_VERSION",
]

DATASET_SCHEMA_VERSION = 1
DIVERGENCE_BOUND = 1e6
# the default sampling box [-2, 2]^n x [-1, 1]^m of evaluation grids and datasets
STATE_BOUND, INPUT_BOUND = 2.0, 1.0


class ControlledSystem:
    """A controlled system xdot = f(x,u) (continuous) or x+ = f(x,u) (discrete).

    Every evaluation method takes one point, x of shape (n,) and u of shape
    (m,), or aligned stacks of P points, (P, n) and (P, m), and returns
    (P, ...) values for stacks. Catalog systems and `discretize` evaluate a
    stack in one broadcast pass.

    Parameters
    ----------
    name : str
    time_kind : {"continuous", "discrete"}
    state_dim, input_dim : int
    f_x, f_u, f_xu : callables
        The additive pieces; f_x(x), f_u(u), f_xu(x, u) at one point, each
        returning an (n,) array. Must satisfy f_u(0) = 0 and
        f_xu(x, 0) = f_xu(0, u) = 0. A row adapter calls them once per row
        of a stack.
    jac_fx, jac_fu, jac_fxu_x, jac_fxu_u : callables, optional
        Analytic Jacobians of the pieces (d f_x/dx, d f_u/du, d f_xu/dx,
        d f_xu/du) at one point. Where one is omitted, it is the stacked
        central difference of its piece.
    dt : float, optional
        Step length provenance for discrete systems built by `discretize`.
    """

    def __init__(
        self,
        name: str,
        time_kind: str,
        state_dim: int,
        input_dim: int,
        f_x: Callable,
        f_u: Callable,
        f_xu: Callable,
        jac_fx: Callable | None = None,
        jac_fu: Callable | None = None,
        jac_fxu_x: Callable | None = None,
        jac_fxu_u: Callable | None = None,
        dt: float | None = None,
    ):
        self._describe(name, time_kind, state_dim, input_dim, dt)
        n, m = self.state_dim, self.input_dim
        self._fx, self._fu, self._fxu = fx, fu, fxu = [_stacked(f, (n,)) for f in (f_x, f_u, f_xu)]

        self._jfx = _stacked(jac_fx, (n, n)) if jac_fx else lambda X: _fd_jacobians(fx, X)
        self._jfu = _stacked(jac_fu, (n, m)) if jac_fu else lambda U: _fd_jacobians(fu, U)
        self._jfxu_x = (_stacked(jac_fxu_x, (n, n)) if jac_fxu_x
                        else lambda X, U: _fd_jacobians(lambda Z: fxu(Z, U), X))
        self._jfxu_u = (_stacked(jac_fxu_u, (n, m)) if jac_fxu_u
                        else lambda X, U: _fd_jacobians(lambda W: fxu(X, W), U))

    _kernels: dict = {}  # no method factors on a grid (`numerics._on_grid`); see _RK4Map

    def _describe(self, name, time_kind, state_dim, input_dim, dt):
        if time_kind not in ("continuous", "discrete"):
            raise ValueError(f"time_kind must be continuous or discrete, got {time_kind!r}")
        if state_dim < 1 or input_dim < 0:
            raise ValueError("state_dim must be >= 1 and input_dim >= 0")
        self.name = name
        self.time_kind = time_kind
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self._dims = (self.state_dim, self.input_dim)
        self.dt = dt

    # -- stacked kernels: f and its two total Jacobians at aligned rows -------

    def _map(self, X, U) -> np.ndarray:
        return self._fx(X) + self._fu(U) + self._fxu(X, U)

    def _tangents(self, X, U):
        return self._jfx(X) + self._jfxu_x(X, U), self._jfu(U) + self._jfxu_u(X, U)

    # -- evaluation: each method is its kernel on one point or aligned stacks ---

    def _checked_map(self, X, U) -> np.ndarray:
        """f at aligned rows; raises naming the first (x, u) row whose point or value
        is not finite."""
        def error(i):
            return _NonFiniteFieldError(
                f"{self.name}: non-finite field value at x={X[i].tolist()}, u={U[i].tolist()}")
        _require_finite_rows(error, X, U)
        out = self._map(X, U)
        _require_finite_rows(error, out)
        return out

    def evaluate(self, x, u) -> np.ndarray:
        """Total right-hand side f(x, u).

        A non-finite point or value raises ValueError naming the first such
        (x, u) row.
        """
        return _point_or_stack(self._checked_map, (x, u), self._dims)

    def field(self, x, u, t):
        """(state, input, time) signature for the RK4 kernel; time-invariant.
        The bare kernel: it tests nothing, as `rk4_step` tests every stage."""
        return _point_or_stack(self._map, (x, u), self._dims)

    # -- pieces ---------------------------------------------------------------

    def f_x(self, x) -> np.ndarray:
        return _point_or_stack(self._fx, (x,), self._dims)

    def f_u(self, u) -> np.ndarray:
        return _point_or_stack(self._fu, (u,), self._dims[1:], "input")

    def f_xu(self, x, u) -> np.ndarray:
        return _point_or_stack(self._fxu, (x, u), self._dims)

    # -- piecewise Jacobians --------------------------------------------------

    def jacobian_fx(self, x) -> np.ndarray:
        return _point_or_stack(self._jfx, (x,), self._dims)

    def jacobian_fu(self, u) -> np.ndarray:
        return _point_or_stack(self._jfu, (u,), self._dims[1:], "input")

    def jacobian_fxu_x(self, x, u) -> np.ndarray:
        return _point_or_stack(self._jfxu_x, (x, u), self._dims)

    def jacobian_fxu_u(self, x, u) -> np.ndarray:
        return _point_or_stack(self._jfxu_u, (x, u), self._dims)

    # -- total Jacobians ------------------------------------------------------

    def jacobian_x(self, x, u) -> np.ndarray:
        """d f / d x at (x, u)."""
        return _point_or_stack(lambda X, U: self._tangents(X, U)[0], (x, u), self._dims)

    def jacobian_u(self, x, u) -> np.ndarray:
        """d f / d u at (x, u)."""
        return _point_or_stack(lambda X, U: self._tangents(X, U)[1], (x, u), self._dims)

    def __repr__(self):
        return (
            f"ControlledSystem({self.name!r}, {self.time_kind}, "
            f"n={self.state_dim}, m={self.input_dim})"
        )


# -- trajectories and snapshot data ------------------------------------------


@dataclass
class Trajectory:
    """Sampled path: times (T,), states (T, n), inputs (T, m).

    `diverged` marks truncation by the divergence guard; the stored samples
    are the portion before the bound was crossed.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.inputs = np.asarray(self.inputs, dtype=float)
        T = self.times.shape[0]
        if self.states.shape[0] != T or self.inputs.shape[0] != T:
            raise ValueError("times, states and inputs must have equal length")
        if T > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return self.times.shape[0]


@dataclass
class SnapshotDataset:
    """Regression samples for operator fitting.

    kind = "discrete-pairs": rows are (x_k, u_k, x_{k+1}).
    kind = "continuous-derivative": rows are (x_k, u_k, xdot_k).
    `dt` is the sampling step (provenance for discrete pairs).
    """

    kind: str
    X: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    dt: float
    seed: int | None = None
    system_name: str = ""
    control_kind: str = ""
    n_redraws: int = 0

    def __post_init__(self):
        if self.kind not in ("discrete-pairs", "continuous-derivative"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        n = self.X.shape[0]
        if self.U.shape[0] != n or self.Y.shape[0] != n:
            raise ValueError("X, U, Y must have matching row counts")
        if self.Y.shape[1] != self.X.shape[1]:
            raise ValueError("X and Y must have matching state dimension")
        for name, arr in (("X", self.X), ("U", self.U), ("Y", self.Y)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"dataset {name} contains non-finite entries")

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def state_dim(self):
        return self.X.shape[1]

    @property
    def input_dim(self):
        return self.U.shape[1]


# -- evaluation grids ----------------------------------------------------------


@dataclass(frozen=True)
class EvaluationGrid:
    """Tensor grid of states (S, n) and inputs (M, m) on which residual fields are
    evaluated. The grid owns read-only float copies of its points, so reports may
    hold them, and lays its product out state-major."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        for name in ("states", "inputs"):
            points = _read_only(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, points)

    @cached_property
    def product(self) -> tuple:
        """The (x, u) product as aligned read-only stacks (S M, n), (S M, m): row
        i M + j is (states[i], inputs[j])."""
        return _read_only(self.per_state(self.states)), _read_only(self.per_input(self.inputs))

    def per_state(self, A) -> np.ndarray:
        """Rows per state (S, ...) broadcast onto the product rows."""
        return np.repeat(A, len(self.inputs), axis=0)

    def per_input(self, A) -> np.ndarray:
        """Rows per input (M, ...) broadcast onto the product rows."""
        return np.tile(A, (len(self.states),) + (1,) * (np.ndim(A) - 1))

    @staticmethod
    def _axis_product(box, points_per_axis):
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in box]
        if not axes:
            return np.zeros((1, 0))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @classmethod
    def from_boxes(cls, state_box, input_box, points_per_axis: int = 9):
        if points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        return cls(
            states=cls._axis_product(state_box, points_per_axis),
            inputs=cls._axis_product(input_box, points_per_axis),
        )

    @classmethod
    def default(cls, state_dim: int, input_dim: int, points_per_axis: int = 9):
        return cls.from_boxes([(-STATE_BOUND, STATE_BOUND)] * state_dim,
                              [(-INPUT_BOUND, INPUT_BOUND)] * input_dim, points_per_axis)

    def autonomous(self) -> "EvaluationGrid":
        """Same state points, inputs collapsed to the single point u = 0."""
        m = self.inputs.shape[1]
        return EvaluationGrid(self.states, np.zeros((1, m)))


def default_grid(system: ControlledSystem, points_per_axis: int = 9) -> EvaluationGrid:
    """Default box grid [-2,2]^n x [-1,1]^m with 9 points per axis."""
    return EvaluationGrid.default(system.state_dim, system.input_dim, points_per_axis)


# -- catalog --------------------------------------------------------------------


def _catalog(name, time_kind, n, m, **pieces) -> ControlledSystem:
    """A system whose pieces and Jacobians all broadcast over aligned stacks."""
    return ControlledSystem(name, time_kind, n, m,
                            **{key: _Broadcast(fn) for key, fn in pieces.items()})


def _constant(M):
    """A Jacobian that is M at every row of its first argument."""
    M = np.asarray(M, dtype=float)[None]
    return lambda Z, *_: np.repeat(M, len(Z), axis=0)


def _zeros(*shape):
    return lambda Z, *_: np.zeros((len(Z),) + shape)


def linear_system(A, B, name: str = "linear") -> ControlledSystem:
    """Continuous xdot = A x + B u with exact Jacobians."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got {B.shape}")
    m = B.shape[1]
    return _catalog(
        name, "continuous", n, m,
        f_x=lambda X: X @ A.T,
        f_u=lambda U: U @ B.T,
        f_xu=_zeros(n),
        jac_fx=_constant(A),
        jac_fu=_constant(B),
        jac_fxu_x=_zeros(n, n),
        jac_fxu_u=_zeros(n, m),
    )


def _scalar_bilinear(name, time_kind, a, b) -> ControlledSystem:
    """f(x, u) = a*x + b*x*u on one state and one input."""
    return _catalog(
        name, time_kind, 1, 1,
        f_x=lambda X: a * X,
        f_u=_zeros(1),
        f_xu=lambda X, U: b * X * U,
        jac_fx=_constant([[a]]),
        jac_fu=_constant([[0.0]]),
        jac_fxu_x=lambda X, U: b * U[:, :, None],
        jac_fxu_u=lambda X, U: b * X[:, :, None],
    )


def bilinear_discrete(alpha: float, beta: float, name: str = "bilinear-discrete") -> ControlledSystem:
    """Discrete scalar map x+ = alpha*x + beta*x*u, stated exactly (no integration)."""
    return _scalar_bilinear(name, "discrete", float(alpha), float(beta))


def _require_params(name, params, required, defaults):
    """Float parameters: every required one given, the defaulted ones optional."""
    unknown = sorted(set(params) - set(required) - set(defaults))
    if unknown:
        raise ValueError(f"{name}: unknown parameter(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(params))
    if missing:
        raise ValueError(f"{name}: missing parameter(s) {', '.join(missing)}")
    return {**defaults, **{k: float(v) for k, v in params.items()}}


def _planar(name, x1dot, x2dot, jac_fx_base, jac_fx_21) -> ControlledSystem:
    """Continuous xdot = (x1dot(x1, x2), x2dot(x1, x2) + u); d f_x/dx is the
    constant jac_fx_base except for its (2, 1) entry jac_fx_21(x1)."""
    base = _constant(jac_fx_base)

    def f_x(X):
        out, (x1, x2) = np.empty((len(X), 2)), X.T
        out[:, 0], out[:, 1] = x1dot(x1, x2), x2dot(x1, x2)
        return out

    def jac_fx(X):
        J = base(X)
        J[:, 1, 0] = jac_fx_21(X[:, 0])
        return J

    return _catalog(
        name, "continuous", 2, 1,
        f_x=f_x,
        f_u=lambda U: np.concatenate([np.zeros((len(U), 1)), U], axis=1),
        f_xu=_zeros(2),
        jac_fx=jac_fx,
        jac_fu=_constant([[0.0], [1.0]]),
        jac_fxu_x=_zeros(2, 2),
        jac_fxu_u=_zeros(2, 1),
    )


# name -> (required params, defaulted params, builder called with the float params)
_CATALOG = {
    "linear": ((), {"a11": -1.0, "a12": 0.0, "a21": 0.0, "a22": -2.0, "b1": 1.0, "b2": 1.0},
               lambda a11, a12, a21, a22, b1, b2: linear_system([[a11, a12], [a21, a22]],
                                                                [[b1], [b2]])),
    "bilinear-scalar": (("a", "b"), {},
                        lambda a, b: _scalar_bilinear("bilinear-scalar", "continuous", a, b)),
    "duffing-forced": (("delta",), {}, lambda delta: _planar(
        "duffing-forced", lambda x1, x2: x2, lambda x1, x2: x1 - x1 ** 3 - delta * x2,
        [[0.0, 1.0], [0.0, -delta]], lambda x1: 1.0 - 3.0 * x1 ** 2)),
    "slow-manifold": (("mu", "lam"), {}, lambda mu, lam: _planar(
        "slow-manifold", lambda x1, x2: mu * x1, lambda x1, x2: lam * (x2 - x1 ** 2),
        [[mu, 0.0], [0.0, lam]], lambda x1: -2.0 * lam * x1)),
    "bilinear-discrete": (("alpha", "beta"), {}, bilinear_discrete),
}


def builtin_system(name: str, **params) -> ControlledSystem:
    """Construct a catalog system by name.

    Catalog:
      "linear"          xdot = A x + B u, A = [[-1,0],[0,-2]], B = [[1],[1]]
                        (entries overridable via a11, a12, a21, a22, b1, b2)
      "bilinear-scalar" xdot = a*x + b*x*u            (params a, b)
      "duffing-forced"  x1dot = x2,
                        x2dot = x1 - x1^3 - delta*x2 + u   (param delta)
      "slow-manifold"   x1dot = mu*x1,
                        x2dot = lam*(x2 - x1^2) + u        (params mu, lam)
      "bilinear-discrete"  x_next = alpha*x + beta*x*u (exact discrete map;
                        params alpha, beta)

    Catalog systems evaluate stacks of points in one broadcast pass.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown system {name!r}; catalog: {', '.join(_CATALOG)}")
    required, defaults, build = _CATALOG[name]
    return build(**_require_params(name, params, required, defaults))


# -- decomposition validation -----------------------------------------------------


def decomposition_residuals(system: ControlledSystem, grid: EvaluationGrid) -> dict:
    """Max violations of f_u(0) = 0, f_xu(x, 0) = 0, f_xu(0, u) = 0 over the grid.

    A non-finite value counts as an infinite violation, so NaN cannot pass.
    """
    n, m = system.state_dim, system.input_dim
    values = {
        "f_u_at_zero": system.f_u(np.zeros(m)),
        "f_xu_at_u_zero": system.f_xu(grid.states, np.zeros((len(grid.states), m))),
        "f_xu_at_x_zero": system.f_xu(np.zeros((len(grid.inputs), n)), grid.inputs),
    }
    return {key: float(_violation(vals).max(initial=0.0)) for key, vals in values.items()}


def validate_decomposition(system: ControlledSystem, grid: EvaluationGrid, tol: float = 1e-10):
    """Raise if the additive-split normalization is violated beyond `tol`."""
    res = decomposition_residuals(system, grid)
    bad = {k: v for k, v in res.items() if v > tol}
    if bad:
        detail = ", ".join(f"{k} = {v:.3e}" for k, v in sorted(bad.items()))
        raise ValueError(f"{system.name}: decomposition invariant violated ({detail})")
    return res


def validate_jacobians(system: ControlledSystem, grid: EvaluationGrid, tol: float = 1e-5):
    """Compare analytic Jacobians against central differences of `evaluate` on the grid
    product, in 2 (n + m) + 1 stacked calls; a non-finite entry is an infinite deviation."""
    n = system.state_dim
    X, U = grid.product
    fd = _fd_jacobians(lambda Z: system.evaluate(Z[:, :n], Z[:, n:]), np.hstack([X, U]))
    analytic = np.concatenate([system.jacobian_x(X, U), system.jacobian_u(X, U)], axis=2)
    worst = float(_violation(analytic - fd).max(initial=0.0))
    if worst > tol:
        raise ValueError(
            f"{system.name}: analytic Jacobians disagree with finite differences "
            f"(max deviation {worst:.3e} > {tol:.1e})"
        )
    return worst


# -- simulation and discretization -------------------------------------------------


def _within(X, bound: float) -> np.ndarray:
    """The divergence rule per row of X: finite, with 2-norm (inf past float range) <= bound."""
    with np.errstate(over="ignore"):
        return np.isfinite(X).all(axis=-1) & (np.linalg.norm(X, axis=-1) <= bound)


def _march(step, X0, U, bound: float):
    """(paths (B, H + 1, n), lengths (B,)) of B states X0 (B, n) advanced through
    inputs U (B, H, m) by one call step(k, live, X, U_k) per time step, which maps
    the states X of the paths `live` (indices into the B) to their next states. A
    path stops before its first state that is not finite or whose 2-norm exceeds
    bound and keeps path[:length] (length <= H: diverged). The start states are
    not tested, and nothing is caught."""
    B, H = U.shape[:2]
    paths = np.repeat(X0[:, None], H + 1, axis=1)
    lengths = np.full(B, H + 1)
    live, X = np.arange(B), X0
    for k in range(H):
        if not len(live):
            break
        X = step(k, live, X, U[live, k])
        kept = _within(X, bound)
        if not kept.all():
            lengths[live[~kept]] = k + 1
            live, X = live[kept], X[kept]
        paths[live, k + 1] = X
    return paths, lengths


def simulate(
    system: ControlledSystem,
    x0,
    control: Callable[[float], np.ndarray],
    dt: float,
    steps: int,
    divergence_bound: float = DIVERGENCE_BOUND,
) -> Trajectory:
    """Integrate a continuous system with RK4 under zero-order-hold control.

    `control(t)` is sampled once at each sample time k dt, k = 0..steps, and
    held over the step; `inputs` records those samples. The path stops before
    its first state that is not finite or whose 2-norm exceeds the divergence
    bound, or at a non-finite stage state or field value inside a step, and is
    then flagged `diverged`; the start state is not tested. Any other error
    raises, a non-finite control sample too.
    """
    if system.time_kind != "continuous":
        raise ValueError("simulate integrates continuous systems; use the map directly")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.state_dim,):
        raise ValueError(f"x0 must have shape ({system.state_dim},)")

    times = np.arange(steps + 1) * dt
    inputs = np.array([np.atleast_1d(np.asarray(control(t), dtype=float)) for t in times])
    if inputs.shape != (steps + 1, system.input_dim):
        raise ValueError(f"control(t) must return shape ({system.input_dim},), got {inputs.shape[1:]}")
    _require_finite_rows(lambda i: ValueError(
        f"control(t) at t = {times[i]}: u contains non-finite entries"), inputs)

    def advance(k, live, X, U):
        try:
            return rk4_step(system.field, X, U, times[k], dt)
        except _NonFiniteFieldError:  # the field blew up inside the step
            return np.full_like(X, np.nan)

    paths, (T,) = _march(advance, x[None], inputs[None, :steps], divergence_bound)
    return Trajectory(times[:T], paths[0, :T], inputs[:T], bool(T <= steps))


def _rk4_stage_jacobians(system: ControlledSystem, stages, U, dt: float):
    """(d Phi/dx (P, n, n), d Phi/du (P, n, m)) of one RK4 step, chain-ruled
    through its four stages from the stage states (4 P, n) that `rk4_step`
    records, with the field's tangents at all four in one stacked call."""
    P, n = U.shape[0], stages.shape[1]
    I = np.eye(n)
    A, B = system._tangents(stages, np.tile(U, (4, 1)))
    A = A.reshape(4, P, n, n)
    B = B.reshape(4, P, n, U.shape[1])

    dk1_dx = A[0]
    dk2_dx = A[1] @ (I + 0.5 * dt * dk1_dx)
    dk3_dx = A[2] @ (I + 0.5 * dt * dk2_dx)
    dk4_dx = A[3] @ (I + dt * dk3_dx)
    J_x = I + (dt / 6.0) * (dk1_dx + 2.0 * dk2_dx + 2.0 * dk3_dx + dk4_dx)

    dk1_du = B[0]
    dk2_du = A[1] @ (0.5 * dt * dk1_du) + B[1]
    dk3_du = A[2] @ (0.5 * dt * dk2_du) + B[2]
    dk4_du = A[3] @ (dt * dk3_du) + B[3]
    J_u = (dt / 6.0) * (dk1_du + 2.0 * dk2_du + 2.0 * dk3_du + dk4_du)
    return J_x, J_u


def _rk4_map_jacobians(system: ControlledSystem, X, U, dt: float):
    """Exact Jacobians (d Phi/dx (P, n, n), d Phi/du (P, n, m)) of one RK4 step at
    aligned stacks X, U: one step that records its stages, then their tangents."""
    stages = []
    rk4_step(lambda X, U, t: system._map(X, U), X, U, 0.0, dt, _stages=stages)
    return _rk4_stage_jacobians(system, stages[0], U, dt)


class _RK4Map(ControlledSystem):
    """Zero-order-hold RK4 step map Phi of a continuous system; see `discretize`.

    f(x, u) is the direct step Phi(x, u) and its Jacobians one tangent pass
    at (x, u); the pieces are differences of steps and of tangents. Every
    kernel reads one memo of passes keyed by the exact point set, so each
    step and each tangent pass runs once per point set; what a kernel hands
    out is a fresh array.
    """

    MEMO_SIZE = 16  # point sets kept; the least recently used goes first

    def __init__(self, system: ControlledSystem, dt: float):
        self._describe(f"{system.name}-discrete", "discrete",
                       system.state_dim, system.input_dim, dt)
        self._flow = system
        self._memo = OrderedDict()

    # -- passes: one step, and one tangent pass, per point set -----------------

    def _pass(self, X, U, tangents: bool = False) -> dict:
        """The memo entry of the point set (X, U): its step Phi ("phi") and,
        when asked, its Jacobians ("jac"), each computed once and read-only.
        Until the tangent pass runs, the entry keeps the step's stage states."""
        key = (X.shape, U.shape, X.tobytes(), U.tobytes())
        entry = self._memo.pop(key, None)
        if entry is None:
            stages = []
            try:
                phi = rk4_step(lambda X, U, t: self._flow._map(X, U), X, U, 0.0, self.dt,
                               _stages=stages)
            except _NonFiniteFieldError as exc:  # name the map, not the flow
                raise _NonFiniteFieldError(f"{self.name}: {exc}") from None
            entry = {"phi": _read_only(phi), "stages": stages[0]}
        self._memo[key] = entry
        if len(self._memo) > self.MEMO_SIZE:
            self._memo.popitem(last=False)
        if tangents and "jac" not in entry:
            jac = _rk4_stage_jacobians(self._flow, entry["stages"], U, self.dt)
            entry["jac"] = tuple(map(_read_only, jac))
            del entry["stages"]
        return entry

    def _step(self, X, U):
        return self._pass(X, U)["phi"]

    def _jac(self, X, U):
        return self._pass(X, U, tangents=True)["jac"]

    def _at_u0(self, X):
        return X, np.zeros((len(X), self.input_dim))

    def _at_x0(self, U):
        return np.zeros((len(U), self.state_dim)), U

    # -- the stacked kernels of ControlledSystem; each returns a new array ------

    def _map(self, X, U) -> np.ndarray:
        return self._step(X, U).copy()

    def _tangents(self, X, U):
        J_x, J_u = self._jac(X, U)
        return J_x.copy(), J_u.copy()

    def _fx(self, X):
        return self._step(*self._at_u0(X)).copy()

    def _fu(self, U):  # Phi(0, u) - Phi(0, 0)
        return self._step(*self._at_x0(U)) - self._step(*self._at_x0(np.zeros((1, self.input_dim))))

    def _fxu(self, X, U, ex=_itself, eu=_itself):
        return self._step(ex(X), eu(U)) - ex(self._step(*self._at_u0(X))) - eu(self._fu(U))

    def _jfx(self, X):
        return self._jac(*self._at_u0(X))[0].copy()

    def _jfu(self, U):
        return self._jac(*self._at_x0(U))[1].copy()

    def _jfxu_x(self, X, U, ex=_itself, eu=_itself):
        return self._jac(ex(X), eu(U))[0] - ex(self._jac(*self._at_u0(X))[0])

    def _jfxu_u(self, X, U, ex=_itself, eu=_itself):
        return self._jac(ex(X), eu(U))[1] - eu(self._jac(*self._at_x0(U))[1])

    @property
    def _kernels(self) -> dict:
        # on a grid, Phi(x, 0), Phi(0, u) and their tangents step its states and inputs
        return {self.f_xu: self._fxu, self.jacobian_fxu_x: self._jfxu_x,
                self.jacobian_fxu_u: self._jfxu_u}


def discretize(system: ControlledSystem, dt: float) -> ControlledSystem:
    """Zero-order-hold RK4 discretization, re-split into f_x + f_u + f_xu.

    The map itself is the direct step, f(x, u) = Phi(x, u): one RK4 step over
    a whole stack of points. Its split is
        f_x(x)    = Phi(x, 0)
        f_u(u)    = Phi(0, u) - Phi(0, 0)
        f_xu(x,u) = Phi(x, u) - f_x(x) - f_u(u)
    which reproduces the normalization exactly by construction; the pieces
    re-sum to Phi within about one ulp. Jacobians are propagated through the
    RK4 stages (no finite differences); jacobian_x and jacobian_u are one
    tangent pass at (x, u), which reuses that point set's step stages.

    The map steps nothing until a method asks, Phi(0, 0) included, so the
    flow needs to be finite only where it is stepped. It keeps the steps and
    tangents of its last 16 point sets, keyed by their exact shapes and
    bytes, and shares them between evaluate, the pieces and all Jacobians;
    every method still returns an array the caller owns.
    """
    if system.time_kind != "continuous":
        raise ValueError("discretize expects a continuous system")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _RK4Map(system, dt)


# -- dataset generation ---------------------------------------------------------


def _draw_box(rng, box, size):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((size, len(box)))


def _input_sequence(rng, kind, n_samples, input_region, dt):
    m = len(input_region)
    amp = np.array([(hi - lo) / 2.0 for lo, hi in input_region])
    mid = np.array([(hi + lo) / 2.0 for lo, hi in input_region])
    if kind == "zero":
        return np.zeros((n_samples, m))
    if kind == "uniform-random":
        return _draw_box(rng, input_region, n_samples)
    if kind == "sinusoid":
        k = np.arange(n_samples)[:, None]
        phase = (np.arange(m) * np.pi / 4.0)[None, :]
        return mid + amp * np.sin(2.0 * k * dt + phase)
    if kind == "prbs":
        # random-period binary switching: period redrawn from the seeded
        # generator at each switch, levels at the box edges
        U = np.empty((n_samples, m))
        for j in range(m):
            k = 0
            while k < n_samples:
                level = mid[j] + amp[j] * (1.0 if rng.random() < 0.5 else -1.0)
                period = int(rng.integers(1, 11))
                U[k : k + period, j] = level
                k += period
        return U
    raise ValueError(
        f"unknown control_kind {kind!r}; expected uniform-random, sinusoid, prbs or zero"
    )


def generate_dataset(
    system: ControlledSystem,
    n_samples: int,
    control_kind: str = "uniform-random",
    seed: int = 0,
    dt: float = 0.1,
    region=None,
    input_region=None,
    kind: str | None = None,
    derivative_mode: str = "analytic",
    max_retries: int = 100,
    divergence_bound: float = DIVERGENCE_BOUND,
) -> SnapshotDataset:
    """Draw snapshot samples for operator fitting.

    States are drawn uniformly from `region` (default [-2,2]^n), inputs follow
    `control_kind` over `input_region` (default [-1,1]^m). For discrete systems
    (or kind="discrete-pairs", discretizing continuous systems at `dt`) the
    targets are one-step successors; for continuous systems the targets are
    state derivatives, either analytic or central-differenced from short
    integrated arcs (derivative_mode="finite-difference").

    A sample whose target is not finite or has a 2-norm above
    `divergence_bound` (the rule `simulate` and `rollout` stop a path by) is
    redrawn from the same seeded stream, so a given seed (an integer >= 0)
    always yields the same dataset.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if derivative_mode not in ("analytic", "finite-difference"):
        raise ValueError(f"unknown derivative_mode {derivative_mode!r}")
    if kind is None:
        kind = "discrete-pairs" if system.time_kind == "discrete" else "continuous-derivative"
    if kind == "discrete-pairs" and system.time_kind == "continuous":
        system = discretize(system, dt)
    if kind == "continuous-derivative" and system.time_kind == "discrete":
        raise ValueError("continuous-derivative data requires a continuous system")

    if region is None:
        region = [(-STATE_BOUND, STATE_BOUND)] * system.state_dim
    if input_region is None:
        input_region = [(-INPUT_BOUND, INPUT_BOUND)] * system.input_dim
    if len(region) != system.state_dim or len(input_region) != system.input_dim:
        raise ValueError("region/input_region dimensions do not match the system")

    rng = _rng(seed)
    X = _draw_box(rng, region, n_samples)
    U = _input_sequence(rng, control_kind, n_samples, input_region, dt)

    def target(X, U):
        try:
            if kind == "discrete-pairs" or derivative_mode == "analytic":
                return system.evaluate(X, U)
            fwd = rk4_step(system.field, X, U, 0.0, dt)
            bwd = rk4_step(system.field, X, U, 0.0, -dt)
            return (fwd - bwd) / (2.0 * dt)
        except _NonFiniteFieldError:  # a non-finite row fails the whole stack: retry every row
            return np.full_like(X, np.nan)

    # One stacked pass; only the rows it rejects run the per-row retry loop, in
    # row order, so redraws take the same values from the seeded stream.
    Y = target(X, U)
    n_redraws = 0
    for i in np.flatnonzero(~_within(Y, divergence_bound)):
        for _ in range(max_retries):
            y = target(X[i], U[i])
            if _within(y, divergence_bound):
                Y[i] = y
                break
            X[i] = _draw_box(rng, region, 1)[0]
            n_redraws += 1
        else:
            raise ValueError(
                f"could not draw a non-divergent sample after {max_retries} retries"
            )
    return SnapshotDataset(
        kind=kind,
        X=X,
        U=U,
        Y=Y,
        dt=dt,
        seed=seed,
        system_name=system.name,
        control_kind=control_kind,
        n_redraws=n_redraws,
    )


# -- dataset serialization --------------------------------------------------------


def save_dataset(dataset: SnapshotDataset, stem) -> tuple[Path, Path]:
    """Write `<stem>.csv` (rows) and `<stem>.json` (envelope); returns both paths.

    Rows are `k` and then x, u and y, each value as its shortest round-trip
    repr, with the CRLF line ends of the csv module's default dialect.
    """
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    n, m = dataset.state_dim, dataset.input_dim
    rows = map(np.ndarray.tolist, np.hstack([dataset.X, dataset.U, dataset.Y]))
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(_dataset_columns(n, m)) + "\r\n")
        fh.writelines(f"{k},{','.join(map(repr, row))}\r\n" for k, row in enumerate(rows))
    envelope = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "kind": dataset.kind,
        "state_dim": n,
        "input_dim": m,
        "n_samples": dataset.n_samples,
        "dt": dataset.dt,
        "seed": dataset.seed,
        "system": dataset.system_name,
        "control_kind": dataset.control_kind,
        "n_redraws": dataset.n_redraws,
        "csv": csv_path.name,
    }
    with open(json_path, "w") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _dataset_columns(n: int, m: int) -> list:
    """The CSV header of a dataset with n states and m inputs."""
    return (["k"] + [f"x_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)]
            + [f"y_{i + 1}" for i in range(n)])


def load_dataset(stem) -> SnapshotDataset:
    """Read a dataset written by `save_dataset` from `<stem>.csv` + `<stem>.json`; a
    badly typed envelope field or a header off its dims is a ValueError naming it."""
    stem = Path(stem)
    json_path = stem.with_suffix(".json")
    csv_path = stem.with_suffix(".csv")
    env = _read_json_object(json_path, "dataset envelope")
    if env.get("schema_version") != DATASET_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported dataset schema_version {env.get('schema_version')!r}"
        )

    def field(key, kind, *default):
        return _typed_field(env, key, kind, *default, what="dataset envelope field")

    try:
        n, m, n_rows = (field(key, _check_seed) for key in ("state_dim", "input_dim", "n_samples"))
        kind, dt = field("kind", str), field("dt", float)
    except KeyError as exc:
        raise ValueError(f"dataset envelope field {exc} is missing") from None
    columns = _dataset_columns(n, m)
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != columns:
            raise ValueError(f"{csv_path.name}: expected columns {','.join(columns)}, "
                             f"got {','.join(header)}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2) if n_rows else np.zeros((0, len(columns)))
    if data.shape != (n_rows, len(columns)):
        raise ValueError(
            f"{csv_path.name}: expected {n_rows} rows of {len(columns)} columns, "
            f"got {data.shape[0]} of {data.shape[1]}"
        )
    data = data[:, 1:]
    return SnapshotDataset(
        kind=kind,
        X=data[:, :n],
        U=data[:, n : n + m],
        Y=data[:, n + m :],
        dt=dt,
        seed=field("seed", _check_seed, None),
        system_name=field("system", str, ""),
        control_kind=field("control_kind", str, ""),
        n_redraws=field("n_redraws", _check_seed, 0),
    )
