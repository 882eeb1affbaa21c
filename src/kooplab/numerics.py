"""Shared numerical kernels: least squares, finite differences, one RK4 step
over points or stacks, and the point-or-stack and grid plumbing. The module
also holds the package's one JSON reader and writer, the CSV writer of summaries
and comparisons, and the typed-field and seed checks of specs and envelopes.

Everything downstream (fitting, Jacobian checks, simulation) funnels through
the first three routines, so their error behavior is deliberately strict: any
non-finite value is rejected at the boundary instead of propagating NaNs
into fitted operators.

Systems, dictionaries and models take one point (d,) or an aligned stack
(P, d) and return (P, ...) for a stack. Their kernels work on stacks and
their methods reach them through the one point-or-stack adapter here,
`_point_or_stack`; a per-point user callable reaches a kernel through the
one row adapter, `_stacked`, unless it is marked `_Broadcast`.
"""

from __future__ import annotations

import csv
import json
import sys
from numbers import Integral, Real
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "solve_least_squares",
    "finite_difference_jacobian",
    "rk4_step",
]

# Central differences: optimal step scale for O(h^2) truncation vs roundoff.
_FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))

# rows of the design reduced per QR update: a fit's working memory is bounded
# by this many rows of features and targets, however many samples it streams
_BLOCK_ROWS = 512


class _Broadcast:
    """Marks a callable that already maps aligned (P, ...) stacks to (P, ...)
    values, so `_stacked` uses it without the row adapter."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


def _itself(a):
    return a


def _stacked(fn, shape):
    """Stack-native form of a callable: as given when marked _Broadcast,
    otherwise a row adapter calling the per-point fn once per aligned row. Over
    a pair the adapter is a kernel (X, U, ex, eu) that cannot factor: it runs
    on the rows of ex(X) and eu(U)."""
    if isinstance(fn, _Broadcast):
        return fn.fn

    def rows(X, *U, ex=_itself, eu=_itself):
        out = np.array([fn(*row) for row in zip(ex(X), *map(eu, U))], dtype=float)
        return out.reshape((len(out),) + shape)

    return rows


def _as_rows(a, dim: int, what: str):
    """(stack (P, dim), whether a was a single point (dim,))."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != dim:
        raise ValueError(f"{what} must have shape ({dim},) or (P, {dim}), got {a.shape}")
    return (a[None] if a.ndim == 1 else a), a.ndim == 1


def _aligned_rows(x, u, n: int, m: int):
    """(X, U, single) for a state-input pair given as one point or aligned stacks."""
    X, single = _as_rows(x, n, "state")
    U, single_u = _as_rows(u, m, "input")
    if single != single_u or len(X) != len(U):
        raise ValueError(
            f"state and input must both be single points or stacks with equal "
            f"row counts, got shapes {np.shape(x)} and {np.shape(u)}"
        )
    return X, U, single


def _point_or_stack(kernel, args, dims, what: str = "state"):
    """kernel on the stacks of one point or aligned stacks: args is (a,), checked by
    `_as_rows` as `what` in R^dims[0], or a pair (x, u), checked by `_aligned_rows`
    in R^n x R^m. Row 0 of the kernel's values for a single point, else all of them."""
    *stacks, single = (_aligned_rows(*args, *dims) if len(args) == 2
                       else _as_rows(args[0], dims[0], what))
    out = kernel(*stacks)
    return out[0] if single else out


def _on_grid(method, grid) -> np.ndarray:
    """method(*grid.product), bit for bit, from the kernel kernel(X, U, ex, eu) that
    method's owner lists in `_kernels`, on the grid's states and inputs with per_state
    and per_input as ex and eu: a kernel passes each factor of X alone through ex and
    each of U alone through eu, the identity on aligned stacks. A method with no listed
    kernel cannot factor and runs on ex(X), eu(U), the product itself (grid.product)."""
    kernels = method.__self__._kernels
    return (kernels[method](grid.states, grid.inputs, ex=grid.per_state, eu=grid.per_input)
            if method in kernels else method(*grid.product))


def _require_finite_rows(error, *arrays):
    """Raise error(i) for the first row i at which one of the aligned stacks (P, k),
    or points (k,), is not finite; the row scan runs only when a whole-array test fails."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise error(int(np.argmin(np.logical_and.reduce(
            [np.isfinite(np.atleast_2d(a)).all(axis=1) for a in arrays]))))


def _read_only(a) -> np.ndarray:
    """A read-only view of a, so that no holder of a shared array can change it."""
    a = a.view()
    a.flags.writeable = False
    return a


def _mv(A, v) -> np.ndarray:
    """A @ v per point: one shared or (P, ...) stacked matrices times one
    vector or (P, ...) stacked vectors; equal to per-row A @ v bit for bit."""
    return (A @ v[..., None])[..., 0]


class _NonFiniteFieldError(ValueError):
    """A field value that is not finite: the one error that counts as divergence."""


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when an unregularized least-squares design matrix is rank deficient."""

    def __init__(self, rank: int, columns: int, message: str | None = None):
        self.rank = int(rank)
        self.columns = int(columns)
        if message is None:
            message = (
                f"design matrix is numerically rank deficient: rank {rank} < "
                f"{columns} columns; add ridge regularization or enrich the data"
            )
        super().__init__(message)


def _as_float_array(a, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _row_slices(n: int) -> list:
    """The row slices, _BLOCK_ROWS long, in which a fit streams its n samples."""
    return [slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS)]


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite real number, compared as a Python float: booleans, infinities, NaN
    and integers too large for a float fail."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_seed(seed) -> int:
    """seed, when it is an integer >= 0 (a bool is not); else ValueError naming it.
    Also the `_typed_field` kind of a seed or a count."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _magnitude(v) -> float:
    """float(v): the `_typed_field` kind of a number >= 0 that may be Infinity."""
    return float(v)


# kind -> (test, what the message calls it); a bool is a boolean and nothing else
_FIELD_TYPES = {
    int: (_is_int, "an integer"),
    _check_seed: (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    float: (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
           "a list of strings"),
    _magnitude: (lambda v: _is_real(v) and v >= 0 or v == float("inf"),
                 "a number >= 0 or Infinity"),
}


def _typed_field(fields: dict, key: str, kind: Callable, *default, what="dictionary spec field"):
    """fields[key] as a `kind`, or the default (when given) if it is absent. A
    present value must be of `kind`, or null where the default is None, else
    ValueError names it as `what` `key`."""
    value = fields.get(key, *default) if default else fields[key]
    if value is None and default == (None,):
        return None
    test, noun = _FIELD_TYPES[kind]
    if not test(value):
        raise ValueError(f"{what} {key!r} must be {noun}, got {value!r}")
    return kind(value)


def _read_json_object(path, what: str) -> dict:
    """The JSON object `what` in the file at path; a ValueError naming the file if it is
    not, and a FileNotFoundError if path names no file (a directory included)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"{path.name}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path.name}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _write_json(path, doc) -> None:
    """Write doc as JSON: indent 2, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path, fields, rows) -> None:
    """Write the `fields` of each dict row under a header, in the csv module's default
    dialect, which writes a float as its repr; a row's other keys are ignored."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _rng(seed) -> np.random.Generator:
    """The seeded random stream of one draw; the seed is checked first."""
    return np.random.default_rng(_check_seed(seed))


def _block_least_squares(n_rows: int, rows, ridge: float = 0.0):
    """The one least-squares core: min ||G X - T||_F^2 (+ ridge ||X||_F^2) for a
    design G (n_rows, k) and targets T (n_rows, p) that rows(sl) hands out as
    (G[sl], T[sl]), one row slice at a time.

    Each block updates the triangular factor F <- qr([F; G_b | T_b]), so memory
    does not grow with n_rows. With F = [[R, Q^T T], [0, S]], one lstsq on the
    k x k triangle R (sqrt(ridge) I rows appended when ridge > 0) gives X, with
    the rank rule of an SVD of the whole (ridge-augmented) design: singular
    values at or below eps * max(rows, k) * s_max count as zero, and a
    rank-deficient design gets the minimum-norm X. Returns (X (k, p), rank,
    the design's singular values, RMS residual ||G X - T||_F / sqrt(n_rows)),
    the residual as sqrt(||S||^2 + ||R X - Q^T T||^2): no second pass over
    the data and no cancellation.
    """
    if not np.isscalar(ridge) or not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be a finite nonnegative scalar, got {ridge!r}")
    F = None
    for block_rows in _row_slices(n_rows):
        G, T = rows(block_rows)
        G = _as_float_array(G, "A", ndim=2)
        T = _as_float_array(T, "B", ndim=2)
        block = np.hstack([G, T])
        F = np.linalg.qr(block if F is None else np.vstack([F, block]), mode="r")
    if F is None or G.shape[1] == 0:
        raise ValueError("A must have at least one row and one column")
    k, width = G.shape[1], F.shape[1]
    F = np.vstack([F, np.zeros((width - len(F), width))])  # fewer rows than columns
    R, QtT, S = F[:k, :k], F[:k, k:], F[k:, k:]
    design, rhs, design_rows = R, QtT, n_rows
    if ridge > 0.0:
        design = np.vstack([R, np.sqrt(ridge) * np.eye(k)])
        rhs = np.vstack([QtT, np.zeros_like(QtT)])
        design_rows += k
    X, _, rank, s = np.linalg.lstsq(design, rhs,
                                    rcond=np.finfo(float).eps * max(design_rows, k))
    residual = np.hypot(np.linalg.norm(S), np.linalg.norm(R @ X - QtT))
    return X, int(rank), s[:min(design_rows, k)], float(residual / np.sqrt(n_rows))


def solve_least_squares(A, B, ridge: float = 0.0) -> np.ndarray:
    """Minimize ||A X - B||_F^2 (+ ridge * ||X||_F^2) over X.

    Parameters
    ----------
    A : (m, n) array_like
        Design matrix.
    B : (m,) or (m, p) array_like
        Right-hand side; the returned X matches its dimensionality.
    ridge : float, optional
        Tikhonov weight. Zero (default) solves the plain problem and raises
        :class:`RankDeficiencyError` when A is numerically rank deficient;
        positive values solve the equivalent augmented full-rank problem
        [A; sqrt(ridge) I] X = [B; 0].

    Returns
    -------
    X : (n,) or (n, p) ndarray

    Notes
    -----
    The solve runs on the row-block QR core the fits use, never the normal
    equations, so conditioning is that of A itself.
    """
    A = _as_float_array(A, "A", ndim=2)
    B = np.asarray(B, dtype=float)
    if B.ndim not in (1, 2):
        raise ValueError(f"B must be 1- or 2-dimensional, got shape {B.shape}")
    B2 = B[:, None] if B.ndim == 1 else B
    if A.shape[0] != B2.shape[0]:
        raise ValueError(
            f"A and B row counts differ: A has {A.shape[0]} rows, B has {B2.shape[0]}"
        )
    X, rank, _, _ = _block_least_squares(A.shape[0], lambda rows: (A[rows], B2[rows]), ridge)
    if ridge == 0.0 and rank < A.shape[1]:
        raise RankDeficiencyError(rank, A.shape[1])
    return X[:, 0] if B.ndim == 1 else X


def _violation(a) -> np.ndarray:
    """|a| per entry, a non-finite entry counted as inf: every check's one violation rule."""
    return np.where(np.isfinite(a), np.abs(a), np.inf)


def _fd_jacobians(f, Z, h=None) -> np.ndarray:
    """Central-difference Jacobians (P, k, d) of a stacked map f: (P, d) -> (P, k)
    at the rows of Z: per coordinate j, one call of f on the whole stack with only
    column j of a copy moved by +-h, by default _FD_STEP_SCALE * (1 + |Z[i, j]|)
    per row, so that each row equals its one-point differences bit for bit."""
    Z = _as_float_array(Z, "x")
    F = f(Z)
    if F.ndim != 2:
        raise ValueError(f"f must return a 1-D array, got shape {F.shape[1:]}")
    _require_finite_rows(
        lambda i: ValueError(f"f returned non-finite values at x = {Z[i].tolist()}"), F)
    J = np.empty(F.shape + Z.shape[1:])
    for j in range(Z.shape[1]):
        hj = np.full(len(Z), float(h)) if h else _FD_STEP_SCALE * (1.0 + np.abs(Z[:, j]))
        Zp, Zm = Z.copy(), Z.copy()
        Zp[:, j], Zm[:, j] = Z[:, j] + hj, Z[:, j] - hj
        Fp, Fm = f(Zp), f(Zm)
        _require_finite_rows(lambda i: ValueError(
            f"f returned non-finite values near x = {Z[i].tolist()} "
            f"(coordinate {j}, step {hj[i]})"), Fp, Fm)
        J[..., j] = (Fp - Fm) / (2.0 * hj[:, None])
    return J


def finite_difference_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x``.

    Parameters
    ----------
    f : callable
        Maps a 1-D point to a 1-D value; output length may differ from input.
    x : (n,) array_like
        Evaluation point.
    h : float, optional
        Step size. Default is cbrt(machine eps) scaled per coordinate by
        (1 + |x_j|), balancing O(h^2) truncation against roundoff.

    Returns
    -------
    J : (len(f(x)), n) ndarray
    """
    x = _as_float_array(x, "x", ndim=1)
    if h is not None and (not np.isscalar(h) or h <= 0):
        raise ValueError(f"h must be a positive scalar, got {h!r}")
    return _fd_jacobians(lambda Z: np.asarray(f(Z[0]), dtype=float)[None], x[None], h)[0]


def rk4_step(
    field: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    x,
    u,
    t: float,
    dt: float,
    *,
    _stages: list | None = None,
) -> np.ndarray:
    """One classical Runge-Kutta (fourth order) step with the input held constant.

    Parameters
    ----------
    field : callable
        Map (state, input, time) -> state derivative, over the same point or
        stack shapes as ``x`` and ``u``.
    x : (n,) or (P, n) array_like
        State at time ``t``: one point, or a stack of P points.
    u : (m,) or (P, m) array_like
        Input, zero-order held over the step; one row per state row.
    t : float
        Step start time.
    dt : float
        Step length, must be nonzero (negative steps integrate backwards).

    Returns
    -------
    (n,) or (P, n) ndarray
        State at time ``t + dt``, shaped like ``x``.

    Notes
    -----
    The step owns its finiteness rule, so the field need test nothing: x and u
    at entry, each stage state before the field sees it and each value after.
    A non-finite stage state or value raises the divergence error naming the
    stage time and the first such row's start point x[i], u[i].

    A caller that passes a list as the private `_stages` receives the four
    stage states at which the field was evaluated, stacked into one
    (4 P, n) array (x first), so a tangent pass can reuse them.
    """
    x = _as_float_array(x, "x")
    u = _as_float_array(u, "u")
    if x.ndim not in (1, 2) or u.ndim != x.ndim or u.shape[:-1] != x.shape[:-1]:
        raise ValueError(
            "x and u must be one point (n,), (m,) or aligned stacks (P, n), (P, m); "
            f"got shapes {x.shape} and {u.shape}"
        )
    if not np.isscalar(dt) or dt == 0 or not np.isfinite(dt):
        raise ValueError(f"dt must be a nonzero finite scalar, got {dt!r}")

    def _finite(a, ts, what):
        _require_finite_rows(lambda i: _NonFiniteFieldError(
            f"non-finite {what} at t = {ts} in the step from "
            f"x={np.atleast_2d(x)[i].tolist()}, u={np.atleast_2d(u)[i].tolist()}"), a)
        return a

    def _eval(xs, ts):
        k = np.asarray(field(xs, u, ts), dtype=float)
        if k.shape != x.shape:
            raise ValueError(f"field returned shape {k.shape}, expected {x.shape}")
        return _finite(k, ts, "field value")

    k1 = _eval(x, t)
    x2 = _finite(x + 0.5 * dt * k1, t + 0.5 * dt, "stage state")
    k2 = _eval(x2, t + 0.5 * dt)
    x3 = _finite(x + 0.5 * dt * k2, t + 0.5 * dt, "stage state")
    k3 = _eval(x3, t + 0.5 * dt)
    x4 = _finite(x + dt * k3, t + dt, "stage state")
    k4 = _eval(x4, t + dt)
    if _stages is not None:
        _stages.append((np.concatenate if x.ndim == 2 else np.stack)([x, x2, x3, x4]))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
