"""Observable dictionaries: finite bases with analytic Jacobians.

A Dictionary maps a point z in R^d to the stacked basis values psi(z) in R^N
and exposes the exact Jacobian d psi / d z. Basis order is deterministic
(monomials in graded lexicographic order), so two builds from the same spec
are interchangeable, including across serialization.

Joint dictionaries are functions of a state-input pair (x, u) with separate
Jacobians in each argument; by construction every monomial joint basis
function carries input degree >= 1 and therefore vanishes on the u = 0 slice.

Every method takes one point, (d,) or (n,) and (m,), or an aligned stack,
(P, d) or (P, n) and (P, m), and returns (P, ...) for a stack. The base
classes check the argument and call one stack kernel: monomial, rbf,
composite, combination, shifted and monomial-joint dictionaries and the
bilinear cross dictionary broadcast over the stack, while the per-point
callables of custom and callable-joint dictionaries go through the row
adapter of `numerics`. On an evaluation grid's product, the kernels of the
monomial-joint and bilinear cross dictionaries evaluate each factor of x or
of u alone on the grid's states or inputs (JointDictionary._on_grid).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .numerics import _Broadcast, _mv, _point_or_stack, _rng, _stacked, _typed_field

__all__ = [
    "Dictionary",
    "MonomialDictionary",
    "RbfDictionary",
    "CompositeDictionary",
    "CombinationDictionary",
    "CustomDictionary",
    "ShiftedDictionary",
    "JointDictionary",
    "MonomialJointDictionary",
    "CallableJointDictionary",
    "bilinear_cross_dictionary",
    "build_dictionary",
    "build_joint_dictionary",
    "joint_dictionary_from_spec",
    "monomials",
    "identity",
    "rbf",
    "subtract_value_at_zero",
]


def _graded_lex_exponents(dim: int, min_degree: int, max_degree: int) -> np.ndarray:
    """Exponent rows sorted by total degree, then lexicographically (z1 major)."""
    rows = []
    for deg in range(min_degree, max_degree + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = np.zeros(dim, dtype=int)
            for idx in combo:
                alpha[idx] += 1
            rows.append(alpha)
    return np.array(rows, dtype=int) if rows else np.zeros((0, dim), dtype=int)


def _monomial_name(alpha, prefix: str) -> str:
    if not alpha.any():
        return "1"
    parts = []
    for j, e in enumerate(alpha):
        if e == 1:
            parts.append(f"{prefix}{j + 1}")
        elif e > 1:
            parts.append(f"{prefix}{j + 1}^{e}")
    return "*".join(parts)


def _power_columns(Z: np.ndarray, E: np.ndarray) -> list:
    """pows[j][k] = Z[:, j]**k by repeated products, for k up to the largest
    exponent of coordinate j; pows[j][0] is 1.0, so 0**0 == 1. The kernels
    skip those unit factors, since multiplying by one is exact."""
    pows = []
    for j, top in enumerate(E.max(axis=0, initial=0).tolist()):
        column = [1.0, Z[:, j]]
        for _ in range(top - 1):
            column.append(column[-1] * Z[:, j])
        pows.append(column)
    return pows


def _product_into(out: np.ndarray, factors: list) -> None:
    """out = the product of factors (arrays or scalars), 1 when there are none."""
    if len(factors) < 2:
        out[...] = factors[0] if factors else 1.0
        return
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        np.multiply(out, factor, out=out)


def _monomial_values(Z: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Monomials z^alpha for the exponent rows of E at each row of Z: (P, N),
    C-contiguous, each row of E's product written straight into its column."""
    pows = _power_columns(Z, E)
    out = np.empty((len(Z), len(E)))
    for n, alpha in enumerate(E.tolist()):
        _product_into(out[:, n], [pows[j][e] for j, e in enumerate(alpha) if e])
    return out


def _monomial_jacobian(Z: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Their Jacobians at each row of Z: (P, N, d), C-contiguous. Column j of
    row n is E[n, j] * z_j**(E[n, j] - 1) * prod_{i != j} z_i**E[n, i]."""
    pows = _power_columns(Z, E)
    out = np.zeros((len(Z), len(E), Z.shape[1]))
    for n, alpha in enumerate(E.tolist()):
        for j, ej in enumerate(alpha):
            if not ej:
                continue
            lowered = list(alpha)
            lowered[j] -= 1
            factors = [pows[i][e] for i, e in enumerate(lowered) if e]
            _product_into(out[:, n, j], ([ej] if ej > 1 else []) + factors)
    return out


class Dictionary:
    """Base class; subclasses fill in the stack kernels _values/_jacobians and
    the metadata flags that differ from their defaults here.

    Attributes
    ----------
    input_dim : int
        Dimension d of the argument.
    names : list of str
    state_inclusive : bool
        True when every coordinate z_j appears verbatim as a basis function;
        `state_index_map[j]` then locates z_j's row.
    zero_at_zero : bool
        True when psi(0) = 0 (no constant and all functions vanish at 0).
    constant_index : int or None
        Row of the constant function 1, if present.
    spec : dict or None
        JSON-serializable recipe that rebuilds this dictionary, or None for
        bases defined by arbitrary callables.
    """

    kind = "abstract"

    def __init__(self, input_dim, names, state_inclusive=False, state_index_map=None,
                 zero_at_zero=False, constant_index=None, spec=None):
        self.input_dim = int(input_dim)
        self.names = list(names)
        self.state_inclusive = bool(state_inclusive)
        self.state_index_map = (
            np.asarray(state_index_map, dtype=int) if state_index_map is not None else None
        )
        self.zero_at_zero = bool(zero_at_zero)
        self.constant_index = constant_index
        self.spec = spec

    @property
    def size(self) -> int:
        return len(self.names)

    def _call(self, kernel, z) -> np.ndarray:
        return _point_or_stack(kernel, (z,), (self.input_dim,),
                               f"argument of a dictionary over R^{self.input_dim}")

    def evaluate(self, z) -> np.ndarray:
        """psi(z): (N,) at one point (d,), (P, N) on a stack (P, d)."""
        return self._call(self._values, z)

    def jacobian(self, z) -> np.ndarray:
        """d psi / d z: (N, d) at one point, (P, N, d) on a stack."""
        return self._call(self._jacobians, z)

    def _values(self, Z) -> np.ndarray:
        """Stack kernel of evaluate: (P, d) -> (P, N)."""
        raise NotImplementedError

    def _jacobians(self, Z) -> np.ndarray:
        """Stack kernel of jacobian: (P, d) -> (P, N, d)."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.input_dim}, size={self.size})"


class MonomialDictionary(Dictionary):
    """All monomials up to max_degree in graded lexicographic order."""

    kind = "monomials"

    def __init__(self, dim, max_degree, include_constant=True, var_prefix="x", _kind=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        self.exponents = _graded_lex_exponents(dim, 0 if include_constant else 1, max_degree)
        # graded-lex order puts the constant first, then z_1..z_d (max_degree >= 1)
        first = 1 if include_constant else 0
        super().__init__(
            input_dim=dim,
            names=[_monomial_name(a, var_prefix) for a in self.exponents],
            state_inclusive=True,
            state_index_map=range(first, first + dim),
            zero_at_zero=not include_constant,
            constant_index=0 if include_constant else None,
            spec={
                "kind": _kind or "monomials",
                "dim": dim,
                "max_degree": max_degree,
                "include_constant": bool(include_constant),
                "var_prefix": var_prefix,
            },
        )
        if _kind:
            self.kind = _kind

    def _values(self, Z):
        return _monomial_values(Z, self.exponents)

    def _jacobians(self, Z):
        return _monomial_jacobian(Z, self.exponents)


def monomials(dim, max_degree, include_constant=True, var_prefix="x") -> MonomialDictionary:
    return MonomialDictionary(dim, max_degree, include_constant, var_prefix)


def identity(dim, var_prefix="x") -> MonomialDictionary:
    """The coordinate functions {z_1, ..., z_d} themselves."""
    return MonomialDictionary(dim, 1, include_constant=False, var_prefix=var_prefix,
                              _kind="identity")


def _numbers(values, what: str) -> np.ndarray:
    """`values` as a float array; ValueError naming `what` unless every entry is a
    finite number (booleans and strings are not numbers)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite numbers, got {values!r}")
    return arr.astype(float)


def _latin_hypercube(n_centers, region, seed):
    rng = _rng(seed)
    pts = np.empty((n_centers, len(region)))
    for j, (lo, hi) in enumerate(region):
        cells = (rng.permutation(n_centers) + rng.random(n_centers)) / n_centers
        pts[:, j] = lo + (hi - lo) * cells
    return pts


class RbfDictionary(Dictionary):
    """Gaussian bumps exp(-||z - c||^2 / (2 w^2)) at fixed centers."""

    kind = "rbf"

    def __init__(self, centers, width):
        centers = np.atleast_2d(_numbers(centers, "rbf centers"))
        w = np.asarray(width)
        if w.ndim or w.dtype.kind not in "iuf" or not 0 < w < np.inf:
            raise ValueError(f"rbf width must be a finite number > 0, got {width!r}")
        self.centers = centers
        self.width = float(width)
        names = [f"rbf{i + 1}" for i in range(centers.shape[0])]
        super().__init__(
            input_dim=centers.shape[1],
            names=names,
            spec={"kind": "rbf", "centers": centers.tolist(), "width": float(width)},
        )

    def _values(self, Z):
        d2 = np.sum((Z[:, None, :] - self.centers) ** 2, axis=2)
        return np.exp(-d2 / (2.0 * self.width**2))

    def _jacobians(self, Z):
        return self._values(Z)[:, :, None] * (-(Z[:, None, :] - self.centers) / self.width**2)


def rbf(dim=None, centers=None, width=1.0, n_centers=None, region=None, seed=0) -> RbfDictionary:
    """Gaussian basis; centers given explicitly or Latin-hypercube sampled."""
    if centers is not None:
        return RbfDictionary(centers, width)
    if n_centers is None or region is None:
        raise ValueError("rbf needs either explicit centers or (n_centers, region)")
    if n_centers < 1:
        raise ValueError(f"rbf n_centers must be >= 1, got {n_centers!r}")
    box = _numbers(region, "rbf region")
    if box.ndim != 2 or box.shape[1] != 2 or not np.all(box[:, 0] < box[:, 1]):
        raise ValueError(f"rbf region must be [low, high] pairs with low < high, got {region!r}")
    if dim is not None and dim != len(region):
        raise ValueError("region length must equal dim")
    return RbfDictionary(_latin_hypercube(n_centers, region, seed), width)


class CompositeDictionary(Dictionary):
    """Concatenation of component dictionaries over the same argument."""

    kind = "composite"

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("composite needs at least one part")
        dims = {p.input_dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"composite parts disagree on dimension: {sorted(dims)}")
        self.parts = parts
        names = [nm for p in parts for nm in p.names]
        offset = 0
        state_map = None
        const_index = None
        for p in parts:
            if state_map is None and p.state_inclusive:
                state_map = p.state_index_map + offset
            if const_index is None and p.constant_index is not None:
                const_index = p.constant_index + offset
            offset += p.size
        specs = [p.spec for p in parts]
        super().__init__(
            input_dim=parts[0].input_dim,
            names=names,
            state_inclusive=state_map is not None,
            state_index_map=state_map,
            zero_at_zero=all(p.zero_at_zero for p in parts),
            constant_index=const_index,
            spec={"kind": "composite", "parts": specs} if all(s is not None for s in specs) else None,
        )

    def _values(self, Z):
        return np.concatenate([p._values(Z) for p in self.parts], axis=1)

    def _jacobians(self, Z):
        return np.concatenate([p._jacobians(Z) for p in self.parts], axis=1)


class CombinationDictionary(Dictionary):
    """Rows are fixed linear combinations C @ psi_base of a base dictionary.

    Serializable whenever the base is, which makes hand-built eigenfunction
    bases (e.g. {x1, x2 - b*x1^2}) expressible in config files.
    """

    kind = "combination"

    def __init__(self, base: Dictionary, coefficients, names=None):
        C = np.atleast_2d(_numbers(coefficients, "combination coefficients"))
        if C.shape[1] != base.size:
            raise ValueError(
                f"coefficients must have {base.size} columns, got {C.shape[1]}"
            )
        self.base = base
        self.coefficients = C
        if names is None:
            names = [f"combo{i + 1}" for i in range(C.shape[0])]
        if (not isinstance(names, (list, tuple)) or len(names) != C.shape[0]
                or not all(isinstance(n, str) for n in names)):
            raise ValueError(f"combination names must be a list of {C.shape[0]} strings, one "
                             f"per coefficient row, got {names!r}")
        # a row reproduces coordinate z_j exactly iff it selects the z_j row
        # of a state-inclusive base with a unit coefficient
        state_map = []
        state_inclusive = base.state_inclusive
        if state_inclusive:
            for j, base_row in enumerate(base.state_index_map):
                unit = np.zeros(base.size)
                unit[base_row] = 1.0
                hits = [i for i in range(C.shape[0]) if np.array_equal(C[i], unit)]
                if hits:
                    state_map.append(hits[0])
                else:
                    state_inclusive = False
                    break
        zero_at_zero = bool(base.zero_at_zero) or bool(
            np.all(np.abs(C @ base.evaluate(np.zeros(base.input_dim))) <= 1e-14)
        )
        super().__init__(
            input_dim=base.input_dim,
            names=names,
            state_inclusive=state_inclusive,
            state_index_map=state_map if state_inclusive else None,
            zero_at_zero=zero_at_zero,
            spec=(
                {
                    "kind": "combination",
                    "base": base.spec,
                    "coefficients": C.tolist(),
                    "names": list(names),
                }
                if base.spec is not None
                else None
            ),
        )

    def _values(self, Z):
        return _mv(self.coefficients, self.base._values(Z))

    def _jacobians(self, Z):
        return self.coefficients @ self.base._jacobians(Z)


class CustomDictionary(Dictionary):
    """Basis given by arbitrary (name, value_fn, gradient_fn) triples.

    value_fn(z) and gradient_fn(z) take one point; the row adapter calls
    them once per row of a stack.
    """

    kind = "custom"

    def __init__(self, input_dim, entries, state_inclusive=False, state_index_map=None,
                 constant_index=None):
        fns = [e[1] for e in entries]
        grads = [e[2] for e in entries]
        names = [e[0] for e in entries]
        self._values = _stacked(lambda z: [float(f(z)) for f in fns], (len(names),))
        self._jacobians = _stacked(
            lambda z: [np.asarray(g(z), dtype=float) for g in grads], (len(names), input_dim))
        vals0 = self._values(np.zeros((1, input_dim)))
        super().__init__(
            input_dim=input_dim,
            names=names,
            state_inclusive=state_inclusive,
            state_index_map=state_index_map,
            zero_at_zero=bool(np.all(np.abs(vals0) <= 1e-12)),
            constant_index=constant_index,
        )


class ShiftedDictionary(Dictionary):
    """psi(z) - psi(0): same Jacobians, guaranteed zero at the origin."""

    kind = "shifted"

    def __init__(self, base: Dictionary):
        self.base = base
        self.offset = base.evaluate(np.zeros(base.input_dim))
        super().__init__(
            input_dim=base.input_dim,
            names=list(base.names),
            # shifting kills the constant row; coordinates survive untouched
            state_inclusive=base.state_inclusive,
            state_index_map=base.state_index_map,
            zero_at_zero=True,
            spec={"kind": "shifted", "base": base.spec} if base.spec is not None else None,
        )

    def _values(self, Z):
        return self.base._values(Z) - self.offset

    def _jacobians(self, Z):
        return self.base._jacobians(Z)


def subtract_value_at_zero(dictionary: Dictionary) -> ShiftedDictionary:
    return ShiftedDictionary(dictionary)


def build_dictionary(spec: dict) -> Dictionary:
    """Rebuild a dictionary from its JSON spec (see Dictionary.spec)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"dictionary spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    try:
        if kind in ("monomials", "identity"):
            dim, prefix = _typed_field(spec, "dim", int), _typed_field(spec, "var_prefix", str, "x")
            if kind == "identity":
                return identity(dim, prefix)
            return monomials(dim, _typed_field(spec, "max_degree", int),
                             _typed_field(spec, "include_constant", bool, True), prefix)
        if kind == "rbf":
            if "centers" in spec:
                return RbfDictionary(spec["centers"], spec["width"])
            return rbf(
                n_centers=_typed_field(spec, "n_centers", int),
                region=[tuple(b) for b in spec["region"]],
                width=spec["width"],
                seed=_typed_field(spec, "seed", int, 0),
            )
        if kind == "composite":
            return CompositeDictionary([build_dictionary(s) for s in spec["parts"]])
        if kind == "combination":
            return CombinationDictionary(
                build_dictionary(spec["base"]),
                spec["coefficients"],
                spec.get("names"),
            )
        if kind == "shifted":
            return ShiftedDictionary(build_dictionary(spec["base"]))
    except KeyError as exc:
        raise ValueError(f"dictionary spec {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown dictionary kind {kind!r}")


# -- joint dictionaries over (x, u) -------------------------------------------


def _itself(a):
    return a


class JointDictionary:
    """Basis over state-input pairs with separate x- and u-Jacobians; subclasses
    fill in the stack kernels _values/_jacobians_x/_jacobians_u."""

    kind = "abstract-joint"
    # kernels that take (X, U, ex, eu) and pass each factor of X alone through ex
    # and each factor of U alone through eu; see _on_grid
    _axis_kernels = False

    def __init__(self, state_dim, input_dim, names, spec):
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self.names = list(names)
        self.spec = spec

    @property
    def size(self) -> int:
        return len(self.names)

    def _call(self, kernel, x, u) -> np.ndarray:
        return _point_or_stack(kernel, (x, u), (self.state_dim, self.input_dim))

    def evaluate(self, x, u) -> np.ndarray:
        """psi(x, u): (N,) at one point, (P, N) on aligned stacks."""
        return self._call(self._values, x, u)

    def jacobian_x(self, x, u) -> np.ndarray:
        """d psi / d x: (N, n) at one point, (P, N, n) on aligned stacks."""
        return self._call(self._jacobians_x, x, u)

    def jacobian_u(self, x, u) -> np.ndarray:
        """d psi / d u: (N, m) at one point, (P, N, m) on aligned stacks."""
        return self._call(self._jacobians_u, x, u)

    def _on_grid(self, method, grid) -> np.ndarray:
        """method (this dictionary's evaluate, jacobian_x or jacobian_u) on
        grid.product, equal to it there bit for bit. Axis kernels run on grid.states
        and grid.inputs, with the grid's per_state and per_input as ex and eu, so a
        factor of one argument is evaluated once per distinct value; other kernels
        run on the product."""
        if not self._axis_kernels:
            return method(*grid.product)
        kernel = {self.evaluate: self._values, self.jacobian_x: self._jacobians_x,
                  self.jacobian_u: self._jacobians_u}[method]
        return kernel(grid.states, grid.inputs, grid.per_state, grid.per_input)

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.state_dim}, m={self.input_dim}, "
            f"size={self.size})"
        )


class MonomialJointDictionary(JointDictionary):
    """Products p(x) * q(u) with deg p <= state_degree, 1 <= deg q <= input_degree.

    Input degree >= 1 makes every basis function vanish identically at u = 0.
    """

    kind = "monomial-joint"
    _axis_kernels = True

    def __init__(self, state_dim, input_dim, state_degree, input_degree):
        if input_degree < 1:
            raise ValueError("input_degree must be >= 1")
        if state_degree < 0:
            raise ValueError("state_degree must be >= 0")
        Ex_rows = _graded_lex_exponents(state_dim, 0, state_degree)
        Eu_rows = _graded_lex_exponents(input_dim, 1, input_degree)
        pairs = [(ax, au) for ax in Ex_rows for au in Eu_rows]
        pairs.sort(
            key=lambda p: (
                int(p[0].sum() + p[1].sum()),
                tuple(-int(v) for v in np.concatenate(p)),
            )
        )
        self.exponents_x = np.array([p[0] for p in pairs], dtype=int)
        self.exponents_u = np.array([p[1] for p in pairs], dtype=int)
        names = []
        for ax, au in pairs:
            nx = _monomial_name(ax, "x")
            nu = _monomial_name(au, "u")
            names.append(nu if nx == "1" else f"{nx}*{nu}")
        super().__init__(
            state_dim,
            input_dim,
            names,
            spec={
                "kind": "monomial-joint",
                "state_dim": int(state_dim),
                "input_dim": int(input_dim),
                "state_degree": int(state_degree),
                "input_degree": int(input_degree),
            },
        )

    def _values(self, X, U, ex=_itself, eu=_itself):
        return (ex(_monomial_values(X, self.exponents_x))
                * eu(_monomial_values(U, self.exponents_u)))

    def _jacobians_x(self, X, U, ex=_itself, eu=_itself):
        return (ex(_monomial_jacobian(X, self.exponents_x))
                * eu(_monomial_values(U, self.exponents_u))[:, :, None])

    def _jacobians_u(self, X, U, ex=_itself, eu=_itself):
        return (eu(_monomial_jacobian(U, self.exponents_u))
                * ex(_monomial_values(X, self.exponents_x))[:, :, None])


class CallableJointDictionary(JointDictionary):
    """Joint basis defined by callables (used for operator-derived cross terms).

    eval_fn, jac_x_fn and jac_u_fn take one point (x, u) and go through the
    row adapter, unless marked `numerics._Broadcast` as stack kernels.
    """

    kind = "callable-joint"

    def __init__(self, state_dim, input_dim, names, eval_fn, jac_x_fn, jac_u_fn, spec=None):
        super().__init__(state_dim, input_dim, names, spec)
        N = self.size
        self._values = _stacked(eval_fn, (N,))
        self._jacobians_x = _stacked(jac_x_fn, (N, self.state_dim))
        self._jacobians_u = _stacked(jac_u_fn, (N, self.input_dim))


def build_joint_dictionary(state_dim, input_dim, state_degree, input_degree) -> MonomialJointDictionary:
    return MonomialJointDictionary(state_dim, input_dim, state_degree, input_degree)


def _bilinear_operator(dict_u: Dictionary, K_terms, u) -> np.ndarray:
    """Input-dependent operator K(u) = sum_i psi_u_i(u) K_i: (N, N) at one
    input, (P, N, N) on a stack."""
    W = dict_u.evaluate(u)
    return sum(W[..., i, None, None] * K for i, K in enumerate(K_terms))


def _bilinear_jacobian_u(dict_x: Dictionary, dict_u: Dictionary, K_terms, x, u,
                         ex=_itself, eu=_itself) -> np.ndarray:
    """d/du of K(u) psi_x(x) with K(u) = sum_i psi_u_i(u) K_i: (N_x, m) at one
    point, (P, N_x, m) on aligned stacks; an axis kernel (JointDictionary._on_grid)."""
    px = dict_x.evaluate(x)
    Ju = eu(dict_u.jacobian(u))  # (..., N_u, m)
    return sum(ex(_mv(K, px))[..., :, None] * Ju[..., i, None, :] for i, K in enumerate(K_terms))


class _AxisCallableJointDictionary(CallableJointDictionary):
    """A callable joint dictionary whose broadcast callables are axis kernels."""

    _axis_kernels = True


def bilinear_cross_dictionary(dict_x: Dictionary, dict_u: Dictionary, K_terms) -> CallableJointDictionary:
    """Cross term psi_xu(x, u) = (K(u) - K(0)) psi_x(x) induced by an
    input-dependent operator family K(u) = sum_i psi_u_i(u) K_i."""
    K_terms = [np.asarray(K, dtype=float) for K in K_terms]
    K0 = _bilinear_operator(dict_u, K_terms, np.zeros(dict_u.input_dim))

    def eval_fn(X, U, ex=_itself, eu=_itself):
        return _mv(eu(_bilinear_operator(dict_u, K_terms, U) - K0), ex(dict_x.evaluate(X)))

    def jac_x_fn(X, U, ex=_itself, eu=_itself):
        return eu(_bilinear_operator(dict_u, K_terms, U) - K0) @ ex(dict_x.jacobian(X))

    def jac_u_fn(X, U, ex=_itself, eu=_itself):
        return _bilinear_jacobian_u(dict_x, dict_u, K_terms, X, U, ex, eu)

    spec = None
    if dict_x.spec is not None and dict_u.spec is not None:
        spec = {
            "kind": "bilinear-derived",
            "state": dict_x.spec,
            "input": dict_u.spec,
            "k_terms": [K.tolist() for K in K_terms],
        }
    names = [f"cross{i + 1}" for i in range(dict_x.size)]
    return _AxisCallableJointDictionary(
        dict_x.input_dim, dict_u.input_dim, names,
        _Broadcast(eval_fn), _Broadcast(jac_x_fn), _Broadcast(jac_u_fn), spec,
    )


def joint_dictionary_from_spec(spec: dict) -> JointDictionary:
    """Rebuild a joint dictionary from its JSON spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"joint dictionary spec must be a dict with 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "monomial-joint":
            return MonomialJointDictionary(*(_typed_field(spec, key, int) for key in (
                "state_dim", "input_dim", "state_degree", "input_degree")))
        if kind == "bilinear-derived":
            return bilinear_cross_dictionary(
                build_dictionary(spec["state"]),
                build_dictionary(spec["input"]),
                [np.asarray(K, dtype=float) for K in spec["k_terms"]],
            )
    except KeyError as exc:
        raise ValueError(f"joint dictionary spec {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown joint dictionary kind {kind!r}")
