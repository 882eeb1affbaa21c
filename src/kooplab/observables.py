"""Observable dictionaries: finite bases with analytic Jacobians.

A Dictionary maps a point z in R^d to the stacked basis values psi(z) in R^N
and exposes the exact Jacobian d psi / d z. Basis order is deterministic
(monomials in graded lexicographic order), so two builds from the same spec
are interchangeable, including across serialization.

Joint dictionaries are functions of a state-input pair (x, u) with separate
Jacobians in each argument; by construction every monomial joint basis
function carries input degree >= 1 and therefore vanishes on the u = 0 slice.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

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


def _monomial_values(Z_row: np.ndarray, E: np.ndarray) -> np.ndarray:
    # 0**0 == 1 under numpy's float power, which is the convention needed here
    return np.prod(np.power(Z_row[None, :], E), axis=1)


def _monomial_jacobian(z: np.ndarray, E: np.ndarray) -> np.ndarray:
    N, d = E.shape
    J = np.zeros((N, d))
    for j in range(d):
        ej = E[:, j]
        mask = ej > 0
        if not np.any(mask):
            continue
        Em = E[mask].copy()
        Em[:, j] -= 1
        J[mask, j] = ej[mask] * np.prod(np.power(z[None, :], Em), axis=1)
    return J


class Dictionary:
    """Base class; subclasses fill in evaluate/jacobian and the metadata flags.

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

    def __init__(self, input_dim, names, state_inclusive, state_index_map,
                 zero_at_zero, constant_index, spec):
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

    def _check_arg(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.input_dim,):
            raise ValueError(
                f"dictionary over R^{self.input_dim} got argument of shape {z.shape}"
            )
        return z

    def evaluate(self, z) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, z) -> np.ndarray:
        raise NotImplementedError

    def evaluate_batch(self, Z) -> np.ndarray:
        """Stack evaluate over rows of Z: (N_samples, size)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return np.stack([self.evaluate(z) for z in Z], axis=0)

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
        E = _graded_lex_exponents(dim, 0 if include_constant else 1, max_degree)
        self.exponents = E
        names = [_monomial_name(a, var_prefix) for a in E]
        unit_rows = []
        for j in range(dim):
            target = np.zeros(dim, dtype=int)
            target[j] = 1
            hits = np.nonzero((E == target).all(axis=1))[0]
            unit_rows.append(hits[0] if hits.size else None)
        state_inclusive = all(r is not None for r in unit_rows)
        const_rows = np.nonzero(~E.any(axis=1))[0]
        super().__init__(
            input_dim=dim,
            names=names,
            state_inclusive=state_inclusive,
            state_index_map=[r for r in unit_rows] if state_inclusive else None,
            zero_at_zero=not include_constant,
            constant_index=int(const_rows[0]) if const_rows.size else None,
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

    def evaluate(self, z):
        z = self._check_arg(z)
        return _monomial_values(z, self.exponents)

    def jacobian(self, z):
        z = self._check_arg(z)
        return _monomial_jacobian(z, self.exponents)


def monomials(dim, max_degree, include_constant=True, var_prefix="x") -> MonomialDictionary:
    return MonomialDictionary(dim, max_degree, include_constant, var_prefix)


def identity(dim, var_prefix="x") -> MonomialDictionary:
    """The coordinate functions {z_1, ..., z_d} themselves."""
    return MonomialDictionary(dim, 1, include_constant=False, var_prefix=var_prefix,
                              _kind="identity")


def _latin_hypercube(n_centers, region, seed):
    rng = np.random.default_rng(seed)
    pts = np.empty((n_centers, len(region)))
    for j, (lo, hi) in enumerate(region):
        cells = (rng.permutation(n_centers) + rng.random(n_centers)) / n_centers
        pts[:, j] = lo + (hi - lo) * cells
    return pts


class RbfDictionary(Dictionary):
    """Gaussian bumps exp(-||z - c||^2 / (2 w^2)) at fixed centers."""

    kind = "rbf"

    def __init__(self, centers, width, spec=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if width <= 0:
            raise ValueError("width must be positive")
        self.centers = centers
        self.width = float(width)
        names = [f"rbf{i + 1}" for i in range(centers.shape[0])]
        super().__init__(
            input_dim=centers.shape[1],
            names=names,
            state_inclusive=False,
            state_index_map=None,
            zero_at_zero=False,
            constant_index=None,
            spec=spec
            if spec is not None
            else {"kind": "rbf", "centers": centers.tolist(), "width": float(width)},
        )

    def evaluate(self, z):
        z = self._check_arg(z)
        d2 = np.sum((z[None, :] - self.centers) ** 2, axis=1)
        return np.exp(-d2 / (2.0 * self.width**2))

    def jacobian(self, z):
        z = self._check_arg(z)
        vals = self.evaluate(z)
        return vals[:, None] * (-(z[None, :] - self.centers) / self.width**2)


def rbf(dim=None, centers=None, width=1.0, n_centers=None, region=None, seed=0) -> RbfDictionary:
    """Gaussian basis; centers given explicitly or Latin-hypercube sampled."""
    if centers is not None:
        return RbfDictionary(centers, width)
    if n_centers is None or region is None:
        raise ValueError("rbf needs either explicit centers or (n_centers, region)")
    if dim is not None and dim != len(region):
        raise ValueError("region length must equal dim")
    pts = _latin_hypercube(n_centers, region, seed)
    return RbfDictionary(
        pts,
        width,
        spec={
            "kind": "rbf",
            "centers": pts.tolist(),
            "width": float(width),
        },
    )


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

    def evaluate(self, z):
        return np.concatenate([p.evaluate(z) for p in self.parts])

    def jacobian(self, z):
        return np.vstack([p.jacobian(z) for p in self.parts])


class CombinationDictionary(Dictionary):
    """Rows are fixed linear combinations C @ psi_base of a base dictionary.

    Serializable whenever the base is, which makes hand-built eigenfunction
    bases (e.g. {x1, x2 - b*x1^2}) expressible in config files.
    """

    kind = "combination"

    def __init__(self, base: Dictionary, coefficients, names=None):
        C = np.atleast_2d(np.asarray(coefficients, dtype=float))
        if C.shape[1] != base.size:
            raise ValueError(
                f"coefficients must have {base.size} columns, got {C.shape[1]}"
            )
        self.base = base
        self.coefficients = C
        if names is None:
            names = [f"combo{i + 1}" for i in range(C.shape[0])]
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
            constant_index=None,
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

    def evaluate(self, z):
        return self.coefficients @ self.base.evaluate(z)

    def jacobian(self, z):
        return self.coefficients @ self.base.jacobian(z)


class CustomDictionary(Dictionary):
    """Basis given by arbitrary (name, value_fn, gradient_fn) triples."""

    kind = "custom"

    def __init__(self, input_dim, entries, state_inclusive=False, state_index_map=None,
                 constant_index=None):
        self._fns = [e[1] for e in entries]
        self._grads = [e[2] for e in entries]
        names = [e[0] for e in entries]
        z0 = np.zeros(input_dim)
        vals0 = np.array([float(f(z0)) for f in self._fns]) if entries else np.zeros(0)
        super().__init__(
            input_dim=input_dim,
            names=names,
            state_inclusive=state_inclusive,
            state_index_map=state_index_map,
            zero_at_zero=bool(np.all(np.abs(vals0) <= 1e-12)),
            constant_index=constant_index,
            spec=None,
        )

    def evaluate(self, z):
        z = self._check_arg(z)
        return np.array([float(f(z)) for f in self._fns])

    def jacobian(self, z):
        z = self._check_arg(z)
        return np.array([np.asarray(g(z), dtype=float) for g in self._grads])


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
            constant_index=None,
            spec={"kind": "shifted", "base": base.spec} if base.spec is not None else None,
        )

    def evaluate(self, z):
        return self.base.evaluate(z) - self.offset

    def jacobian(self, z):
        return self.base.jacobian(z)


def subtract_value_at_zero(dictionary: Dictionary) -> ShiftedDictionary:
    return ShiftedDictionary(dictionary)


def build_dictionary(spec: dict) -> Dictionary:
    """Rebuild a dictionary from its JSON spec (see Dictionary.spec)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"dictionary spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "monomials":
            return monomials(
                int(spec["dim"]),
                int(spec["max_degree"]),
                bool(spec.get("include_constant", True)),
                str(spec.get("var_prefix", "x")),
            )
        if kind == "identity":
            return identity(int(spec["dim"]), str(spec.get("var_prefix", "x")))
        if kind == "rbf":
            if "centers" in spec:
                return RbfDictionary(spec["centers"], float(spec["width"]))
            return rbf(
                n_centers=int(spec["n_centers"]),
                region=[tuple(b) for b in spec["region"]],
                width=float(spec["width"]),
                seed=int(spec.get("seed", 0)),
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


class JointDictionary:
    """Basis over state-input pairs with separate x- and u-Jacobians."""

    kind = "abstract-joint"

    def __init__(self, state_dim, input_dim, names, spec):
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self.names = list(names)
        self.spec = spec

    @property
    def size(self) -> int:
        return len(self.names)

    def _check_args(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape != (self.state_dim,):
            raise ValueError(f"state must have shape ({self.state_dim},), got {x.shape}")
        if u.shape != (self.input_dim,):
            raise ValueError(f"input must have shape ({self.input_dim},), got {u.shape}")
        return x, u

    def evaluate(self, x, u) -> np.ndarray:
        raise NotImplementedError

    def jacobian_x(self, x, u) -> np.ndarray:
        raise NotImplementedError

    def jacobian_u(self, x, u) -> np.ndarray:
        raise NotImplementedError

    def evaluate_batch(self, X, U) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return np.stack([self.evaluate(x, u) for x, u in zip(X, U)], axis=0)

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

    def evaluate(self, x, u):
        x, u = self._check_args(x, u)
        return _monomial_values(x, self.exponents_x) * _monomial_values(u, self.exponents_u)

    def jacobian_x(self, x, u):
        x, u = self._check_args(x, u)
        return _monomial_jacobian(x, self.exponents_x) * _monomial_values(
            u, self.exponents_u
        )[:, None]

    def jacobian_u(self, x, u):
        x, u = self._check_args(x, u)
        return _monomial_jacobian(u, self.exponents_u) * _monomial_values(
            x, self.exponents_x
        )[:, None]


class CallableJointDictionary(JointDictionary):
    """Joint basis defined by callables (used for operator-derived cross terms)."""

    kind = "callable-joint"

    def __init__(self, state_dim, input_dim, names, eval_fn, jac_x_fn, jac_u_fn, spec=None):
        super().__init__(state_dim, input_dim, names, spec)
        self._eval = eval_fn
        self._jac_x = jac_x_fn
        self._jac_u = jac_u_fn

    def evaluate(self, x, u):
        x, u = self._check_args(x, u)
        return np.asarray(self._eval(x, u), dtype=float)

    def jacobian_x(self, x, u):
        x, u = self._check_args(x, u)
        return np.asarray(self._jac_x(x, u), dtype=float)

    def jacobian_u(self, x, u):
        x, u = self._check_args(x, u)
        return np.asarray(self._jac_u(x, u), dtype=float)


def build_joint_dictionary(state_dim, input_dim, state_degree, input_degree) -> MonomialJointDictionary:
    return MonomialJointDictionary(state_dim, input_dim, state_degree, input_degree)


def _bilinear_operator(dict_u: Dictionary, K_terms, u) -> np.ndarray:
    """Input-dependent operator K(u) = sum_i psi_u_i(u) K_i."""
    return sum(w * K for w, K in zip(dict_u.evaluate(u), K_terms))


def _bilinear_jacobian_u(dict_x: Dictionary, dict_u: Dictionary, K_terms, x, u) -> np.ndarray:
    """d/du of K(u) psi_x(x) with K(u) = sum_i psi_u_i(u) K_i, as an (N_x, m) array."""
    px = dict_x.evaluate(x)
    Ju = dict_u.jacobian(u)  # (N_u, m)
    cols = [
        sum(Ju[i, j] * (K_terms[i] @ px) for i in range(len(K_terms)))
        for j in range(dict_u.input_dim)
    ]
    return np.stack(cols, axis=1)


def bilinear_cross_dictionary(dict_x: Dictionary, dict_u: Dictionary, K_terms) -> CallableJointDictionary:
    """Cross term psi_xu(x, u) = (K(u) - K(0)) psi_x(x) induced by an
    input-dependent operator family K(u) = sum_i psi_u_i(u) K_i."""
    K_terms = [np.asarray(K, dtype=float) for K in K_terms]
    K0 = _bilinear_operator(dict_u, K_terms, np.zeros(dict_u.input_dim))

    def eval_fn(x, u):
        return (_bilinear_operator(dict_u, K_terms, u) - K0) @ dict_x.evaluate(x)

    def jac_x_fn(x, u):
        return (_bilinear_operator(dict_u, K_terms, u) - K0) @ dict_x.jacobian(x)

    def jac_u_fn(x, u):
        return _bilinear_jacobian_u(dict_x, dict_u, K_terms, x, u)

    spec = None
    if dict_x.spec is not None and dict_u.spec is not None:
        spec = {
            "kind": "bilinear-derived",
            "state": dict_x.spec,
            "input": dict_u.spec,
            "k_terms": [K.tolist() for K in K_terms],
        }
    names = [f"cross{i + 1}" for i in range(dict_x.size)]
    return CallableJointDictionary(
        dict_x.input_dim, dict_u.input_dim, names, eval_fn, jac_x_fn, jac_u_fn, spec
    )


def joint_dictionary_from_spec(spec: dict) -> JointDictionary:
    """Rebuild a joint dictionary from its JSON spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"joint dictionary spec must be a dict with 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "monomial-joint":
            return MonomialJointDictionary(
                int(spec["state_dim"]),
                int(spec["input_dim"]),
                int(spec["state_degree"]),
                int(spec["input_degree"]),
            )
        if kind == "bilinear-derived":
            return bilinear_cross_dictionary(
                build_dictionary(spec["state"]),
                build_dictionary(spec["input"]),
                [np.asarray(K, dtype=float) for K in spec["k_terms"]],
            )
    except KeyError as exc:
        raise ValueError(f"joint dictionary spec {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown joint dictionary kind {kind!r}")
