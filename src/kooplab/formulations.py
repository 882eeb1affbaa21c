"""Fitting and evaluating lifted linear models of controlled dynamics.

Five formulations close the lifted dynamics psi_x(x_{k+1}) (discrete) or
d/dt psi_x (continuous) over a finite dictionary:

  affine      K psi_x(x) + B u
  separable   K_x psi_x(x) + K_u psi_u(u)
  joint       K_x psi_x(x) + K_xu psi_xu(x, u)   with psi_xu(x, 0) = 0
  bilinear    K(u) psi_x(x),  K(u) = sum_i psi_u_i(u) K_i
  eigen       d/dt psi(x, u) = Lambda psi(x, u) + (d psi/d u) udot

All fits are plain least squares through an orthogonal decomposition; rank
deficiency raises unless ridge > 0. Continuous-time fitting regresses the
analytic dictionary rate J_psi(x) xdot against the model right side rather
than finite-differencing psi along trajectories, which would add a noise
floor unrelated to model class.

Model methods (lift, lift_next, rate, their Jacobians, observe*, K_of) take
one point or aligned (P, ...) stacks, like the dictionaries they call. A fit
evaluates each dictionary once per row block and folds the blocks into one
QR factor (numerics._block_least_squares), so its memory does not grow with
the sample count.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DIVERGENCE_BOUND, SnapshotDataset, _march
from .numerics import (RankDeficiencyError, _block_least_squares, _check_seed, _itself, _magnitude,
                       _mv, _read_json_object, _row_slices, _typed_field, _violation,
                       _write_json)
from .observables import (
    Dictionary,
    JointDictionary,
    bilinear_cross_dictionary,
    _as_joint,
    _bilinear_jacobian_u,
    _bilinear_operator,
    build_dictionary,
    joint_dictionary_from_spec,
)

__all__ = [
    "KoopmanModel",
    "AffineModel",
    "SeparableModel",
    "JointModel",
    "BilinearModel",
    "EigenModel",
    "fit_affine",
    "fit_separable",
    "fit_joint",
    "fit_bilinear",
    "fit_eigen",
    "bilinear_to_joint",
    "williams_to_joint",
    "predict_step",
    "rollout",
    "RolloutResult",
    "model_residual",
    "model_to_payload",
    "model_from_payload",
    "save_model",
    "load_model",
    "MODEL_SCHEMA_VERSION",
    "VARIANTS",
]

MODEL_SCHEMA_VERSION = 1


# fit metadata saved with a model: key -> (default on a new or loaded model, the
# `numerics._typed_field` kind it must have, null allowed where the default is None);
# design_* describe the design matrix of fits that solve one stacked regression
# ("ridge-augmented" when ridge > 0; design_condition Infinity when s_min = 0)
_METADATA = {
    "training_residual": (None, float),
    "n_samples": (None, _check_seed),  # the kind of a count: an integer >= 0
    "ridge": (0.0, float),
    "fully_identified": (True, bool),
    "notes": ([], list),
    "dt": (None, float),
    "system_name": ("", str),
    "design_rank": (None, _check_seed),
    "design_condition": (None, _magnitude),
    "design_matrix": (None, str),
}


def _typed_metadata(meta: dict) -> dict:
    """Every _METADATA key of meta as its kind, or at its default when absent."""
    return {key: _typed_field(meta, key, kind, default, what="model metadata field")
            for key, (default, kind) in _METADATA.items()}


class KoopmanModel:
    """Base for fitted lifted-dynamics models.

    Concrete models expose the represented next-step lift (discrete) or
    lift rate (continuous) together with its analytic derivatives in x and
    u; those derivatives are what the consistency definitions compare
    against chain-rule truth.
    """

    variant = "abstract"
    # role -> dictionary attribute, in a fit's argument order, and operator attributes
    _payload_dictionaries: dict = {}
    _payload_operators: tuple = ()

    def __init__(self, time_kind: str, state_dim: int, input_dim: int):
        if time_kind not in ("discrete", "continuous"):
            raise ValueError(f"time_kind must be discrete or continuous, got {time_kind!r}")
        self.time_kind = time_kind
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self._restore_metadata({})  # every fit-metadata field at its default

    # -- time-kind guards ----------------------------------------------------

    def _require(self, kind: str):
        if self.time_kind != kind:
            raise ValueError(
                f"{self.variant} model is {self.time_kind}-time; "
                f"this operation needs a {kind}-time model"
            )

    # -- represented dynamics -------------------------------------------------

    def _advance(self, z, x, u, ex=_itself, eu=_itself) -> np.ndarray:
        """Represented next lift (or lift rate) from lifted coordinates z and (x, u)."""
        raise NotImplementedError

    def _apply(self, x, u, ex=_itself, eu=_itself) -> np.ndarray:
        return self._advance(self.dict_x.evaluate(x), x, u, ex, eu)

    def lift(self, x) -> np.ndarray:
        """Lifted coordinates psi_x(x)."""
        return self.dict_x.evaluate(x)

    def lift_next(self, x, u) -> np.ndarray:
        """Represented psi_x(x_{k+1}) as a function of (x_k, u_k)."""
        self._require("discrete")
        return self._apply(x, u)

    def rate(self, x, u) -> np.ndarray:
        """Represented d/dt psi_x along the flow at (x, u)."""
        self._require("continuous")
        return self._apply(x, u)

    def lift_next_jac_x(self, x, u) -> np.ndarray:
        self._require("discrete")
        return self._jac_x(x, u)

    def lift_next_jac_u(self, x, u) -> np.ndarray:
        self._require("discrete")
        return self._jac_u(x, u)

    @property
    def _kernels(self) -> dict:
        """The grid kernels of this time kind's methods; the other kind's guards raise."""
        if self.time_kind == "continuous":
            return {self.rate: self._apply}
        return {self.lift_next: self._apply, self.lift_next_jac_x: self._jac_x,
                self.lift_next_jac_u: self._jac_u}

    @property
    def state_inclusive(self) -> bool:
        return self.dict_x.state_inclusive

    @property
    def lifted_dim(self) -> int:
        return self.dict_x.size

    # -- serialization scaffold -----------------------------------------------

    def _dictionary_specs(self) -> dict:
        return {
            key: _require_spec(getattr(self, attr), f"{key} dictionary")
            for key, attr in self._payload_dictionaries.items()
        }

    def to_payload(self) -> dict:
        operators = {}
        for name in self._payload_operators:
            op = getattr(self, name)
            operators[name] = (
                None if op is None
                else [K.tolist() for K in op] if isinstance(op, list)
                else op.tolist()
            )
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "variant": self.variant,
            "time_kind": self.time_kind,
            "state_dim": self.state_dim,
            "input_dim": self.input_dim,
            "dictionaries": self._dictionary_specs(),
            "operators": operators,
            "metadata": self._metadata(),
        }

    def _metadata(self) -> dict:
        return _typed_metadata(vars(self))

    def _restore_metadata(self, meta: dict):
        vars(self).update(_typed_metadata(meta))

    def __repr__(self):
        return (
            f"{type(self).__name__}(time_kind={self.time_kind!r}, "
            f"lifted_dim={self.lifted_dim}, input_dim={self.input_dim})"
        )


def _operator(K, name: str, rows: int, cols: int | None) -> np.ndarray:
    """K as a float matrix of shape rows x cols (any column count when cols is None)."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != rows or cols not in (None, K.shape[1]):
        raise ValueError(f"{name} must be {rows}x{'m' if cols is None else cols}, got {K.shape}")
    return K


def _require_spec(d, what: str):
    if d.spec is None:
        raise ValueError(
            f"{what} was built from raw callables and has no serializable spec; "
            "rebuild it from a spec-backed dictionary to save this model"
        )
    return d.spec


class AffineModel(KoopmanModel):
    """psi(x_{k+1}) = K psi(x_k) + B u_k (or d/dt psi = K psi + B u).

    B = None represents a purely autonomous lift (no input channel); the
    input argument of lift_next/rate is then ignored.
    """

    variant = "affine"
    _payload_dictionaries = {"state": "dict_x"}
    _payload_operators = ("K", "B")

    def __init__(self, dictionary: Dictionary, K, B, time_kind: str, input_dim: int | None = None):
        N = dictionary.size
        K = _operator(K, "K", N, N)
        if B is not None:
            B = _operator(B, "B", N, None)
            input_dim = B.shape[1]
        elif input_dim is None:
            input_dim = 0
        super().__init__(time_kind, dictionary.input_dim, input_dim)
        self.dict_x = dictionary
        self.K = K
        self.B = B

    def _advance(self, z, x, u, ex=_itself, eu=_itself):
        out = ex(_mv(self.K, z))
        if self.B is not None:
            out = out + eu(_mv(self.B, np.asarray(u, dtype=float)))
        return out

    def _jac_x(self, x, u, ex=_itself, eu=_itself):
        return ex(self.K @ self.dict_x.jacobian(x))

    def _jac_u(self, x, u, ex=_itself, eu=_itself):
        if self.B is None:
            raise ValueError("autonomous affine model has no input channel")
        return ex(np.broadcast_to(self.B, np.shape(x)[:-1] + self.B.shape).copy())


class SeparableModel(KoopmanModel):
    """psi_x(x_{k+1}) = K_x psi_x(x_k) + K_u psi_u(u_k)."""

    variant = "separable"
    _payload_dictionaries = {"state": "dict_x", "input": "dict_u"}
    _payload_operators = ("K_x", "K_u")

    def __init__(self, dict_x: Dictionary, dict_u: Dictionary, K_x, K_u, time_kind: str):
        K_x = _operator(K_x, "K_x", dict_x.size, dict_x.size)
        K_u = _operator(K_u, "K_u", dict_x.size, dict_u.size)
        super().__init__(time_kind, dict_x.input_dim, dict_u.input_dim)
        self.dict_x = dict_x
        self.dict_u = dict_u
        self.K_x = K_x
        self.K_u = K_u

    def _advance(self, z, x, u, ex=_itself, eu=_itself):
        return ex(_mv(self.K_x, z)) + eu(_mv(self.K_u, self.dict_u.evaluate(u)))

    def _jac_x(self, x, u, ex=_itself, eu=_itself):
        return ex(self.K_x @ self.dict_x.jacobian(x))

    def _jac_u(self, x, u, ex=_itself, eu=_itself):
        return eu(self.K_u @ self.dict_u.jacobian(u))


class JointModel(KoopmanModel):
    """psi_x(x_{k+1}) = K_x psi_x(x_k) + K_xu psi_xu(x_k, u_k)."""

    variant = "joint"
    _payload_dictionaries = {"state": "dict_x", "cross": "dict_xu"}
    _payload_operators = ("K_x", "K_xu")

    def __init__(self, dict_x: Dictionary, dict_xu: JointDictionary, K_x, K_xu, time_kind: str):
        K_x = _operator(K_x, "K_x", dict_x.size, dict_x.size)
        K_xu = _operator(K_xu, "K_xu", dict_x.size, dict_xu.size)
        if dict_xu.state_dim != dict_x.input_dim:
            raise ValueError("state and cross dictionaries disagree on state dimension")
        super().__init__(time_kind, dict_x.input_dim, dict_xu.input_dim)
        self.dict_x = dict_x
        self.dict_xu = dict_xu
        self.K_x = K_x
        self.K_xu = K_xu

    def _advance(self, z, x, u, ex=_itself, eu=_itself):
        cross = self.dict_xu._at(self.dict_xu.evaluate, x, u, ex, eu)
        return ex(_mv(self.K_x, z)) + _mv(self.K_xu, cross)

    def _jac_x(self, x, u, ex=_itself, eu=_itself):
        cross = self.dict_xu._at(self.dict_xu.jacobian_x, x, u, ex, eu)
        return ex(self.K_x @ self.dict_x.jacobian(x)) + self.K_xu @ cross

    def _jac_u(self, x, u, ex=_itself, eu=_itself):
        return self.K_xu @ self.dict_xu._at(self.dict_xu.jacobian_u, x, u, ex, eu)


class BilinearModel(KoopmanModel):
    """psi_x(x_{k+1}) = K(u_k) psi_x(x_k) with K(u) = sum_i psi_u_i(u) K_i."""

    variant = "bilinear"
    _payload_dictionaries = {"state": "dict_x", "input": "dict_u"}
    _payload_operators = ("K_terms",)

    def __init__(self, dict_x: Dictionary, dict_u: Dictionary, K_terms, time_kind: str):
        K_terms = [_operator(K, f"K_terms[{i}]", dict_x.size, dict_x.size)
                   for i, K in enumerate(K_terms)]
        if len(K_terms) != dict_u.size:
            raise ValueError(
                f"need one operator term per input observable "
                f"({dict_u.size}), got {len(K_terms)}"
            )
        super().__init__(time_kind, dict_x.input_dim, dict_u.input_dim)
        self.dict_x = dict_x
        self.dict_u = dict_u
        self.K_terms = K_terms

    def K_of(self, u) -> np.ndarray:
        """Input-dependent operator K(u) = sum_i psi_u_i(u) K_i."""
        return _bilinear_operator(self.dict_u, self.K_terms, u)

    def _advance(self, z, x, u, ex=_itself, eu=_itself):
        return _mv(eu(self.K_of(u)), ex(z))

    def _jac_x(self, x, u, ex=_itself, eu=_itself):
        return eu(self.K_of(u)) @ ex(self.dict_x.jacobian(x))

    def _jac_u(self, x, u, ex=_itself, eu=_itself):
        return _bilinear_jacobian_u(self.dict_x, self.dict_u, self.K_terms, x, u, ex, eu)


class EigenModel(KoopmanModel):
    """d/dt psi(x, u) = Lambda psi(x, u) + (d psi/d u) udot, Lambda diagonal.

    The eigenfunction dictionary may be state-only (a Dictionary, read as
    psi(x, u) = psi(x): u is checked but inert) or genuinely joint (a
    JointDictionary). Only the diagonal eigenvalues are fitted; the input-rate
    transport term is carried by the observables themselves, not by an operator.
    """

    variant = "eigen"
    _payload_dictionaries = {"state": "eigendict"}  # written as "eigen", with its kind
    _payload_operators = ("eigenvalues",)

    def __init__(self, eigendict, eigenvalues, input_dim: int = 0):
        self._psi = _as_joint(eigendict, input_dim)  # the lift over (x, u)
        self.joint_observables = self._psi is eigendict
        super().__init__("continuous", self._psi.state_dim, self._psi.input_dim)
        eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
        if eigenvalues.shape[0] != eigendict.size:
            raise ValueError(
                f"need one eigenvalue per observable ({eigendict.size}), "
                f"got {eigenvalues.shape[0]}"
            )
        self.eigendict = eigendict
        self.eigenvalues = eigenvalues

    @property
    def Lam(self) -> np.ndarray:
        """The diagonal eigenvalue matrix."""
        return np.diag(self.eigenvalues)

    def observe(self, x, u) -> np.ndarray:
        return self._psi.evaluate(x, u)

    def observe_jac_x(self, x, u) -> np.ndarray:
        return self._psi.jacobian_x(x, u)

    def observe_jac_u(self, x, u) -> np.ndarray:
        return self._psi.jacobian_u(x, u)

    def _apply(self, x, u, ex=_itself, eu=_itself):
        return self.eigenvalues * self._psi._at(self._psi.evaluate, x, u, ex, eu)

    def rate(self, x, u, u_dot=None) -> np.ndarray:
        """Represented d/dt psi; the transport term needs udot when psi
        depends on the input."""
        out = self._apply(x, u)
        if u_dot is not None:
            out = out + _mv(self.observe_jac_u(x, u), np.asarray(u_dot, dtype=float))
        return out

    @property
    def state_inclusive(self) -> bool:
        return False if self.joint_observables else self.eigendict.state_inclusive

    @property
    def lifted_dim(self) -> int:
        return self.eigendict.size

    def _dictionary_specs(self) -> dict:
        return {
            "eigen": {
                "joint": self.joint_observables,
                "spec": _require_spec(self.eigendict, "eigenfunction dictionary"),
            }
        }


_MODEL_CLASSES = {cls.variant: cls for cls in
                  (AffineModel, SeparableModel, JointModel, BilinearModel, EigenModel)}
VARIANTS = tuple(_MODEL_CLASSES)


# -- fitting -------------------------------------------------------------------


def _lift_targets(data: SnapshotDataset, dict_x: Dictionary, rows=slice(None)) -> np.ndarray:
    if data.kind == "discrete-pairs":
        return dict_x.evaluate(data.Y[rows])
    # rows are J_psi(x_k) @ xdot_k, the sampled d/dt of the lifted state
    return _mv(dict_x.jacobian(data.X[rows]), data.Y[rows])


def _check_dims(dictionary: Dictionary, role: str, data_dim: int):
    """A state or input dictionary must be over the data's state or input space."""
    if dictionary.input_dim != data_dim:
        raise ValueError(
            f"{role} dictionary is over R^{dictionary.input_dim} but data has "
            f"{role} dimension {data_dim}"
        )


def _require_samples(n: int, unknowns: int, what: str):
    if n < unknowns:
        raise ValueError(
            f"insufficient samples for {what}: {unknowns} coefficient columns "
            f"need at least {unknowns} samples, got {n}"
        )


def _rms(residual_matrix: np.ndarray, n: int) -> float:
    return float(np.linalg.norm(residual_matrix) / np.sqrt(n))


def _finish(model: KoopmanModel, data: SnapshotDataset, residual: float, ridge: float):
    model.training_residual = residual
    model.n_samples = data.n_samples
    model.ridge = float(ridge)
    model.dt = data.dt
    model.system_name = data.system_name
    return model


def _time_kind(data: SnapshotDataset) -> str:
    return "discrete" if data.kind == "discrete-pairs" else "continuous"


def _fit_blocks(data: SnapshotDataset, dict_x: Dictionary, features, widths, ridge: float,
                build, rank_fallback=None) -> KoopmanModel:
    """One regression of the lift targets on feature blocks, streamed by rows.

    features(rows) returns the (b, k_i) feature blocks of the samples in the
    row slice rows, with k_i = widths[i]; the core builds each slice's design
    rows and lift targets on demand, so no n-row stack is held. It calls
    build(operators, time_kind) with Theta split into one (N_x, k_i)
    operator per block. rank_fallback(err), when given, handles a
    rank-deficient design: it raises, or returns to keep the minimum-norm
    Theta. The model records the design's rank and condition number
    s_max / s_min (of [G; sqrt(ridge) I] when ridge > 0).
    """
    Theta, rank, s, residual = _block_least_squares(
        data.n_samples,
        lambda rows: (np.hstack(features(rows)), _lift_targets(data, dict_x, rows)),
        ridge,
    )
    if ridge == 0.0 and rank < len(Theta):
        err = RankDeficiencyError(rank, len(Theta))
        if rank_fallback is None:
            raise err
        rank_fallback(err)
    model = build([part.T for part in np.split(Theta, np.cumsum(widths)[:-1])],
                  _time_kind(data))
    model.design_rank = rank
    model.design_condition = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    model.design_matrix = "ridge-augmented" if ridge > 0 else "plain"
    return _finish(model, data, residual, ridge)


def _zero_input_error(data: SnapshotDataset, consequence: str):
    """Rank fallback naming identically zero inputs as the cause."""
    def fallback(err):
        if np.all(data.U == 0.0):
            raise RankDeficiencyError(
                err.rank, err.columns, f"inputs are identically zero, so {consequence}"
            )
        raise err
    return fallback


def fit_affine(data: SnapshotDataset, dict_x: Dictionary, ridge: float = 0.0) -> AffineModel:
    """Least-squares (K, B) with constant input coefficients.

    Raises a rank error when the inputs are identically zero: the B columns
    are then unidentifiable (fit with ridge > 0 or excite the input).
    """
    _check_dims(dict_x, "state", data.state_dim)
    N, m = data.n_samples, data.input_dim
    _require_samples(N, dict_x.size + m, "the affine fit")
    return _fit_blocks(
        data, dict_x, lambda rows: [dict_x.evaluate(data.X[rows]), data.U[rows]],
        [dict_x.size, m], ridge,
        lambda ops, tk: AffineModel(dict_x, ops[0], ops[1] if m else None, tk, input_dim=m),
        _zero_input_error(data, "the input operator B is unidentifiable; add ridge "
                                "regularization or excite the input") if m else None,
    )


def fit_separable(data: SnapshotDataset, dict_x: Dictionary, dict_u: Dictionary,
                  ridge: float = 0.0) -> SeparableModel:
    """Joint least squares over [K_x | K_u] with independent input observables."""
    _check_dims(dict_x, "state", data.state_dim)
    if not dict_u.zero_at_zero:
        raise ValueError(
            "input dictionary must vanish at u = 0; wrap it with "
            "subtract_value_at_zero or drop the constant"
        )
    _check_dims(dict_u, "input", data.input_dim)
    _require_samples(data.n_samples, dict_x.size + dict_u.size, "the separable fit")
    return _fit_blocks(
        data, dict_x,
        lambda rows: [dict_x.evaluate(data.X[rows]), dict_u.evaluate(data.U[rows])],
        [dict_x.size, dict_u.size], ridge,
        lambda ops, tk: SeparableModel(dict_x, dict_u, *ops, tk),
        _zero_input_error(data, "the input observables never vary and K_u is "
                                "unidentifiable; add ridge or excite the input"),
    )


def _check_cross_vanishes(dict_xu: JointDictionary, states: np.ndarray):
    """psi_xu(x, 0) = 0 at every data state, by row slices; a non-finite value fails too."""
    worst = np.max([
        _violation(dict_xu.evaluate(X, np.zeros((len(X), dict_xu.input_dim)))).max(initial=0.0)
        for X in (states[rows] for rows in _row_slices(len(states)))
    ], initial=0.0)
    if worst > 1e-10:
        raise ValueError(f"cross dictionary must vanish at u = 0; got |psi_xu| = {worst:.3g} there")


def fit_joint(data: SnapshotDataset, dict_x: Dictionary, dict_xu: JointDictionary,
              ridge: float = 0.0, two_stage: bool = False) -> JointModel:
    """Least squares over [K_x | K_xu] with a u-vanishing cross dictionary.

    two_stage = True first fits K_x on the zero-input samples alone (which
    determine it exactly because psi_xu(x, 0) = 0), then fits K_xu on the
    actuated samples with K_x frozen. With no actuated samples K_xu is left
    at zero and the model is flagged not fully identified.
    """
    _check_dims(dict_x, "state", data.state_dim)
    if dict_xu.state_dim != data.state_dim or dict_xu.input_dim != data.input_dim:
        raise ValueError(
            f"cross dictionary is over R^{dict_xu.state_dim} x R^{dict_xu.input_dim} "
            f"but data has dimensions {data.state_dim} x {data.input_dim}"
        )
    _check_cross_vanishes(dict_xu, data.X)
    if not two_stage:
        _require_samples(data.n_samples, dict_x.size + dict_xu.size, "the joint fit")
        return _fit_blocks(
            data, dict_x,
            lambda rows: [dict_x.evaluate(data.X[rows]),
                          dict_xu.evaluate(data.X[rows], data.U[rows])],
            [dict_x.size, dict_xu.size], ridge,
            lambda ops, tk: JointModel(dict_x, dict_xu, *ops, tk))

    # each stage streams the index rows of its samples; their squared residuals add up
    zero_input = np.all(data.U == 0.0, axis=1)
    zero_rows, actuated = np.flatnonzero(zero_input), np.flatnonzero(~zero_input)
    _require_samples(len(zero_rows), dict_x.size, "the zero-input stage of the two-stage fit")
    K_x, squares = _stage(zero_rows, lambda idx: (dict_x.evaluate(data.X[idx]),
                                                  _lift_targets(data, dict_x, idx)), ridge)
    K_xu = np.zeros((dict_x.size, dict_xu.size))
    if len(actuated):
        _require_samples(len(actuated), dict_xu.size, "the actuated stage of the two-stage fit")
        K_xu, more = _stage(actuated, lambda idx: (
            dict_xu.evaluate(data.X[idx], data.U[idx]),
            _lift_targets(data, dict_x, idx) - dict_x.evaluate(data.X[idx]) @ K_x.T), ridge)
        squares += more
    model = _finish(JointModel(dict_x, dict_xu, K_x, K_xu, _time_kind(data)), data,
                    float(np.sqrt(squares / data.n_samples)), ridge)
    if not len(actuated):
        model.fully_identified = False
        model.notes.append("no actuated samples: cross operator K_xu left at zero (unidentified)")
    return model


def _stage(index: np.ndarray, rows, ridge: float):
    """(operator, squared residual) of one stage of the two-stage joint fit: the
    regression rows(idx) hands out for the samples index, streamed in row blocks."""
    X, rank, _, rms = _block_least_squares(len(index), lambda sl: rows(index[sl]), ridge)
    if ridge == 0.0 and rank < len(X):
        raise RankDeficiencyError(rank, len(X))
    return X.T, rms**2 * len(index)


def fit_bilinear(data: SnapshotDataset, dict_x: Dictionary, dict_u: Dictionary,
                 ridge: float = 0.0) -> BilinearModel:
    """Least squares over the operator family {K_i} of K(u) = sum psi_u_i(u) K_i.

    The input dictionary must contain the constant function so K(0) is
    representable. When the inputs never vary across the dataset, only the
    combined operator K(u0) is identifiable; the fit then falls back to the
    minimum-norm split across the K_i and flags the model accordingly.
    """
    _check_dims(dict_x, "state", data.state_dim)
    if dict_u.constant_index is None:
        raise ValueError(
            "input dictionary must contain the constant function so the "
            "zero-input operator K(0) is representable"
        )
    _check_dims(dict_u, "input", data.input_dim)
    _require_samples(data.n_samples, dict_x.size * dict_u.size, "the bilinear fit")
    notes = []

    def constant_inputs(err):
        if not np.all(data.U == data.U[0]):
            raise err
        notes.append(
            "inputs constant across all samples: only the combined operator "
            "K(u0) is identified; the stored terms are its minimum-norm split"
        )

    def features(rows):
        # block i holds psi_u_i(u_k) psi_x(x_k): the columns multiplying K_i
        Psi_x, Psi_u = dict_x.evaluate(data.X[rows]), dict_u.evaluate(data.U[rows])
        return [Psi_u[:, [i]] * Psi_x for i in range(dict_u.size)]

    model = _fit_blocks(
        data, dict_x, features, [dict_x.size] * dict_u.size, ridge,
        lambda ops, tk: BilinearModel(dict_x, dict_u, ops, tk), constant_inputs,
    )
    if notes:
        model.fully_identified = False
        model.notes.extend(notes)
    return model


def fit_eigen(data: SnapshotDataset, eigendict) -> EigenModel:
    """Best diagonal Lambda for d/dt psi = Lambda psi on derivative data.

    The defining relation carries an input-rate transport term (d psi/d u)
    times udot on both sides once d/dt psi is expanded by the chain rule, so
    it cancels identically and the fit target reduces to
    (d psi/d x) xdot = Lambda psi with no udot dependence. Each eigenvalue
    solves its own scalar least-squares problem.
    """
    if data.kind != "continuous-derivative":
        raise ValueError("eigen fit requires continuous state-derivative data")
    model = EigenModel(eigendict, np.zeros(eigendict.size), input_dim=data.input_dim)
    if (model.state_dim, model.input_dim) != (data.state_dim, data.input_dim):
        raise ValueError("eigenfunction dictionary dimensions do not match the data")

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)

    # per observable, running sums den = psi . psi and num = psi . D, the
    # eigenvalue lam = num / den and the residual squares ss at lam, merged
    # slice by slice: at any l a part's squares are ss + den (l - lam)^2, so
    # the residual needs no second pass and no cancelling difference of sums
    den, num, lam, ss = np.zeros((4, eigendict.size))
    for rows in _row_slices(data.n_samples):
        X, U = data.X[rows], data.U[rows]
        Psi, D = model.observe(X, U), _mv(model.observe_jac_x(X, U), data.Y[rows])
        den_b, num_b = np.einsum("ki,ki->i", Psi, Psi), np.einsum("ki,ki->i", Psi, D)
        lam_b = ratio(num_b, den_b)
        merged = ratio(num + num_b, den + den_b)
        R = D - Psi * lam_b
        ss += (np.einsum("ki,ki->i", R, R) + den * (merged - lam) ** 2
               + den_b * (merged - lam_b) ** 2)
        den, num, lam = den + den_b, num + num_b, merged

    for i in np.flatnonzero(den == 0.0):
        model.notes.append(
            f"observable {eigendict.names[i]!r} vanishes on the data; "
            "its eigenvalue is set to 0"
        )
    model.eigenvalues[:] = lam
    return _finish(model, data, float(np.sqrt(np.sum(ss)) / np.sqrt(data.n_samples)), 0.0)


def bilinear_to_joint(model: BilinearModel) -> JointModel:
    """Rewrite K(u) psi_x as K(0) psi_x + I psi_xu with psi_xu = (K(u) - K(0)) psi_x.

    One-step predictions of the source and converted models agree exactly,
    and the derived cross dictionary vanishes at u = 0 by construction.
    """
    if model.variant != "bilinear":
        raise ValueError(f"expected a bilinear model, got variant {model.variant!r}")
    if model.dict_u.constant_index is None:
        raise ValueError(
            "constant function absent from the input dictionary; K(0) is not "
            "representable so the conversion is undefined"
        )
    dict_xu = bilinear_cross_dictionary(model.dict_x, model.dict_u, model.K_terms)
    K_x = model.K_of(np.zeros(model.input_dim))
    K_xu = np.eye(model.dict_x.size)
    out = JointModel(model.dict_x, dict_xu, K_x, K_xu, model.time_kind)
    out._restore_metadata(model._metadata())
    out.notes.append("derived from a bilinear model; cross dictionary is (K(u) - K(0)) psi_x")
    return out


# conventional name for this conversion, after the input-parameterized
# operator-family form it starts from
williams_to_joint = bilinear_to_joint


# -- prediction ----------------------------------------------------------------


def predict_step(model: KoopmanModel, x, u, extract_state: bool | None = None):
    """One-step prediction: (psi_next, x_next).

    x_next is read off the identity-observable rows when the state dictionary
    is state-inclusive; otherwise it is None (or an error when extract_state
    is forced True).
    """
    psi_next = model.lift_next(x, u)
    if extract_state is False:
        return psi_next, None
    if not model.state_inclusive:
        if extract_state:
            raise ValueError(
                "state extraction requires a state-inclusive dictionary"
            )
        return psi_next, None
    return psi_next, psi_next[..., model.dict_x.state_index_map]


class RolloutResult:
    """Predicted state sequence, possibly truncated by the divergence guard."""

    def __init__(self, states: np.ndarray, diverged: bool = False):
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.diverged = bool(diverged)

    def __len__(self):
        return self.states.shape[0]

    def __repr__(self):
        return f"RolloutResult(steps={len(self) - 1}, diverged={self.diverged})"


def rollout(model: KoopmanModel, x0, controls, relift: str = "every-step",
            divergence_bound: float = DIVERGENCE_BOUND) -> RolloutResult | list[RolloutResult]:
    """Multi-step prediction under a known input sequence.

    x0 (n,) with controls (H, m) rolls out one trajectory and returns one
    RolloutResult. A stack x0 (B, n) with controls (B, H, m) steps all B
    trajectories together, one model call per step, and returns a list of B
    RolloutResults, each equal to rolling that trajectory out alone. A
    trajectory stops before its first state that is not finite or whose
    2-norm exceeds `divergence_bound`, and is then flagged diverged; the
    start state is not tested.

    relift = "every-step" re-evaluates the dictionary at each predicted
    state (the default); "none" propagates the lifted vector linearly and
    only reads the state rows off it. Cross/input observables that need a
    state argument use the read-off state in "none" mode.
    """
    model._require("discrete")
    if not model.state_inclusive:
        raise ValueError("state rollout requires a state-inclusive dictionary")
    if relift not in ("every-step", "none"):
        raise ValueError(f"relift must be 'every-step' or 'none', got {relift!r}")
    X0 = np.asarray(x0, dtype=float)
    U = np.asarray(controls, dtype=float)
    single = X0.ndim == 1
    if single:
        X0, U = X0[None], U[None]
    n, m = model.state_dim, model.input_dim
    if X0.ndim != 2 or X0.shape[1] != n or U.ndim != 3 or len(U) != len(X0) or U.shape[2] != m:
        raise ValueError(
            f"x0 and controls must be ({n},) and (H, {m}), or stacks (B, {n}) and "
            f"(B, H, {m}); got shapes {np.shape(x0)} and {np.shape(controls)}"
        )
    idx = model.dict_x.state_index_map
    Z = model.lift(X0) if relift == "none" else None  # every trajectory's lifted state

    def step(k, live, X, u):
        if Z is None:
            return model.lift_next(X, u)[:, idx]
        z = Z[live]
        z = Z[live] = model._advance(z, z[:, idx], u)  # the live rows advance
        return z[:, idx]
    paths, lengths = _march(step, X0, U, divergence_bound)
    results = [RolloutResult(path[:T], T <= U.shape[1]) for path, T in zip(paths, lengths)]
    return results[0] if single else results


def model_residual(model: KoopmanModel, data: SnapshotDataset) -> float:
    """RMS lifted prediction residual of a model on a dataset."""
    expected_kind = "discrete-pairs" if model.time_kind == "discrete" else "continuous-derivative"
    if data.kind != expected_kind:
        raise ValueError(
            f"{model.time_kind}-time model evaluates on {expected_kind} data, "
            f"got {data.kind}"
        )
    T = (_mv(model.observe_jac_x(data.X, data.U), data.Y) if model.variant == "eigen"
         else _lift_targets(data, model.dict_x))  # an eigen model's are J_psi(x, u) xdot
    return _rms(model._apply(data.X, data.U) - T, data.n_samples)


# -- serialization ---------------------------------------------------------------


def model_to_payload(model: KoopmanModel) -> dict:
    return model.to_payload()


def model_from_payload(payload: dict) -> KoopmanModel:
    if not isinstance(payload, dict) or "variant" not in payload:
        raise ValueError("model payload must be a dict with a 'variant' key")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema_version {version!r}; "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    variant = payload["variant"]
    if variant not in VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    cls = _MODEL_CLASSES[variant]
    dicts = payload.get("dictionaries", {})
    ops = payload.get("operators", {})
    try:
        time_kind = payload["time_kind"]
        input_dim = int(payload.get("input_dim", 0))
        if cls is EigenModel:
            entry = dicts["eigen"]
            build = joint_dictionary_from_spec if entry["joint"] else build_dictionary
            model = EigenModel(build(entry["spec"]), ops["eigenvalues"], input_dim=input_dim)
        else:
            # the tables to_payload writes from; a cross dictionary is a joint one
            dictionaries = [(joint_dictionary_from_spec if key == "cross" else build_dictionary)(
                dicts[key]) for key in cls._payload_dictionaries]
            operators = [ops[name] for name in cls._payload_operators]
            extra = {"input_dim": input_dim} if cls is AffineModel else {}
            model = cls(*dictionaries, *operators, time_kind, **extra)
    except KeyError as exc:
        raise ValueError(f"model payload for {variant!r} is missing field {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"model payload for {variant!r} is malformed: {exc}") from None
    meta = payload.get("metadata", {})
    if not isinstance(meta, dict):
        raise ValueError("model payload field 'metadata' must be an object")
    model._restore_metadata(meta)
    return model


def save_model(model: KoopmanModel, path) -> None:
    _write_json(path, model_to_payload(model))


def load_model(path):
    return model_from_payload(_read_json_object(path, "model payload"))
