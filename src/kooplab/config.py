"""Experiment configuration: JSON documents validated with field-path errors.

A configuration names a system, an evaluation grid, a dataset recipe,
dictionary specs, formulations to fit, and conditions to check. Validation
is eager: referenced system and dictionary names are resolved at load time,
and every complaint carries the dotted path of the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .consistency import CONDITION_IDS, DEFAULT_TOLERANCE
from .dynamics import INPUT_BOUND, STATE_BOUND, ControlledSystem, EvaluationGrid, builtin_system
from .formulations import VARIANTS, _MODEL_CLASSES
from .numerics import _is_int, _is_real, _read_json_object
from .observables import build_dictionary, joint_dictionary_from_spec

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "ConfigError",
    "DatasetSection",
    "FormulationSpec",
    "ExperimentConfig",
    "load_config",
    "parse_config",
]

CONFIG_SCHEMA_VERSION = 1

_CONTROL_KINDS = ("zero", "uniform-random", "sinusoid", "prbs")
_DATASET_KINDS = ("discrete-pairs", "continuous-derivative")
_DICTIONARY_ROLES = ("state", "input", "cross")


class ConfigError(ValueError):
    """Invalid configuration; `path` is the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _section(raw, path: str, known=None, unknown: str = "unknown field") -> dict:
    """An object; given `known`, every key must be in it (root keys carry no prefix)."""
    _require(isinstance(raw, dict), path, f"expected an object, got {type(raw).__name__}")
    for key in sorted(set(raw) - set(raw if known is None else known)):
        raise ConfigError(key if path == "<root>" else f"{path}.{key}", unknown)
    return raw


_REQUIRED = object()


def _field(sec: dict, path: str, key: str, ok, message: str, default=_REQUIRED):
    """sec[key] (required unless a default is given); the value must pass `ok`,
    else `message`, formatted with the value, is the error."""
    where = f"{path}.{key}" if path else key
    _require(default is not _REQUIRED or key in sec, where, "required field is missing")
    value = sec.get(key, default)
    _require(ok(value), where, message.format(value))
    return value


@dataclass
class DatasetSection:
    n_samples: int
    seed: int
    control_kind: str = "uniform-random"
    dt: float = 0.1
    kind: str | None = None


@dataclass
class FormulationSpec:
    variant: str
    ridge: float = 0.0


@dataclass
class ExperimentConfig:
    """Validated experiment description. The system, grid and dictionaries are
    built once (parse_config builds them to validate them) and kept."""

    system_name: str
    system_params: dict = field(default_factory=dict)
    state_box: list | None = None
    input_box: list | None = None
    points_per_axis: int = 9
    zero_input_grid: bool = False
    dataset: DatasetSection | None = None
    dictionaries: dict = field(default_factory=dict)
    formulations: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    out_dir: str = "runs"
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _once(self, key: str, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def build_system(self) -> ControlledSystem:
        return self._once("system", lambda: builtin_system(self.system_name, **self.system_params))

    def build_grid(self) -> EvaluationGrid:
        def build():
            grid = EvaluationGrid.from_boxes(*self.sampling_regions(), self.points_per_axis)
            return grid.autonomous() if self.zero_input_grid else grid

        return self._once("grid", build)

    def dictionary(self, role: str):
        """The dictionary for a role ('state'/'input'/'cross')."""
        if role not in _DICTIONARY_ROLES:
            raise ValueError(f"unknown dictionary role {role!r}")
        spec = self.dictionaries.get(role)
        if spec is None:
            raise ConfigError(
                f"dictionaries.{role}", "section required for the requested operation"
            )
        return self._once(role, lambda: joint_dictionary_from_spec(spec) if role == "cross"
                          else build_dictionary(spec))

    def sampling_regions(self):
        """State and input boxes of the grid and the dataset: dynamics' default box unless given."""
        system = self.build_system()
        return (self.state_box or [(-STATE_BOUND, STATE_BOUND)] * system.state_dim,
                self.input_box or [(-INPUT_BOUND, INPUT_BOUND)] * system.input_dim)


def _validate_box(raw, path: str, expected_len: int, what: str) -> list:
    _require(isinstance(raw, list) and len(raw) > 0, path, f"expected a list of {what} bounds")
    _require(
        len(raw) == expected_len,
        path,
        f"expected {expected_len} axis bound pair(s), got {len(raw)}",
    )
    box = []
    for i, pair in enumerate(raw):
        entry = f"{path}[{i}]"
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2,
            entry, "expected a [low, high] pair",
        )
        lo, hi = pair
        _require(_is_real(lo) and _is_real(hi), entry, "bounds must be numbers")
        _require(lo < hi, entry, f"low bound must be < high bound, got [{lo}, {hi}]")
        box.append((float(lo), float(hi)))
    return box


def _validate_dataset(raw) -> DatasetSection:
    sec = _section(raw, "dataset", ("n_samples", "seed", "control_kind", "dt", "kind"))
    n = _field(sec, "dataset", "n_samples", lambda v: _is_int(v) and v >= 1,
               "expected an integer >= 1, got {!r}")
    # determinism contract: any randomized draw must be reproducible
    _require("seed" in sec, "dataset.seed", "required field is missing (sampling must be seeded)")
    seed = _field(sec, "dataset", "seed", lambda v: _is_int(v) and v >= 0,
                  "expected an integer >= 0, got {!r}")
    control_kind = _field(sec, "dataset", "control_kind", lambda v: v in _CONTROL_KINDS,
                          f"expected one of {', '.join(_CONTROL_KINDS)}, got {{!r}}",
                          "uniform-random")
    dt = _field(sec, "dataset", "dt", lambda v: _is_real(v) and v > 0,
                "expected a positive number, got {!r}", 0.1)
    kind = _field(sec, "dataset", "kind", lambda v: v is None or v in _DATASET_KINDS,
                  f"expected one of {', '.join(_DATASET_KINDS)}, got {{!r}}", None)
    return DatasetSection(n_samples=n, seed=seed, control_kind=control_kind,
                          dt=float(dt), kind=kind)


def _validate_formulations(raw, dictionaries: dict) -> list:
    _require(isinstance(raw, list), "formulations", "expected a list")
    out = []
    for i, entry in enumerate(raw):
        path = f"formulations[{i}]"
        entry = _section({"variant": entry} if isinstance(entry, str) else entry, path,
                         ("variant", "ridge"))
        variant = _field(entry, path, "variant", lambda v: v in VARIANTS,
                         f"expected one of {', '.join(VARIANTS)}, got {{!r}}")
        ridge = _field(entry, path, "ridge", lambda v: _is_real(v) and v >= 0,
                       "expected a number >= 0, got {!r}", 0.0)
        _require(all(spec.variant != variant for spec in out), f"{path}.variant",
                 f"duplicate formulation {variant!r}")
        for role in _MODEL_CLASSES[variant]._payload_dictionaries:
            _require(role in dictionaries, path,
                     f"variant {variant!r} needs a dictionaries.{role} spec")
        out.append(FormulationSpec(variant=variant, ridge=float(ridge)))
    return out


def _validate_checks(raw) -> list:
    _require(isinstance(raw, list), "checks", "expected a list")
    out = []
    for i, entry in enumerate(raw):
        _require(isinstance(entry, str), f"checks[{i}]", "expected a condition id string")
        if entry != "all-applicable":
            _require(entry in CONDITION_IDS, f"checks[{i}]",
                     f"unknown condition id {entry!r}")
        out.append(entry)
    if "all-applicable" in out:
        _require(len(out) == 1, "checks",
                 "'all-applicable' cannot be combined with explicit condition ids")
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig.

    The system and dictionaries built to validate the document are kept on
    the returned config.
    """
    raw = _section(raw, "<root>", ("schema_version", "system", "grid", "dataset", "dictionaries",
                                   "formulations", "checks", "tolerance", "out_dir"),
                   "unknown section")
    _field(raw, "", "schema_version", lambda v: v == CONFIG_SCHEMA_VERSION,
           f"expected {CONFIG_SCHEMA_VERSION}, got {{!r}}", None)

    system_sec = _section(raw.get("system"), "system", ("name", "params"))
    name = _field(system_sec, "system", "name", lambda v: isinstance(v, str), "expected a string")
    params = _section(system_sec.get("params", {}), "system.params")
    for key in params:
        _field(params, "system.params", key, _is_real, "expected a finite number, got {!r}")
    cfg = ExperimentConfig(system_name=name, system_params=dict(params))
    try:
        system = cfg.build_system()
    except (ValueError, TypeError) as exc:
        raise ConfigError("system", str(exc)) from exc

    if raw.get("grid") is not None:
        grid_sec = _section(raw["grid"], "grid",
                            ("state_box", "input_box", "points_per_axis", "zero_input"))
        if "state_box" in grid_sec:
            cfg.state_box = _validate_box(grid_sec["state_box"], "grid.state_box",
                                          system.state_dim, "state")
        if "input_box" in grid_sec:
            cfg.input_box = _validate_box(grid_sec["input_box"], "grid.input_box",
                                          system.input_dim, "input")
        cfg.points_per_axis = _field(grid_sec, "grid", "points_per_axis",
                                     lambda v: _is_int(v) and v >= 2,
                                     "expected an integer >= 2, got {!r}", 9)
        cfg.zero_input_grid = _field(grid_sec, "grid", "zero_input",
                                     lambda v: isinstance(v, bool), "expected a boolean", False)

    if raw.get("dataset") is not None:
        cfg.dataset = _validate_dataset(raw["dataset"])

    if raw.get("dictionaries") is not None:
        dict_sec = _section(raw["dictionaries"], "dictionaries", _DICTIONARY_ROLES,
                            f"unknown role (expected one of {', '.join(_DICTIONARY_ROLES)})")
        for role, spec in dict_sec.items():
            path = f"dictionaries.{role}"
            cfg.dictionaries[role] = dict(_section(spec, path))
            try:
                built = cfg.dictionary(role)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ConfigError(path, str(exc)) from exc
            expected_dim = system.input_dim if role == "input" else system.state_dim
            got_dim = built.state_dim if role == "cross" else built.input_dim
            _require(got_dim == expected_dim, path,
                     f"dictionary dimension {got_dim} does not match the "
                     f"system ({expected_dim})")
            if role == "cross":
                _require(built.input_dim == system.input_dim, path,
                         f"dictionary input dimension {built.input_dim} does not "
                         f"match the system ({system.input_dim})")

    if raw.get("formulations") is not None:
        cfg.formulations = _validate_formulations(raw["formulations"], cfg.dictionaries)

    if raw.get("checks") is not None:
        cfg.checks = _validate_checks(raw["checks"])

    cfg.tolerance = float(_field(raw, "", "tolerance", lambda v: _is_real(v) and v > 0,
                                 "expected a positive number, got {!r}", DEFAULT_TOLERANCE))
    cfg.out_dir = _field(raw, "", "out_dir", lambda v: isinstance(v, str) and v != "",
                         "expected a non-empty string", "runs")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        raw = _read_json_object(path, "config")
    except FileNotFoundError:
        raise ConfigError("<file>", f"no such file: {path}") from None
    except ValueError as exc:
        raise ConfigError("<file>", f"invalid JSON in {exc}") from None
    return parse_config(raw)
