"""Batch front end: simulate, fit, check, compare, demo.

Library functions are called through their modules (`consistency.check_model`,
`F.rollout`), so a function replaced on its module, by a tracer or a test, is
the one the commands call. Exit codes: 0 on success (and a consistent verdict
for `check`), 1 on computation failures or an inconsistent verdict, 2 on usage
and configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import config, consistency, dynamics, formulations as F, numerics

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "UsageError",
    "PipelineError",
    "DEMO_NAMES",
    "build_parser",
    "main",
    "cmd_simulate",
    "cmd_fit",
    "cmd_check",
    "cmd_compare",
    "cmd_demo",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad invocation: wrong flags, wrong file, inapplicable request. Exit 2."""


class PipelineError(Exception):
    """A named pipeline stage failed while computing. Exit 1."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kooplab",
        description="Fit lifted linear models of controlled systems and "
        "evaluate their dynamical-consistency conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=False, ridge=False, seed=True):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON experiment configuration")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides the config)")
        if seed:
            p.add_argument("--seed", type=int, default=None, metavar="N",
                           help="random seed (overrides the config)")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=None, metavar="X",
                           help="residual tolerance (overrides the config)")
        if ridge:
            p.add_argument("--ridge", type=float, default=None, metavar="X",
                           help="ridge penalty applied to every fit (overrides the config)")

    p = sub.add_parser("simulate", help="draw a snapshot dataset from the configured system")
    common(p)

    p = sub.add_parser("fit", help="fit the configured formulations to a dataset")
    common(p, ridge=True, seed=False)
    p.add_argument("--dataset", required=True, metavar="PATH",
                   help="dataset file (.csv or .json) written by simulate")

    p = sub.add_parser("check", help="evaluate consistency conditions for a fitted model")
    common(p, tolerance=True)
    p.add_argument("--model", required=True, metavar="PATH",
                   help="model file written by fit")

    p = sub.add_parser("compare",
                       help="simulate, fit every configured formulation, and rank them")
    common(p, tolerance=True, ridge=True)

    p = sub.add_parser("demo", help="run a packaged worked example")
    p.add_argument("name", metavar="NAME",
                   help="demo name (run with an unknown name to list them)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: runs/NAME)")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="random seed (demos fix their own defaults)")

    return parser


_parser = functools.cache(build_parser)  # main's: built on first use, then reused


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (UsageError, config.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _dispatch(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    if args.command == "demo":
        return cmd_demo(args.name, out_dir=args.out, seed=seed)

    cfg = config.load_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if seed is not None and cfg.dataset is not None:
        cfg.dataset.seed = seed
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None:
        if not 0 < tolerance < math.inf:
            raise UsageError(f"--tolerance must be positive and finite, got {tolerance}")
        cfg.tolerance = tolerance
    ridge = getattr(args, "ridge", None)
    if ridge is not None:
        if not 0 <= ridge < math.inf:
            raise UsageError(f"--ridge must be >= 0 and finite, got {ridge}")
        for spec in cfg.formulations:
            spec.ridge = ridge

    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "fit":
        return cmd_fit(cfg, args.dataset)
    if args.command == "check":
        return cmd_check(cfg, args.model, pairwise_seed=seed)
    if args.command == "compare":
        return cmd_compare(cfg)
    raise UsageError(f"unknown command {args.command!r}")


# -- shared helpers -------------------------------------------------------------


def _out_dir(path) -> Path:
    """The output directory at `path`, made if missing; a usage error if `path` is
    empty or cannot be a directory."""
    if not str(path):
        raise UsageError("the output directory must be a non-empty path")
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {str(path)!r}: {exc.strerror}") from None
    return Path(path)


def _require_dataset_section(cfg, command: str):
    if cfg.dataset is None:
        raise config.ConfigError("dataset", f"section required for {command}")


def _generate(cfg, kind=None, system=None):
    ds = cfg.dataset
    state_box, input_box = cfg.sampling_regions()
    return dynamics.generate_dataset(
        system if system is not None else cfg.build_system(),
        ds.n_samples,
        control_kind=ds.control_kind,
        seed=ds.seed,
        dt=ds.dt,
        region=state_box,
        input_region=input_box,
        kind=kind if kind is not None else ds.kind,
    )


def _check_dims(noun: str, artifact, cfg):
    """A usage error unless the dataset or model `artifact` has the state and
    input dimensions of the configured system."""
    system = cfg.build_system()
    if (artifact.state_dim, artifact.input_dim) != (system.state_dim, system.input_dim):
        raise UsageError(
            f"{noun} dimensions (n={artifact.state_dim}, m={artifact.input_dim}) do not match "
            f"system {cfg.system_name!r} (n={system.state_dim}, m={system.input_dim})"
        )


def _checked_system(cfg, time_kind: str, dt=None):
    """The system a model of `time_kind` is checked against: a discrete model of a
    continuous system meets its RK4 map at `dt` (the dataset's dt when None); a
    continuous model of a discrete system is a usage error."""
    system = cfg.build_system()
    if time_kind == "discrete" and system.time_kind == "continuous":
        dt = dt if dt is not None else (cfg.dataset.dt if cfg.dataset else None)
        if dt is None:
            raise UsageError(
                "discrete-time model over a continuous-time system: no dt recorded "
                "on the model and no dataset section to take one from"
            )
        return dynamics.discretize(system, dt)
    if time_kind == "continuous" and system.time_kind == "discrete":
        raise UsageError(
            f"continuous-time model cannot be checked against the discrete-time "
            f"system {cfg.system_name!r}"
        )
    return system


def _fit_and_save(variant: str, data, cfg, out: Path, ridge: float = 0.0):
    """Fit one formulation on the configured dictionaries it needs and save it as
    model-<variant>.json; returns (model, path). A failed fit is a PipelineError
    tagged fit[<variant>]."""
    if variant == "eigen" and ridge:
        raise UsageError("the eigen fit solves per-eigenvalue problems and has no ridge parameter")
    dictionaries = [cfg.dictionary(role) for role in F._MODEL_CLASSES[variant]._payload_dictionaries]
    try:
        if variant == "eigen":
            model = F.fit_eigen(data, *dictionaries)
        else:
            model = getattr(F, f"fit_{variant}")(data, *dictionaries, ridge=ridge)
    except ValueError as exc:
        raise PipelineError(f"fit[{variant}]", str(exc)) from None
    path = out / f"model-{variant}.json"
    F.save_model(model, path)
    return model, path


def _write_reports(reports, cfg, system, seed, skipped=()):
    """Write reports.json (+ reports.npz) and summary.csv into the config's out_dir,
    which the command made before any work, with its grid and tolerance as
    provenance; returns the summary."""
    out = Path(cfg.out_dir)
    summary = consistency.summarize(reports)
    consistency.write_reports_json(
        reports, out / "reports.json", skipped,
        consistency.report_provenance(system, cfg.build_grid(), cfg.tolerance, seed))
    consistency.write_summary_csv(summary, out / "summary.csv")
    return summary


def _ordered_formulations(cfg):
    """Config formulations in canonical variant order (shows the nesting)."""
    return sorted(cfg.formulations, key=lambda s: F.VARIANTS.index(s.variant))


# -- simulate -------------------------------------------------------------------


def cmd_simulate(cfg) -> int:
    """Draw the configured dataset and write it as CSV + JSON envelope."""
    _require_dataset_section(cfg, "simulate")
    out = _out_dir(cfg.out_dir)
    data = _generate(cfg)
    csv_path, json_path = dynamics.save_dataset(data, out / "dataset")
    print(f"wrote {csv_path} and {json_path}")
    print(
        f"{data.n_samples} samples ({data.kind}, control={cfg.dataset.control_kind}), "
        f"{data.n_redraws} sample(s) redrawn at the divergence guard"
    )
    return EXIT_OK


# -- fit ------------------------------------------------------------------------


def cmd_fit(cfg, dataset_path) -> int:
    """Fit every configured formulation to a saved dataset."""
    if not cfg.formulations:
        raise config.ConfigError("formulations", "at least one formulation is required for fit")
    out = _out_dir(cfg.out_dir)
    try:
        data = dynamics.load_dataset(dataset_path)
    except FileNotFoundError as exc:
        raise UsageError(f"no dataset at {dataset_path!r} ({exc})") from None
    _check_dims("dataset", data, cfg)

    rows = [(spec, *_fit_and_save(spec.variant, data, cfg, out, spec.ridge))
            for spec in _ordered_formulations(cfg)]
    print(f"{'formulation':<12} {'ridge':>10} {'train residual':>16}")
    for spec, model, _ in rows:
        print(f"{spec.variant:<12} {spec.ridge:>10.3g} {model.training_residual:>16.6e}")
    for _, _, path in rows:
        print(f"wrote {path}")
    return EXIT_OK


# -- check ----------------------------------------------------------------------

def _run_checks(system, model, grid, tol, seed, requested) -> tuple[list, list]:
    """consistency.check_model, with an inapplicable explicit request as a usage error."""
    try:
        return consistency.check_model(system, model, grid, tol, seed, requested)
    except consistency.InapplicableConditionError as exc:
        raise UsageError(str(exc)) from None


def _check_and_write(cfg, system, model, seed, requested=None):
    """Check `model` against `system` on the config's grid and write the reports;
    returns (reports, skipped, summary). No evaluable condition is a failure."""
    reports, skipped = _run_checks(system, model, cfg.build_grid(), cfg.tolerance, seed,
                                   requested)
    if not reports:
        raise PipelineError("check", "no condition could be evaluated for this model")
    return reports, skipped, _write_reports(reports, cfg, system, seed, skipped)


def cmd_check(cfg, model_path, pairwise_seed=None) -> int:
    """Evaluate the configured conditions for a saved model.

    Exits 0 when every evaluated condition is within tolerance, 1 otherwise.
    """
    out = _out_dir(cfg.out_dir)
    try:
        model = F.load_model(model_path)
    except FileNotFoundError:
        raise UsageError(f"no model file at {model_path!r}") from None
    _check_dims("model", model, cfg)
    system = _checked_system(cfg, model.time_kind, model.dt)

    seed = pairwise_seed
    if seed is None:
        seed = cfg.dataset.seed if cfg.dataset is not None else 0
    requested = None if (not cfg.checks or cfg.checks == ["all-applicable"]) else cfg.checks
    _, skipped, summary = _check_and_write(cfg, system, model, seed, requested)

    if model.variant == "bilinear":
        print("note: operator-family conditions evaluated through the equivalent "
              "joint-dictionary form")
    for family, reason in skipped:
        print(f"skipped {family}: {reason}")
    print(summary.to_text())
    print(f"wrote {out / 'reports.json'} and {out / 'summary.csv'}")
    return EXIT_OK if summary.overall_verdict == "consistent" else EXIT_FAILURE


# -- compare ----------------------------------------------------------------------

_RMSE_STEPS = (1, 5, 20)
_N_HELDOUT = 5
_HORIZON = 20


def _compare_pipeline(cfg) -> list[dict]:
    """simulate -> fit -> rollout -> check for every configured formulation, then
    the trajectory files and comparison.csv, all in the config's out_dir."""
    if len(cfg.formulations) < 2:
        raise config.ConfigError("formulations", "compare needs at least two formulations")
    for i, spec in enumerate(cfg.formulations):
        if spec.variant == "eigen":
            raise config.ConfigError(
                f"formulations[{i}].variant",
                "eigen models are continuous-time only and cannot be rolled out; "
                "compare supports affine, separable, joint, and bilinear",
            )
    _require_dataset_section(cfg, "compare")
    out = _out_dir(cfg.out_dir)

    # stage: simulate: one-step training pairs (so every fit rolls out) and held-out
    # truths from a separate stream, all of the discretized system checked below
    try:
        dsystem = _checked_system(cfg, "discrete")
        data = _generate(cfg, kind="discrete-pairs", system=dsystem)
        dynamics.save_dataset(data, out / "dataset")
        state_box, input_box = cfg.sampling_regions()
        rng = np.random.default_rng(cfg.dataset.seed + 1)
        x0s = dynamics._draw_box(rng, state_box, _N_HELDOUT)
        controls = dynamics._draw_box(rng, input_box, _N_HELDOUT * _HORIZON).reshape(
            _N_HELDOUT, _HORIZON, dsystem.input_dim)
        true_paths, lengths = dynamics._march(lambda k, live, X, u: dsystem.evaluate(X, u),
                                              x0s, controls, dynamics.DIVERGENCE_BOUND)
    except ValueError as exc:
        raise PipelineError("simulate", str(exc)) from None
    if (lengths <= _HORIZON).any():
        i = int(np.argmax(lengths <= _HORIZON))
        raise PipelineError("simulate", f"held-out trajectory {i} left the divergence bound "
                                        f"{dynamics.DIVERGENCE_BOUND:g} at step {lengths[i]}")

    grid = cfg.build_grid()
    rows = []
    for spec in _ordered_formulations(cfg):
        model, _ = _fit_and_save(spec.variant, data, cfg, out, spec.ridge)

        # stage: rollout
        try:
            preds = [result.states for result in F.rollout(model, x0s, controls)]
        except ValueError as exc:
            raise PipelineError(f"rollout[{spec.variant}]", str(exc)) from None
        rmse = {}
        for k in _RMSE_STEPS:  # inf where the divergence guard truncated a prediction
            errs = [pred[k] - true[k] for pred, true in zip(preds, true_paths) if len(pred) > k]
            rmse[k] = (float(np.sqrt(np.mean([float(e @ e) for e in errs])))
                       if len(errs) == len(preds) else float("inf"))

        # stage: check
        try:
            reports, _ = _run_checks(dsystem, model, grid, cfg.tolerance,
                                     cfg.dataset.seed, None)
        except ValueError as exc:
            raise PipelineError(f"check[{spec.variant}]", str(exc)) from None
        worst = max((r.max_residual for r in reports), default=float("nan"))
        verdict = consistency.summarize(reports).overall_verdict if reports else "not-evaluated"

        rows.append({
            "formulation": spec.variant,
            "train_residual": float(model.training_residual),
            "rmse_1": rmse[1],
            "rmse_5": rmse[5],
            "rmse_20": rmse[20],
            "worst_consistency": float(worst),
            "verdict": verdict,
            "_maxima": {r.condition: r.max_residual for r in reports},
            "_preds": preds,
        })

    # gnuplot-style whitespace columns: step, time, true state, predicted state
    dt = cfg.dataset.dt
    for row in rows:
        lines = [
            "# held-out rollouts: "
            f"{_N_HELDOUT} trajectories, horizon {_HORIZON}, formulation {row['formulation']}",
            "# k t " + " ".join(f"true_x{i + 1}" for i in range(dsystem.state_dim))
            + " " + " ".join(f"pred_x{i + 1}" for i in range(dsystem.state_dim)),
        ]
        for pred, true in zip(row.pop("_preds"), true_paths):
            for k in range(min(len(pred), len(true))):
                cells = [str(k), repr(k * dt)]
                cells += [repr(float(v)) for v in true[k]]
                cells += [repr(float(v)) for v in pred[k]]
                lines.append(" ".join(cells))
            lines.append("")  # blank line separates trajectory blocks
        path = out / f"trajectory-{row['formulation']}.dat"
        path.write_text("\n".join(lines) + "\n")

    numerics._write_csv(out / "comparison.csv", ["formulation", "train_residual", "rmse_1",
                                                 "rmse_5", "rmse_20", "worst_consistency",
                                                 "verdict"], rows)
    return rows


def cmd_compare(cfg) -> int:
    """Fit every configured formulation to one dataset and rank them."""
    rows = _compare_pipeline(cfg)
    header = (f"{'formulation':<12} {'train residual':>16} {'rmse@1':>12} "
              f"{'rmse@5':>12} {'rmse@20':>12} {'worst residual':>16}  verdict")
    print(header)
    for row in rows:
        print(f"{row['formulation']:<12} {row['train_residual']:>16.6e} "
              f"{row['rmse_1']:>12.4e} {row['rmse_5']:>12.4e} {row['rmse_20']:>12.4e} "
              f"{row['worst_consistency']:>16.6e}  {row['verdict']}")
    print(f"wrote {Path(cfg.out_dir) / 'comparison.csv'}")
    return EXIT_OK


# -- demos ------------------------------------------------------------------------


def _demo_config(out: Path, seed: int, raw: dict):
    """A demo's validated config, system and grid: its own sections, with the seed
    in its dataset, its artifacts in `out`, and tolerance 1e-8 unless it sets one."""
    if "dataset" in raw:
        raw["dataset"]["seed"] = seed
    cfg = config.parse_config({"schema_version": 1, "tolerance": 1e-8, **raw, "out_dir": str(out)})
    return cfg, cfg.build_system(), cfg.build_grid()


def _demo_corollary1(out: Path, seed: int) -> str:
    """State-inclusive separable lifting is obstructed by a cross term."""
    cfg, system, grid = _demo_config(out, seed, {
        "system": {"name": "bilinear-scalar", "params": {"a": -1.0, "b": 1.0}},
        "dataset": {"n_samples": 400, "kind": "continuous-derivative"},
        "dictionaries": {
            "state": {"kind": "identity", "dim": 1},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
        },
        "tolerance": 1e-6,
    })
    dict_x = cfg.dictionary("state")
    model = F.fit_separable(_generate(cfg), dict_x, cfg.dictionary("input"))
    report = consistency.check_corollary1(system, dict_x, grid, tolerance=cfg.tolerance)
    _write_reports([report], cfg, system, seed)
    dt = 0.1
    discrete = consistency.check_corollary4(_checked_system(cfg, "discrete", dt), dict_x, grid,
                                            tolerance=cfg.tolerance)
    x_star, u_star = report.argmax_point["x"][0], report.argmax_point["u"][0]
    return (
        "The scalar system xdot = -x + x u has the cross term f_xu(x, u) = x u. "
        f"A separable fit to {cfg.dataset.n_samples} derivative samples leaves a "
        f"training residual of {model.training_residual:.4f}, which looks like a "
        "fit that more data or tuning could improve. COR1-FXU shows that none "
        "can: it measures exactly the cross term, from the system and the "
        "dictionary alone, and its residual field peaks at "
        f"{report.max_residual:.6f} (at x = {x_star:g}, u = {u_star:g}) with mean "
        f"{report.mean_residual:.4f}, so the verdict is {report.verdict!r}. The "
        f"one-step map of the dt = {dt:g} discretization fails the same way: "
        f"COR4-FXU reaches {discrete.max_residual:.4f}, verdict "
        f"{discrete.verdict!r}. No state-inclusive dictionary admits a "
        "separable lifted model K_x psi_x(x) + K_u psi_u(u) for this system, "
        "because the projection back to the state would have to reproduce a "
        "product of state and input with a sum. The obstruction is a property "
        "of the system, not of any particular fit."
    )


def _demo_joint_rescue(out: Path, seed: int) -> str:
    """A cross dictionary turns an unfittable bilinear map into an exact fit."""
    cfg, _, _ = _demo_config(out, seed, {
        "system": {"name": "bilinear-discrete", "params": {"alpha": 0.9, "beta": 0.1}},
        "dataset": {"n_samples": 400, "control_kind": "uniform-random"},
        "dictionaries": {
            "state": {"kind": "identity", "dim": 1},
            "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
            "cross": {"kind": "monomial-joint", "state_dim": 1, "input_dim": 1,
                      "state_degree": 1, "input_degree": 1},
        },
        "formulations": ["separable", "joint"],
    })
    sep, joint = _compare_pipeline(cfg)  # canonical variant order

    def rmse(row):
        return f"{row['rmse_1']:.3e}, {row['rmse_5']:.3e} and {row['rmse_20']:.3e}"

    def maxima(row):
        return ", ".join(f"{cid} {value:.3e}" for cid, value in row["_maxima"].items())

    worst = max(sep["_maxima"], key=sep["_maxima"].get)
    return (
        "The map x+ = 0.9 x + 0.1 x u multiplies state by input, which a "
        "separable model K_x psi_x + K_u psi_u cannot represent: its best fit "
        f"leaves a training residual of {sep['train_residual']:.3e} and "
        f"held-out rollout errors of {rmse(sep)} at steps 1, 5 and 20. Its "
        f"worst consistency residual is {sep['worst_consistency']:.3e}, reached "
        f"by {worst}, and COR4-FXU, which measures the cross term directly, "
        f"reaches {sep['_maxima']['COR4-FXU']:.3e} ({maxima(sep)}). Adding the "
        "single cross observable x u makes the joint fit exact: training "
        f"residual {joint['train_residual']:.3e}, rollout errors {rmse(joint)}, "
        f"and every condition within {joint['worst_consistency']:.3e}, verdict "
        f"{joint['verdict']!r} ({maxima(joint)}). The nesting is strict here "
        "because the dynamics live exactly in the span the separable form "
        "excludes."
    )


def _demo_kaiser(out: Path, seed: int) -> str:
    """Fit a diagonal eigen model and detect a perturbed eigenvalue."""
    mu, lam = -0.05, -1.0
    b = lam / (lam - 2.0 * mu)
    cfg, system, grid = _demo_config(out, seed, {
        "system": {"name": "slow-manifold", "params": {"mu": mu, "lam": lam}},
        "grid": {"zero_input": True},  # the eigenpair lives on the u = 0 slice
        "dataset": {"n_samples": 300, "control_kind": "zero",
                    "kind": "continuous-derivative"},
        "dictionaries": {
            "state": {
                "kind": "combination",
                "base": {"kind": "monomials", "dim": 2, "max_degree": 2,
                         "include_constant": False},
                "coefficients": [[1.0, 0.0, 0.0, 0.0, 0.0],
                                 [0.0, 1.0, -b, 0.0, 0.0]],
                "names": ["phi1", "phi2"],
            },
        },
    })
    eigendict = cfg.dictionary("state")
    model, _ = _fit_and_save("eigen", _generate(cfg), cfg, out)
    fitted = consistency.check_kaiser(system, eigendict, model.eigenvalues, grid,
                                      tolerance=cfg.tolerance)
    perturbed = consistency.check_kaiser(system, eigendict,
                                         model.eigenvalues + np.array([0.0, 0.1]),
                                         grid, tolerance=cfg.tolerance)
    _write_reports([fitted, perturbed], cfg, system, seed)
    lam1, lam2 = model.eigenvalues
    x1, x2 = perturbed.argmax_point["x"]
    return (
        "The slow-manifold system has the exact eigenfunction pair "
        "phi1 = x1, phi2 = x2 - b x1^2 with b = lam/(lam - 2 mu): each evolves "
        "as d phi/dt = lambda phi along autonomous trajectories. The fit "
        f"recovers lambda1 = {lam1:.6f} and lambda2 = {lam2:.6f} (true values "
        f"{mu:g} and {lam:g}) with fit residual {model.training_residual:.3e}, "
        f"and the KAISER residual of the fitted pair is {fitted.max_residual:.3e} "
        "on the zero-input slice. Shifting lambda2 by 0.1 raises it to "
        f"{perturbed.max_residual:.3f}, worst at x = ({x1:g}, {x2:g}) where "
        "|0.1 phi2(x)| peaks, so the condition separates a correct diagonal "
        "model from a nearby wrong one and shows where the wrong one breaks. "
        "Off the u = 0 slice the additive input breaks the invariance, which "
        "is why the evaluation grid pins u = 0."
    )


def _demo_williams(out: Path, seed: int) -> str:
    """An input-parameterized operator family equals a joint-dictionary lift."""
    cfg, system, _ = _demo_config(out, seed, {
        "system": {"name": "bilinear-discrete", "params": {"alpha": 0.9, "beta": 0.1}},
        "dataset": {"n_samples": 400, "control_kind": "uniform-random"},
        "dictionaries": {
            "state": {"kind": "identity", "dim": 1},
            "input": {"kind": "monomials", "dim": 1, "max_degree": 1,
                      "include_constant": True, "var_prefix": "u"},
        },
    })
    bil, _ = _fit_and_save("bilinear", _generate(cfg), cfg, out)
    joint = F.bilinear_to_joint(bil)
    F.save_model(joint, out / "model-joint.json")

    state_box, input_box = cfg.sampling_regions()
    P = dynamics._draw_box(numerics._rng(seed), [*state_box, *input_box], 100)
    x, u = P[:, :1], P[:, 1:]
    max_dev = float(abs(F.predict_step(bil, x, u)[0] - F.predict_step(joint, x, u)[0]).max())

    reports, _, summary = _check_and_write(cfg, system, joint, seed)
    worst = max(r.max_residual for r in reports)
    operators = ", ".join(f"K[{name}] = {K.item():+.6f}"
                          for name, K in zip(bil.dict_u.names, bil.K_terms))
    return (
        "A bilinear model advances the lifted state with an input-dependent "
        "operator K(u) = sum_i psi_u_i(u) K_i. Fitted with input observables "
        f"{{1, u}}, it finds {operators} (training residual "
        f"{bil.training_residual:.3e}). Writing K(u) psi_x as "
        "K(0) psi_x + (K(u) - K(0)) psi_x shows the same dynamics as a joint "
        "model over the derived cross dictionary psi_xu = (K(u) - K(0)) psi_x, "
        "which vanishes at u = 0 by construction; the converted model has "
        f"K_x {joint.K_x.shape}, K_xu {joint.K_xu.shape} and cross observables "
        f"{list(joint.dict_xu.names)}. Over 100 random points the "
        f"two forms' one-step predictions agree to {max_dev:.2e}, and the "
        "converted model satisfies the joint-formulation conditions (T5 with "
        f"its COR7/COR8 variants) with worst residual {worst:.2e}, verdict "
        f"{summary.overall_verdict!r}. The two parameterizations are the same "
        "model class expressed in different coordinates."
    )


def _demo_gxfu(out: Path, seed: int) -> str:
    """Pairwise independence probes a state-dependent input gain."""
    cfg, system, grid = _demo_config(out, seed, {
        "system": {"name": "duffing-forced", "params": {"delta": 0.5}},
        "dictionaries": {
            "state": {"kind": "monomials", "dim": 2, "max_degree": 2,
                      "include_constant": False},
        },
    })
    report = consistency.check_corollary2(system, cfg.dictionary("state"), grid,
                                          seed=seed, tolerance=cfg.tolerance)
    _write_reports([report], cfg, system, seed)
    return (
        "For systems of the form xdot = f_x(x) + G(x) f_u(u) one might hope to "
        "lift the input channel through observables of u alone. COR2-PAIRWISE "
        "tests the obstruction: it compares J_psi(x1) f_u(u) across state pairs "
        "at a common input, which must agree whenever a separable lifted model "
        "exists. The forced oscillator here has constant gain (G does not vary "
        "with x), yet with quadratic state observables the pairwise residual "
        f"already reaches {report.max_residual:.3f}, because the observables' "
        "Jacobians differ across states while the lifted input term L_u psi_u "
        "is a single fixed vector field. A state-dependent gain only sharpens "
        "this: the conditions constrain the pair (system, dictionary), and "
        "enlarging the state dictionary cannot remove a mismatch that lives in "
        "the input channel itself."
    )


# registry order is presentation order in listings
_DEMOS = {
    "corollary1-obstruction": _demo_corollary1,
    "joint-rescues-bilinear": _demo_joint_rescue,
    "kaiser-eigen": _demo_kaiser,
    "williams-equivalence": _demo_williams,
    "discussion-gxfu": _demo_gxfu,
}

DEMO_NAMES = tuple(_DEMOS)


def cmd_demo(name: str, out_dir=None, seed=None) -> int:
    """Run a packaged worked example and write its artifacts."""
    if name not in _DEMOS:
        listing = ", ".join(DEMO_NAMES)
        raise UsageError(f"unknown demo {name!r}; available demos: {listing}")
    out = _out_dir(out_dir if out_dir is not None else Path("runs") / name)
    paragraph = _DEMOS[name](out, 0 if seed is None else seed)
    (out / "interpretation.txt").write_text(paragraph + "\n")
    print(paragraph)
    print(f"artifacts in {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
