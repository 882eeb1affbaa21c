"""Span tracing around kooplab's public functions, from outside the package.

`instrument` replaces the public functions and methods of each kooplab module
with wrappers that record one span per call: (name, start, end, parent, run
id). Spans stay in memory and are written out once, when the run ends. Counts
that need the call's arguments or result (design-matrix cells, bytes written,
residual points) are recorded by the same wrappers.

A span's name is "<layer>.<operation>", where the layer is the kooplab module.
Several methods share one name (every `ControlledSystem.jacobian_*` is
"dynamics.jacobian"), so a name's time counts only spans with no ancestor of
the same name: re-entry through the RK4 stages is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import Counter
from pathlib import Path

COMMANDS = ("simulate", "fit", "check", "compare")

# public checker -> family, as the CLI groups them
CHECKERS = {
    "check_def1": "DEF1",
    "check_def2": "DEF2",
    "check_theorem2": "T2",
    "check_corollary1": "COR1",
    "check_corollary2": "COR2",
    "check_corollary3_kma": "COR3",
    "check_theorem3": "T3",
    "check_kaiser": "KAISER",
    "check_theorem4": "T4",
    "check_corollary4": "COR4",
    "check_corollary5": "COR5",
    "check_corollary6": "COR6",
    "check_theorem5": "T5",
}

CHECKER_SPANS = frozenset(f"consistency.{family}" for family in CHECKERS.values())

FITS = ("affine", "separable", "joint", "bilinear", "eigen")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._depth: Counter = Counter()

    def parent_name(self):
        """Name of the innermost open span, or None at the root."""
        top = self._stack[-1]
        return None if top < 0 else self.spans[top]

    def wrap(self, name: str, fn, note=None, group=None):
        """Wrap `fn` so that each call records a span named `name`.

        `note(tracer, args, result, exc, outer)` runs after the call, with the
        span closed; `outer` is False when another call of the same `group`
        (default: the same name) is still open around this one.
        """
        group = group or name
        spans, stack, depth, run_id = self.spans, self._stack, self._depth, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            # the open span's slot holds its name until it closes
            spans.append(name)
            parent = stack[-1]
            stack.append(index)
            depth[group] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                spans[index] = (name, start, end, parent, run_id)
                if note is not None:
                    note(self, args, result, exc, depth[group] == 0)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the harness's own code."""
        index = len(self.spans)
        self.spans.append(name)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def write(self, path: Path) -> None:
        """Append the spans to a gzip'd tab-separated file (header when new)."""
        new = not path.exists()
        with gzip.open(path, "at", compresslevel=1) as fh:
            if new:
                fh.write("run\tindex\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{run_id}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


# -- instrumentation ---------------------------------------------------------------


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _note_lstsq(tracer, args, result, exc, outer):
    rows, cols = args[0].shape  # the fits pass their design matrix as an array
    tracer.counts["numerics.lstsq.cells"] += rows * cols


def _note_rk4(tracer, args, result, exc, outer):
    if tracer.parent_name() == "dynamics.evaluate":
        tracer.counts["dynamics.evaluate.rk4_steps"] += 1


def _note_evaluate(tracer, args, result, exc, outer):
    if args[0].time_kind == "discrete":
        tracer.counts["dynamics.evaluate.discrete_calls"] += 1


def _note_dataset(tracer, args, result, exc, outer):
    if result is not None:
        tracer.counts["dynamics.samples"] += result.n_samples
        tracer.counts["dynamics.redraws"] += result.n_redraws


def _note_save_dataset(tracer, args, result, exc, outer):
    if result is not None:
        tracer.counts["dynamics.dataset_io.bytes"] += _file_bytes(*result)


def _note_load_dataset(tracer, args, result, exc, outer):
    stem = Path(args[0])
    tracer.counts["dynamics.dataset_io.bytes"] += _file_bytes(
        stem.with_suffix(".csv"), stem.with_suffix(".json"))


def _note_report_io(tracer, args, result, exc, outer):
    if result is not None:
        tracer.counts["consistency.report_io.bytes"] += _file_bytes(result)


def _note_rollout(tracer, args, result, exc, outer):
    if result is not None:
        tracer.counts["formulations.rollout.steps"] += len(result) - 1


def _note_checker(tracer, args, result, exc, outer):
    if not outer:  # COR3 calls COR2; count the outer call's reports once
        return
    if isinstance(exc, ValueError):  # all-applicable mode skips the family
        tracer.counts["consistency.skipped"] += 1
    elif result is not None:
        reports = result if isinstance(result, list) else [result]
        tracer.counts["consistency.residuals"] += sum(r.n_points for r in reports)


def _replace_everywhere(modules, original, wrapped):
    """Rebind every module-level name that refers to `original`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every kooplab module with `tracer` spans."""
    from kooplab import cli, config, consistency, dynamics, formulations, numerics, observables

    modules = (numerics, dynamics, observables, formulations, consistency, config, cli)

    def function(module, attr, name, note=None, group=None):
        original = getattr(module, attr)
        _replace_everywhere(modules, original, tracer.wrap(name, original, note, group))

    def methods(classes, attrs, name, note=None):
        for cls in classes:
            for attr in attrs:
                if attr in vars(cls):
                    setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], note))

    function(numerics, "solve_least_squares", "numerics.lstsq", _note_lstsq)
    function(numerics, "rk4_step", "numerics.rk4_step", _note_rk4)
    function(numerics, "finite_difference_jacobian", "numerics.fd_jacobian")

    methods([dynamics.ControlledSystem], ["evaluate"], "dynamics.evaluate", _note_evaluate)
    methods([dynamics.ControlledSystem],
            ["jacobian_fx", "jacobian_fu", "jacobian_fxu_x", "jacobian_fxu_u",
             "jacobian_x", "jacobian_u"], "dynamics.jacobian")
    function(dynamics, "generate_dataset", "dynamics.generate_dataset", _note_dataset)
    function(dynamics, "discretize", "dynamics.discretize")
    function(dynamics, "save_dataset", "dynamics.dataset_io", _note_save_dataset)
    function(dynamics, "load_dataset", "dynamics.dataset_io", _note_load_dataset)

    dictionaries = [c for c in vars(observables).values()
                    if isinstance(c, type) and issubclass(c, (observables.Dictionary,
                                                              observables.JointDictionary))]
    methods(dictionaries, ["evaluate", "evaluate_batch"], "observables.evaluate")
    methods(dictionaries, ["jacobian", "jacobian_x", "jacobian_u"], "observables.jacobian")

    for variant in FITS:
        function(formulations, f"fit_{variant}", f"formulations.fit_{variant}")
    function(formulations, "rollout", "formulations.rollout", _note_rollout)
    function(formulations, "save_model", "formulations.model_io")
    function(formulations, "load_model", "formulations.model_io")
    function(formulations, "bilinear_to_joint", "formulations.bilinear_to_joint")

    for attr, family in CHECKERS.items():
        function(consistency, attr, f"consistency.{family}", _note_checker,
                 group="consistency.checker")
    function(consistency, "write_reports_json", "consistency.report_io", _note_report_io)
    function(consistency, "write_summary_csv", "consistency.report_io", _note_report_io)

    function(config, "load_config", "config.load")


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pipeline, derived from its spans.

    Returns {metric name: value}. Counts are exact; times are in seconds.
    """
    bits: dict = {}

    def bit(key):
        if key not in bits:
            bits[key] = 1 << len(bits)
        return bits[key]

    n = len(spans)
    ancestors = [0] * n  # bitmask of the names and layers open around span i
    root = [0] * n
    child_time = [0.0] * n
    calls: Counter = Counter()
    outer_s: Counter = Counter()
    layer_in_root: Counter = Counter()  # (root name, layer) -> covered seconds
    root_s: Counter = Counter()
    checker_s = 0.0  # outermost checker calls only

    for i, (name, start, end, parent, _run) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        if parent >= 0:
            pname = spans[parent][0]
            ancestors[i] = ancestors[parent] | bit(pname) | bit(pname.split(".", 1)[0])
            root[i] = root[parent]
            child_time[parent] += duration
        else:
            root[i] = i
            root_s[name] += duration
        calls[name] += 1
        if not ancestors[i] & bit(name):
            outer_s[name] += duration
        if not ancestors[i] & bit(layer):
            layer_in_root[spans[root[i]][0], layer] += duration
            if name in CHECKER_SPANS:
                checker_s += duration

    self_s: Counter = Counter()  # of the harness's per-command root spans
    for i, (name, start, end, parent, _run) in enumerate(spans):
        if parent < 0:
            self_s[name] += (end - start) - child_time[i]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict = {}
    m["numerics.lstsq.calls"] = calls["numerics.lstsq"]
    m["numerics.lstsq.s"] = outer_s["numerics.lstsq"]
    m["numerics.lstsq.cells"] = counts["numerics.lstsq.cells"]
    m["numerics.rk4_step.calls"] = calls["numerics.rk4_step"]
    m["numerics.fd_jacobian.calls"] = calls["numerics.fd_jacobian"]

    for op in ("evaluate", "jacobian"):
        m[f"dynamics.{op}.calls"] = calls[f"dynamics.{op}"]
        m[f"dynamics.{op}.s"] = outer_s[f"dynamics.{op}"]
    m["dynamics.rk4_steps_per_evaluate"] = ratio(counts["dynamics.evaluate.rk4_steps"],
                                                 counts["dynamics.evaluate.discrete_calls"])
    m["dynamics.generate_dataset.s"] = outer_s["dynamics.generate_dataset"]
    m["dynamics.redraw_ratio"] = ratio(counts["dynamics.redraws"], counts["dynamics.samples"])
    m["dynamics.dataset_io.s"] = outer_s["dynamics.dataset_io"]
    m["dynamics.dataset_io.bytes"] = counts["dynamics.dataset_io.bytes"]
    m["dynamics.discretize.s"] = outer_s["dynamics.discretize"]

    for op in ("evaluate", "jacobian"):
        m[f"observables.{op}.calls"] = calls[f"observables.{op}"]
        m[f"observables.{op}.s"] = outer_s[f"observables.{op}"]

    fit_s = 0.0
    for variant in FITS:
        m[f"formulations.fit_{variant}.s"] = outer_s[f"formulations.fit_{variant}"]
        fit_s += outer_s[f"formulations.fit_{variant}"]
    # lstsq is only called from the fits
    m["formulations.fit.lstsq_share"] = ratio(outer_s["numerics.lstsq"], fit_s)
    m["formulations.rollout.s"] = outer_s["formulations.rollout"]
    m["formulations.rollout.steps"] = counts["formulations.rollout.steps"]
    m["formulations.model_io.s"] = outer_s["formulations.model_io"]
    m["formulations.bilinear_to_joint.s"] = outer_s["formulations.bilinear_to_joint"]

    for family in CHECKERS.values():
        m[f"consistency.{family}.s"] = outer_s[f"consistency.{family}"]
    m["consistency.residuals"] = counts["consistency.residuals"]
    m["consistency.residuals_per_s"] = ratio(counts["consistency.residuals"], checker_s)
    m["consistency.skipped"] = counts["consistency.skipped"]
    m["consistency.report_io.s"] = outer_s["consistency.report_io"]
    m["consistency.report_io.bytes"] = counts["consistency.report_io.bytes"]

    m["config.load.s"] = outer_s["config.load"]
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    for command in ("check", "compare"):
        m[f"cli.{command}.dynamics_share"] = ratio(
            layer_in_root[f"cli.{command}", "dynamics"], root_s[f"cli.{command}"])
    m["trace.spans"] = n
    return m
