"""One benchmark repetition in a fresh process: set up, then drive the CLI.

    python3 benchmarks/child.py SPEC.json RESULT.json

SPEC names the kooplab source directory, the config, the commands (each an
argv for `kooplab.cli.main`), and whether to trace. The parent process sets
KOOPLAB_THREADS and the BLAS thread variables in this process's environment,
so nothing may import numpy before the timed set-up starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_COMMAND_S = 1.0  # untraced: rerun a command until its calls add up to this
MAX_CALLS = 20


def _setup(config_path: str) -> dict:
    """Import the numerical modules and build what the config describes."""
    from kooplab.config import load_config
    from kooplab.dynamics import discretize

    cfg = load_config(config_path)
    system = cfg.build_system()
    dictionaries = {role: cfg.dictionary(role).size for role in cfg.dictionaries}
    grid = cfg.build_grid()
    ds = cfg.dataset
    if ds is not None and ds.kind == "discrete-pairs" and system.time_kind == "continuous":
        discretize(system, ds.dt)
    return {
        "samples": ds.n_samples if ds is not None else 0,
        "grid_points": int(grid.states.shape[0] * grid.inputs.shape[0]),
        "dictionary_sizes": dictionaries,
    }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    sizes = _setup(spec["config"])
    setup_s = time.perf_counter() - start

    import numpy

    from kooplab import cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        spans.instrument(tracer)

    # Untraced, the pipeline runs in rounds: after the first, a round reruns
    # only the commands whose calls add up to less than MIN_COMMAND_S, so a
    # short command's median rests on calls spread over the repetition.
    # Traced, each command runs once, so that span counts repeat exactly.
    calls = {entry["label"]: [] for entry in spec["commands"]}
    stdout = {}

    def wants_another(label):
        done = calls[label]
        return not done or (tracer is None and len(done) < MAX_CALLS
                            and sum(s for s, _ in done) < MIN_COMMAND_S)

    while True:
        pending = [entry for entry in spec["commands"] if wants_another(entry["label"])]
        if not pending:
            break
        for entry in pending:
            out = io.StringIO()
            block = tracer.span(f"cli.{entry['argv'][0]}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), block:
                try:
                    code = cli.main(entry["argv"])
                except Exception as exc:  # an escaped error is an output mismatch, not a crash
                    code = f"{type(exc).__name__}: {exc}"
            calls[entry["label"]].append((time.perf_counter() - t0, code))
            stdout[entry["label"]] = out.getvalue()

    commands = []
    for label, samples in calls.items():
        codes = sorted({str(code) for _, code in samples})
        commands.append({"label": label,
                         "exit": samples[0][1] if len(codes) == 1 else f"varying exit {codes}",
                         "s": statistics.median(s for s, _ in samples),
                         "stdout": stdout[label]})

    result = {
        "setup_s": setup_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": sizes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        tracer.write(Path(spec["spans"]))
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    result = run(json.loads(Path(spec_path).read_text()))
    Path(result_path).write_text(json.dumps(result))
