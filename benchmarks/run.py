"""kooplab benchmark: the CLI pipeline end to end, and its layers from a traced run.

    python3 benchmarks/run.py --workload duffing-rk4 --seed 1 --seconds 40 --trace 0

Each repetition is a fresh child process (`child.py`) with KOOPLAB_THREADS=1
set before numpy is imported. It times the set-up, then drives
`kooplab.cli.main` through the workload's commands one at a time. The run
repeats until `--seconds` have passed, checks every command's exit code and
outputs against the committed reference, and reports medians over the
repetitions. With `--trace 1` every other repetition runs with spans around
kooplab's public functions, and the run reports per-layer metrics from those
instead. The last line of standard output is one JSON object; a table of the
same metrics, a result file with provenance under benchmarks/out/, and (when
tracing) the spans file go beside it. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREADS = "1"
THREAD_ENV_VARS = ("KOOPLAB_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPETITIONS = 3       # untraced repetitions a timing median needs
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0       # start no repetition that would end past this

# -- workloads ------------------------------------------------------------------------

DUFFING = {"name": "duffing-forced", "params": {"delta": 0.3}}
DUFFING_DICTIONARIES = {
    "state": {"kind": "monomials", "dim": 2, "max_degree": 3, "include_constant": False},
    "input": {"kind": "identity", "dim": 1, "var_prefix": "u"},
    "cross": {"kind": "monomial-joint", "state_dim": 2, "input_dim": 1,
              "state_degree": 2, "input_degree": 1},
}

# name -> why, whether it runs compare, sizes (samples, grid points per axis), config
WORKLOADS = {
    "duffing-rk4": {
        "why": "RK4-discretized Duffing: check and compare time goes to the discretized "
               "system's evaluate (5 RK4 steps per call) and its tangents; fits are small",
        "compare": True,
        "sizes": {"full": (1500, 6), "smoke": (60, 3)},
        "config": lambda seed, n, points: {
            "system": DUFFING,
            "grid": {"points_per_axis": points},
            "dataset": {"n_samples": n, "seed": seed, "dt": 0.05, "kind": "discrete-pairs",
                        "control_kind": "uniform-random"},
            "dictionaries": DUFFING_DICTIONARIES,
            "formulations": ["affine", "separable", "joint"],
        },
    },
    "duffing-continuous": {
        "why": "continuous Duffing with many derivative samples: fit-heavy (per-row "
               "dictionary Jacobians, lstsq, dataset CSV I/O); no RK4 anywhere",
        "compare": False,  # compare rejects eigen models
        "sizes": {"full": (12000, 9), "smoke": (200, 3)},
        "config": lambda seed, n, points: {
            "system": DUFFING,
            "grid": {"points_per_axis": points},
            "dataset": {"n_samples": n, "seed": seed, "dt": 0.05,
                        "kind": "continuous-derivative", "control_kind": "prbs"},
            "dictionaries": DUFFING_DICTIONARIES,
            "formulations": ["affine", "separable", "joint", "eigen"],
        },
    },
    "bilinear-fine-grid": {
        "why": "exact bilinear map on a fine 1-D grid: no integration, so time goes to the "
               "checkers' per-point loops, dictionary Jacobians and report writing",
        "compare": True,
        "sizes": {"full": (2000, 60), "smoke": (100, 5)},
        "config": lambda seed, n, points: {
            "system": {"name": "bilinear-discrete", "params": {"alpha": 0.9, "beta": 0.1}},
            "grid": {"points_per_axis": points},
            "dataset": {"n_samples": n, "seed": seed, "control_kind": "uniform-random"},
            "dictionaries": {
                "state": {"kind": "monomials", "dim": 1, "max_degree": 3,
                          "include_constant": False},
                "input": {"kind": "monomials", "dim": 1, "max_degree": 1,
                          "include_constant": True, "var_prefix": "u"},
                "cross": {"kind": "monomial-joint", "state_dim": 1, "input_dim": 1,
                          "state_degree": 3, "input_degree": 1},
            },
            "formulations": ["joint", "bilinear"],
        },
    },
}

# name -> unit: the metrics of BENCHMARK.json, which every workload reports
END_TO_END = {"setup_s": "s", "check_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
# printed and kept in the result file only (README.md says why)
ALSO_REPORTED = {"simulate_s": "s", "fit_s": "s", "compare_s": "s"}


def write_config(workload: str, seed: int, size: str, work: Path) -> tuple[Path, dict]:
    spec = WORKLOADS[workload]
    n, points = spec["sizes"][size]
    config = {"schema_version": 1, **spec["config"](seed, n, points),
              "checks": ["all-applicable"], "out_dir": str(work)}
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path, config


def commands(workload: str, config_path: Path, config: dict, rep_dir: Path) -> list:
    """(label, argv) for each CLI call of one pipeline, in order."""
    cfg = str(config_path)
    out = [
        ("simulate", ["simulate", "--config", cfg, "--out", str(rep_dir)]),
        ("fit", ["fit", "--config", cfg, "--dataset", str(rep_dir / "dataset.csv"),
                 "--out", str(rep_dir)]),
    ]
    for variant in config["formulations"]:
        out.append((f"check:{variant}",
                    ["check", "--config", cfg, "--model", str(rep_dir / f"model-{variant}.json"),
                     "--out", str(rep_dir / f"check-{variant}")]))
    if WORKLOADS[workload]["compare"]:
        out.append(("compare", ["compare", "--config", cfg, "--out", str(rep_dir / "compare")]))
    return out


def output_dir(label: str, rep_dir: Path) -> Path:
    if label.startswith("check:"):
        return rep_dir / f"check-{label.split(':')[1]}"
    return rep_dir / "compare" if label == "compare" else rep_dir


# -- one repetition ----------------------------------------------------------------------


def run_child(workload, config_path, config, work: Path, index: int, traced: bool,
              spans_path: Path) -> dict:
    """Run one pipeline in a fresh process; returns its timings and output records."""
    rep_dir = work / f"rep{index}"
    cmds = commands(workload, config_path, config, rep_dir)
    spec = {"src": str(SRC), "config": str(config_path), "trace": traced, "run_id": index,
            "spans": str(spans_path),
            "commands": [{"label": label, "argv": argv} for label, argv in cmds]}
    spec_path, result_path = work / f"spec{index}.json", work / f"result{index}.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **{var: THREADS for var in THREAD_ENV_VARS}}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                           str(result_path)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - started
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"crashed": True, "error": "\n".join(tail), "wall_s": wall, "traced": traced,
                "labels": [label for label, _ in cmds]}
    result = json.loads(result_path.read_text())
    result.update(traced=traced, crashed=False, wall_s=wall, records={}, digests={})
    for entry in result["commands"]:
        label = entry["label"]
        out_dir = output_dir(label, rep_dir)
        result["records"][label] = reference.observe(label, entry.pop("exit"),
                                                     entry.pop("stdout"), out_dir)
        for name in ("reports.json", "comparison.csv"):
            if (out_dir / name).exists():
                result["digests"][f"{label}/{name}"] = hashlib.sha256(
                    (out_dir / name).read_bytes()).hexdigest()
    shutil.rmtree(rep_dir, ignore_errors=True)
    return result


def command_times(result: dict) -> dict:
    times = {"simulate_s": 0.0, "fit_s": 0.0, "check_s": 0.0, "compare_s": 0.0}
    for entry in result["commands"]:
        times[entry["label"].split(":")[0] + "_s"] += entry["s"]
    times["pipeline_s"] = sum(times.values())
    return times


def observe_once(workload: str, seed: int, size: str) -> dict:
    """Output records of one untraced pipeline (for building references)."""
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config_path, config = write_config(workload, seed, size, work)
        result = run_child(workload, config_path, config, work, 0, False, work / "spans")
        if result["crashed"]:
            raise SystemExit(f"pipeline crashed:\n{result['error']}")
        return result["records"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- provenance ----------------------------------------------------------------------


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kooplab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _l3_cache():
    index = Path("/sys/devices/system/cpu/cpu0/cache")
    for level in sorted(index.glob("index*")):
        try:
            if (level / "level").read_text().strip() == "3":
                return (level / "size").read_text().strip()
        except OSError:
            return None
    return None


def provenance(workload: str, size: str, sizes: dict, numpy_version) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "kooplab_threads": THREADS,
        "l3_cache": _l3_cache(),
        "workload": workload,
        "size": size,
        "workload_sizes": sizes,
    }


# -- aggregation ------------------------------------------------------------------------

# per-layer metrics measured in time; every other one is a count that must repeat
def _is_timing(name: str) -> bool:
    return name.endswith((".s", "self_s", "_share", "per_s", "overhead_ratio"))


def layer_summary(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics over the traced repetitions, and count disagreements."""
    problems = []
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if _is_timing(name):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = (
        statistics.median(command_times(r)["pipeline_s"] for r in traced)
        / statistics.median(command_times(r)["pipeline_s"] for r in untraced))
    return metrics, problems


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio", "per_evaluate")):
        return "ratio"
    return "count"


def repeat(args, work: Path, spans_path: Path) -> list:
    """Run repetitions until `--seconds` have passed and enough have finished."""
    config_path, config = write_config(args.workload, args.seed, args.size, work)
    results = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        try:
            results.append(run_child(args.workload, config_path, config, work, len(results),
                                     traced, spans_path))
        except subprocess.TimeoutExpired:
            labels = [label for label, _ in commands(args.workload, config_path, config, work)]
            results.append({"crashed": True, "error": f"timed out after {CHILD_TIMEOUT_S} s",
                            "traced": traced, "labels": labels, "wall_s": CHILD_TIMEOUT_S})
        if results[-1]["crashed"]:
            return results
        elapsed = time.perf_counter() - start
        n_untraced = sum(not r["traced"] for r in results)
        enough = (len(results) > n_untraced) if args.trace else n_untraced >= MIN_REPETITIONS
        # stop where the run ends closest to --seconds: start the next repetition
        # only if less than half of it would fall past the mark
        traced_next = bool(args.trace) and len(results) % 2 == 1
        same_kind = [r["wall_s"] for r in results if r["traced"] == traced_next]
        next_s = statistics.mean(same_kind or [results[-1]["wall_s"]])
        if enough and (elapsed + next_s / 2 >= args.seconds or elapsed + next_s > RUN_LIMIT_S):
            return results


def check_outputs(results: list, expected: dict, seed: int) -> tuple[int, int, list]:
    """(attempted, failed, problems): each command against the reference, and
    the repetitions of one seed against each other."""
    attempted = failed = 0
    problems = []
    pinned = expected["pinned"].get(str(seed), {})
    for i, r in enumerate(results):
        if r["crashed"]:
            attempted += len(r["labels"])
            failed += len(r["labels"])
            problems.append(f"repetition {i} crashed: {r['error']}")
            continue
        for label, record in r["records"].items():
            attempted += 1
            want = expected["commands"].get(label)
            bad = (reference.mismatches(record, want, expected["atol"], pinned.get(label))
                   if want else ["no reference entry"])
            if bad:
                failed += 1
                problems.extend(f"repetition {i} {label}: {p}" for p in bad)
    finished = [r for r in results if not r["crashed"]]
    if any(r["digests"] != finished[0]["digests"] for r in finished[1:]):
        problems.append("reports.json/comparison.csv differ between repetitions of one seed")
    return attempted, failed, problems


def end_to_end(untraced: list, with_compare: bool) -> dict:
    """{name: (median, unit, sample count)} over the untraced repetitions."""
    units = END_TO_END | ALSO_REPORTED
    samples = {name: [] for name in units}
    for r in untraced:
        for name, value in command_times(r).items():
            samples[name].append(value)
        samples["setup_s"].append(r["setup_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
    if not with_compare:
        del samples["compare_s"]
    return {name: (statistics.median(values), units[name], len(values))
            for name, values in samples.items() if values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's generator)")

    if not (SRC / "kooplab" / "cli.py").is_file():
        print(f"error: no kooplab sources under {SRC}", file=sys.stderr)
        return 2
    ref_path = reference.path_for(args.workload, args.size)
    if not ref_path.is_file():
        print(f"error: no reference outputs at {ref_path}", file=sys.stderr)
        return 2
    expected = json.loads(ref_path.read_text())

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    spans_path = OUT / f"{args.workload}-{args.size}-spans.tsv.gz"  # the latest traced run
    spans_path.unlink(missing_ok=True)
    try:
        results = repeat(args, work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = check_outputs(results, expected, args.seed)
    finished = [r for r in results if not r["crashed"]]
    untraced = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    metrics = end_to_end(untraced, WORKLOADS[args.workload]["compare"])
    metrics["failed_ops_ratio"] = (failed / attempted, "ratio", attempted)
    layers = {}
    if traced and untraced:
        layers, count_problems = layer_summary(traced, untraced)
        problems.extend(count_problems)
    correct = not problems and bool(untraced) and (bool(traced) or not args.trace)

    first = finished[0] if finished else {"sizes": None, "numpy": None}
    record = {
        "provenance": provenance(args.workload, args.size, first["sizes"], first["numpy"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "layers": layers,
        "digests": first.get("digests"),
        "repetitions": [{k: r.get(k) for k in ("traced", "setup_s", "peak_rss_mb", "wall_s")}
                        | ({} if r["crashed"] else command_times(r)) for r in results],
    }
    result_path = OUT / f"{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced repetitions, {failed}/{attempted} commands failed")
    for name, (value, unit, n) in metrics.items():
        basis = f"{failed} of {n}" if name == "failed_ops_ratio" else f"median of {n}"
        print(f"  {name:<18} {value:>12.6g} {unit:<6} ({basis})")
    for name, value in layers.items():
        print(f"  {name:<36} {value:>14.6g} {layer_unit(name)}")
    print(f"  result file {result_path.relative_to(ROOT)}"
          + (f", spans {spans_path.relative_to(ROOT)}" if traced else ""))

    if args.trace:
        reported = {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in layers.items()}
    else:
        reported = {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in END_TO_END.items() if name in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
