"""Compare the outputs of two kooplab source trees byte for byte.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 0 1] [--size full]
        [--workloads NAME ...] [--demos NAME ...]

PARENT_SRC and CHANGE_SRC are directories that hold a `kooplab` package (a
checkout's `src/`). Each side runs the benchmark workloads' CLI pipelines,
whose configs and command lists come from `write_config` and `commands` in
benchmarks/run.py, and the `kooplab demo`s, at each seed. Every command runs
in a fresh `python -m kooplab` process with that side's sources on
PYTHONPATH and the benchmark's thread settings. The two sides write under
output roots whose paths have equal length (TMP/parent and TMP/change), in a
temporary directory that is removed at the end.

Every file a side writes, and every command's standard output, standard
error and exit code, is compared with the other side's after the output root
is replaced by a placeholder. Each difference is printed on one line. The
exit code is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.dont_write_bytecode = True  # leave no __pycache__ in benchmarks/

import run  # noqa: E402  (benchmarks/run.py: the workloads' configs and commands)

SIDES = ("parent", "change")  # equal lengths, so both output roots do too
PLACEHOLDER = b"<ROOT>"
COMMAND_TIMEOUT_S = 600.0


def _kooplab(src: Path, argv: list, cwd: Path) -> tuple:
    """(exit code, stdout, stderr) of `python -m kooplab argv` on the sources in src."""
    env = {**os.environ, "PYTHONPATH": str(src),
           **{var: run.THREADS for var in run.THREAD_ENV_VARS}}
    proc = subprocess.run([sys.executable, "-m", "kooplab", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def demo_names(src: Path) -> list:
    """The demo registry of the sources in src, in its order."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", "from kooplab.cli import DEMO_NAMES; "
                           "print('\\n'.join(DEMO_NAMES))"], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def run_side(src: Path, root: Path, workloads, demos, seeds, size: str) -> dict:
    """Run every command of one side under root; returns {command key: (exit, out, err)}."""
    root.mkdir(parents=True)
    log = {}
    for seed in seeds:
        for workload in workloads:
            run_dir = root / f"{workload}-seed{seed}"
            run_dir.mkdir()
            config_path, config = run.write_config(workload, seed, size, run_dir)
            for label, argv in run.commands(workload, config_path, config, run_dir):
                log[f"{run_dir.name} {label}"] = _kooplab(src, argv, root)
        for name in demos:
            run_dir = root / f"demo-{name}-seed{seed}"
            argv = ["demo", name, "--out", str(run_dir), "--seed", str(seed)]
            log[f"{run_dir.name} demo"] = _kooplab(src, argv, root)
    return log


def _normalized(data: bytes, root: Path) -> bytes:
    return data.replace(str(root).encode(), PLACEHOLDER)


def _files(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): _normalized(path.read_bytes(), root)
            for path in sorted(root.rglob("*")) if path.is_file()}


def differences(roots: dict, logs: dict) -> list:
    """One line per file, stream or exit code that differs between the two sides."""
    parent, change = SIDES
    out = []
    files = {side: _files(roots[side]) for side in SIDES}
    for name in sorted(files[parent].keys() | files[change].keys()):
        if name not in files[change]:
            out.append(f"only in {parent}: {name}")
        elif name not in files[parent]:
            out.append(f"only in {change}: {name}")
        elif files[parent][name] != files[change][name]:
            out.append(f"file differs: {name}")
    for key in logs[parent]:
        (code_p, *streams_p), (code_c, *streams_c) = logs[parent][key], logs[change][key]
        if code_p != code_c:
            out.append(f"exit code differs: {key} ({code_p} vs {code_c})")
        for stream, got_p, got_c in zip(("stdout", "stderr"), streams_p, streams_c):
            if _normalized(got_p, roots[parent]) != _normalized(got_c, roots[change]):
                out.append(f"{stream} differs: {key}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="source directory of the parent")
    parser.add_argument("change_src", type=Path, help="source directory of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workloads", nargs="*", choices=sorted(run.WORKLOADS),
                        default=list(run.WORKLOADS))
    parser.add_argument("--demos", nargs="*", default=None,
                        help="demo names (default: every demo of either side)")
    args = parser.parse_args(argv)
    srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for side, src in srcs.items():
        if not (src / "kooplab" / "cli.py").is_file():
            parser.error(f"no kooplab sources under {side} directory {src}")
    demos = args.demos
    if demos is None:
        names = demo_names(srcs["change"]) + demo_names(srcs["parent"])
        demos = list(dict.fromkeys(names))

    with tempfile.TemporaryDirectory(prefix="compare-") as work:
        roots = {side: Path(work) / side for side in SIDES}
        logs = {side: run_side(srcs[side], roots[side], args.workloads, demos, args.seeds,
                               args.size) for side in SIDES}
        found = differences(roots, logs)
        n_files = sum(1 for path in roots["parent"].rglob("*") if path.is_file())
    for line in found:
        print(line)
    print(f"compared {n_files} files and {len(logs['parent'])} commands "
          f"({len(args.workloads)} workloads, {len(demos)} demos, seeds "
          f"{' '.join(map(str, args.seeds))}): {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
