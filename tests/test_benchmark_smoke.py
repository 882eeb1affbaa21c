"""Tier-1 smoke of the benchmark harness: runs at its smallest size.

The harness runs from a copy of benchmarks/, BENCHMARK.json and src/ in a
temporary directory, so its result files stay out of the checkout. No timing
is asserted, only that each run is correct and that the checker spans record.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_run_is_correct_and_times_the_checkers(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bilinear-fine-grid", "--seed", "1",
         "--seconds", "1", "--size", "smoke", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # a checker the tracer can no longer find by name would read 0 here
    assert result["metrics"]["consistency.DEF2.s"]["value"] > 0
    assert result["metrics"]["consistency.T5.s"]["value"] > 0


def test_untraced_duffing_rk4_smoke_run_is_correct(tmp_path):
    # its set-up reads the system, every dictionary role and the grid off the
    # config, and discretizes the system, as the full-size benchmark does
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "duffing-rk4", "--seed", "1",
         "--seconds", "1", "--size", "smoke", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
