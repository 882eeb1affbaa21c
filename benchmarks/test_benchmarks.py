"""Smoke tests of the benchmark harness at its smallest size.

    python3 -m pytest -q benchmarks/test_benchmarks.py

No timing is asserted: only that every workload runs, reports every metric
that BENCHMARK.json names, and passes its reference check.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_workloads_match_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_reference_check_catches_a_changed_residual():
    expected = json.loads(reference.path_for("duffing-rk4", "smoke").read_text())
    entry = expected["commands"]["check:joint"]
    observed = {"exact": dict(entry["exact"]),
                "values": {k: center for k, (center, _) in entry["values"].items()}}
    assert reference.mismatches(observed, entry, expected["atol"]) == []

    key = next(iter(observed["values"]))
    changed = copy.deepcopy(observed)
    changed["values"][key] *= 1.0 + 4.0 * entry["values"][key][1]
    assert reference.mismatches(changed, entry, expected["atol"])
    pinned = expected["pinned"][str(expected["seeds"][0])]["check:joint"]
    nudged = {"exact": observed["exact"], "values": {k: v * (1 + 1e-6) for k, v in pinned.items()}}
    assert reference.mismatches(nudged, entry, expected["atol"], pinned)

    flipped = copy.deepcopy(observed)
    flipped["exact"]["exit"] = 0
    assert reference.mismatches(flipped, entry, expected["atol"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "duffing-rk4", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
