"""tools/compare_outputs.py at smoke size: one workload and one demo at one seed."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SMOKE = ["--size", "smoke", "--workloads", "bilinear-fine-grid", "--seeds", "0",
         "--demos", "discussion-gxfu"]


def compare(parent_src, change_src):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                           str(parent_src), str(change_src), *SMOKE],
                          capture_output=True, text=True, timeout=300)


def test_the_same_tree_on_both_sides_differs_nowhere():
    proc = compare(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith(": 0 differences")


def test_one_changed_word_in_a_demo_paragraph_is_named(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "kooplab" / "cli.py"
    text = cli.read_text()
    assert text.count("one might hope to") == 1
    cli.write_text(text.replace("one might hope to", "one might wish to"))
    proc = compare(ROOT / "src", src)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "file differs: demo-discussion-gxfu-seed0/interpretation.txt" in lines
    assert "stdout differs: demo-discussion-gxfu-seed0 demo" in lines
    # nothing of the workload differs
    assert not any("bilinear-fine-grid" in line for line in lines)
