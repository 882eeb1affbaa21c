"""Lines of src/kooplab that a pytest run leaves unexecuted, with the standard library only.

    PYTHONPATH=src python3 tools/linecov.py [PYTEST ARGS]

Every argument goes to pytest; the tool has no option of its own. It traces
the files under src/kooplab with `sys.settrace`, and `threading.settrace` for
threads the tests start, around one `pytest.main` call. A line is executable
when the line table of a code object compiled from its file lists it. The
tool then prints, per module, the executable lines that no test ran, and a
total, and exits with pytest's exit code. Processes the tests start (the CLI
tests' `python -m kooplab`) are not traced, so their lines count only when a
test also runs them in process. PYTHONPATH=src is still needed, because those
subprocesses import the package from it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kooplab"


def executable_lines(path: Path) -> set:
    """The line numbers in the line tables of every code object compiled from path."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as comma-separated runs, such as "3, 7-9"."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    executable = {str(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in executable}
    keys = {}  # co_filename -> its key in ran, or None for a file outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[keys[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keys:
            path = os.path.realpath(name)
            keys[name] = path if path in ran else None
        return trace_lines if keys[name] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, lines in executable.items():
        unrun = lines - ran[name]
        total, missed = total + len(lines), missed + len(unrun)
        print(f"{Path(name).relative_to(PACKAGE.parents[1])}: {len(unrun)} of {len(lines)} "
              f"lines not run" + (f": {spans(unrun)}" if unrun else ""))
    print(f"linecov: {missed} of {total} executable lines in src/kooplab not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
