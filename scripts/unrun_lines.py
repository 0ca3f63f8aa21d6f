#!/usr/bin/env python3
"""Lines of the tward package that a pytest run never executes.

Runs pytest in this process, with its arguments passed through unchanged,
under a line tracer on every thread (``sys.settrace`` and
``threading.settrace``) that records only the files of ``src/tward``.  Then
prints ``path:line`` for every line of a function or class body (the lines
of the modules' nested code objects, read with ``co_lines``) that never ran.
It exits with pytest's exit code when that is not 0, else with 1 if it
listed a line and 0 if not, so that "no unrun line" is its exit status
alone.  Module-level lines are not listed, as they all run on import.  Code
run in a worker process is not traced, so a line that only such a worker
runs is listed.

    python3 scripts/unrun_lines.py -q tests
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "tward"


def body_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of every code object nested in the module."""
    stack = list(compile(path.read_text(), str(path), "exec").co_consts)
    lines = set()
    while stack:
        code = stack.pop()
        if hasattr(code, "co_lines"):
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack.extend(code.co_consts)
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    ran: dict[str, set[int]] = {}  # resolved path -> lines that ran
    watched: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, or None

    def local(frame, event, arg):
        if event == "line":
            watched[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            lines = watched[name]
        except KeyError:
            path = Path(name).resolve()
            lines = watched[name] = ran.setdefault(str(path), set()) if path.parent == PKG else None
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the def line on a call, the yield line when a generator resumes
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PKG.glob("*.py"))
        for line in sorted(body_lines(path) - ran.get(str(path), set()))
    ]
    for line in unrun:
        print(line)
    return int(code) or int(bool(unrun))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
