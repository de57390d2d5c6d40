#!/usr/bin/env python3
"""Lines of the pronydec package that a pytest run never executes.

Runs pytest in this process with the given arguments, records every line run
in a frame whose file lies in src/pronydec (through sys.settrace and
threading.settrace), and compares them with the executable lines of each
module, taken from its compiled code objects' co_lines().  Prints the
never-run lines per file and their total.  Uses the standard library only.
Code run in worker processes (a sweep with workers > 1) is not traced.

Usage:
  python scripts/line_reach.py [pytest arguments ...]
  python scripts/line_reach.py tests -k "not criterion_6"
"""

import pathlib
import sys
import threading
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pronydec"
sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package, not an installed one


def executable_lines(path: pathlib.Path) -> set:
    """Line numbers that carry bytecode in the module or any nested code object."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's own entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(PACKAGE.parents[1])}: {len(missed)} never run: "
                  f"{', '.join(map(str, missed))}")
    print(f"never-run lines: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
