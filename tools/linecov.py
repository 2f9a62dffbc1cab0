"""The statement lines of ``src/mar`` that no test executes.

Run from the root of a checkout::

    python3 tools/linecov.py [PYTEST_ARGS ...]

It runs ``pytest`` (with ``PYTEST_ARGS``, default ``-q``) in this process
under ``sys.settrace``, records the lines executed in the files of
``src/mar``, and prints, per module, the statement lines that no test
executed. Statement lines are the lines the module's compiled code, nested
functions and comprehensions included, attributes instructions to, so blank
lines, comments and docstrings never count. A statement whose first line
carries ``# pragma: no cover`` is left out with its body. Code that runs only
in a subprocess a test starts (``python -m mar.cli``) counts as unexecuted.

Tracing makes the suite several times slower, so the one timing assertion in
the suite fails under it. Deselect that test::

    python3 tools/linecov.py -q --deselect \\
        tests/test_network.py::TestPathTable::test_six_by_six_grid_fails_fast

Only the standard library and pytest are needed. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mar"


def statement_lines(path: Path) -> set[int]:
    """Lines that some instruction of the module's code belongs to, less the
    statements marked ``# pragma: no cover``."""
    text = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    source = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt) and "pragma: no cover" in source[node.lineno - 1]:
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event in ("line", "call"):
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in executed:
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_missing = 0
    for name, path in files.items():
        statements = statement_lines(path)
        missing = sorted(statements - executed[name])
        total_missing += len(missing)
        print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(statements)} "
              f"statement lines unexecuted" + (f": {ranges(missing)}" if missing else ""))
    print(f"total: {total_missing} statement lines unexecuted")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
