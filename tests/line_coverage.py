"""List every statement in ``src/`` that no test executes.

Runs the test suite in this process under a line tracer (``sys.settrace``,
standard library only) and prints, per module, each statement none of whose
lines ran, as ``path:line: source``.  A statement counts as run when any of
its own lines (a multi-line call, the header of an ``if``) raised a line
event; docstrings and other statements that compile to no code are not
listed.  Commands the tests start in a subprocess are not traced.

    PYTHONPATH=src python3 tests/line_coverage.py [pytest arguments]

Tracing makes the suite about three times slower: the whole of it took
about four minutes on a 2-vCPU Xeon.  pytest does not collect this file,
as its name does not start with ``test_``.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class LineTrace:
    """Trace functions for ``sys.settrace`` that record every line run in
    code from ``src/``."""

    def __init__(self) -> None:
        self.executed: dict[str, set[int]] = defaultdict(set)  # code file name, as compiled -> lines run
        self._traced: dict[str, bool] = {}  # code file name -> whether it is in src/

    def local(self, frame, event, arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self.local

    def enter(self, frame, event, arg):
        name = frame.f_code.co_filename
        traced = self._traced.get(name)
        if traced is None:
            traced = self._traced[name] = os.path.abspath(name).startswith(str(SRC) + os.sep)
        return self.local if traced else None

    def ran(self) -> dict[str, set[int]]:
        """Lines run, by absolute path."""
        out: dict[str, set[int]] = defaultdict(set)
        for name, lines in self.executed.items():
            out[os.path.abspath(name)] |= lines
        return out


def _code_lines(code: CodeType) -> set[int]:
    """Every line that some instruction of ``code`` or its nested code has."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST) -> list[ast.stmt]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.stmt)]


def unexecuted(path: Path, ran: set[int]) -> list[int]:
    """First lines of the statements in ``path`` none of whose lines ran."""
    source = path.read_text(encoding="utf-8")
    lines = _code_lines(compile(source, str(path), "exec"))
    statements = _statements(ast.parse(source))
    # each line with code belongs to the innermost statement spanning it
    owner: dict[int, ast.stmt] = {}
    for stmt in sorted(statements, key=lambda s: (s.lineno, -(s.end_lineno or s.lineno))):
        for line in range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1):
            if line in lines:
                owner[line] = stmt
    own: dict[ast.stmt, set[int]] = defaultdict(set)
    for line, stmt in owner.items():
        own[stmt].add(line)
    return sorted(stmt.lineno for stmt, mine in own.items() if not mine & ran)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    trace = LineTrace()
    threading.settrace(trace.enter)
    sys.settrace(trace.enter)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    ran = trace.ran()
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        missed = unexecuted(path, ran[str(path)])
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} statements in src/ not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
