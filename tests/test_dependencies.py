"""The package runs on the standard library alone.

numpy is a test and benchmark dependency only (the ``test`` extra in
``pyproject.toml``); these tests keep it, and any other third-party import,
out of ``src/rumorcast``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "rumorcast").glob("*.py"))


def test_cli_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rumorcast.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_absolute_import_is_stdlib():
    assert len(MODULES) >= 10
    outside = [
        f"{path.name}:{line}: {name}"
        for path in MODULES
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
