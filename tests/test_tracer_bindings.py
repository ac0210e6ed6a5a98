"""Every call-site binding the bench tracer wraps must exist.

``bench/tracer.py`` replaces bindings such as ``rumorcast.network:solve_chatroom``
by name, so deleting an import it names would crash ``bench/run.py --trace 1``.
This test makes that a test failure instead.  Conversely, an import marked
as kept only for the tracer must be one it wraps, and read nowhere else in
its module.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
BINDINGS = [b for _, bindings, _ in tracer.SPANS for b in bindings]
BINDINGS += [b for _, bindings in tracer.LEAVES for b in bindings]


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    owner, attr = tracer._resolve(binding)
    assert attr in owner.__dict__, f"{binding} names no binding the tracer could wrap"


_SRC = Path(__file__).resolve().parent.parent / "src" / "rumorcast"
_MARKER = "# unused here; bench/tracer.py wraps this binding by name"
MARKED = [
    (path.stem, line.split("#")[0].split()[-1].rstrip(","))
    for path in sorted(_SRC.glob("*.py"))
    for line in path.read_text(encoding="utf-8").splitlines()
    if line.rstrip().endswith(_MARKER)
]


def test_every_marker_is_found():
    assert len(MARKED) == 7, MARKED


@pytest.mark.parametrize("module, name", MARKED)
def test_a_marked_import_is_wrapped_and_unused(module, name):
    # the converse of test_binding_resolves: an import kept only for the
    # tracer is one it wraps, and nothing else in its module reads it
    assert f"rumorcast.{module}:{name}" in BINDINGS
    tree = ast.parse((_SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported.count(name) == 1
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
