"""What a number is is decided once, in ``rumorcast.belief``.

``belief.is_number``, ``belief.is_int``, ``belief.NUMBER_TYPES`` and the
checks built on them are the package's one statement of which values count
as numbers.  This test keeps the test itself from being spelled out again
elsewhere: it scans the source of every module and fails on an
``isinstance(_, (int, float))`` or a ``{int, float}`` set outside
``belief.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rumorcast"
MODULES = sorted(SRC.glob("*.py"))
OWNER = "belief.py"


def _names(node: ast.AST) -> set[str]:
    elts = node.elts if isinstance(node, (ast.Tuple, ast.Set)) else []
    return {elt.id for elt in elts if isinstance(elt, ast.Name)}


def _number_tests(path: Path):
    """Lines of ``path`` that test for an int or a float by themselves."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if len(node.args) == 2 and {"int", "float"} <= _names(node.args[1]):
                yield node.lineno
        elif isinstance(node, ast.Set) and {"int", "float"} <= _names(node):
            yield node.lineno


def test_the_scan_finds_the_number_test_where_it_lives():
    # the owner spells out both forms, so a scan that finds nothing is broken
    assert len(list(_number_tests(SRC / OWNER))) >= 2


def test_no_module_but_belief_spells_out_the_number_test():
    assert len(MODULES) >= 10
    found = [f"{path.name}:{line}" for path in MODULES if path.name != OWNER for line in _number_tests(path)]
    assert found == []
