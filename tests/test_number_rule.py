"""What a number is, and what range it may take, is written once.

``belief.is_number``, ``belief.is_int``, ``belief.NUMBER_TYPES`` and the
checks built on them are the package's one statement of which values count
as numbers.  This test keeps the test itself from being spelled out again
elsewhere: it scans the source of every module and fails on an
``isinstance(_, (int, float))`` or a ``{int, float}`` set outside
``belief.py``.

Each scalar range is likewise written once, by the module whose check owns
it, and read or asked for elsewhere: the unit range's bound ``1.0 + EPS``
and the open prior range's bound ``1.0 - tol`` only in ``belief.py``, and
``cli.py`` asks ``check_tol`` and ``check_sensitivity`` rather than comparing
a parsed tolerance or sensitivity itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1 and not isinstance(node.value, bool)


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0 and not isinstance(node.value, bool)


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _unit_bounds(tree: ast.AST):
    """Lines that write out the unit range's upper bound, ``1.0 + EPS``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _is_one(node.left) and _is_name(node.right, "EPS") or _is_name(node.left, "EPS") and _is_one(node.right):
                yield node.lineno


def _prior_bounds(tree: ast.AST):
    """Lines that write out the open prior range's upper bound, ``1.0 - tol``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if _is_one(node.left) and _is_name(node.right, "tol"):
                yield node.lineno


def _nonnegative_tests(tree: ast.AST):
    """Lines that test a value against the range that tolerances and
    sensitivities share: ``x >= 0`` or ``0 <= x``, a comparison with
    ``math.inf`` or ``FLOAT_MAX``, or a ``math.isfinite`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = zip(operands, node.ops, operands[1:])
            if any(
                _is_zero(a) and isinstance(op, ast.LtE) or isinstance(op, ast.GtE) and _is_zero(b)
                for a, op, b in pairs
            ) or any(_is_name(x, "FLOAT_MAX") or ast.unparse(x) == "math.inf" for x in operands):
                yield node.lineno
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "math.isfinite":
            yield node.lineno


def _found(scan, path: Path) -> list[str]:
    return [f"{path.name}:{line}" for line in scan(ast.parse(path.read_text(), filename=str(path)))]


def test_the_scans_find_each_range_where_it_lives():
    # a scan that finds nothing in the owner is broken
    assert _found(_unit_bounds, SRC / OWNER)  # check_unit's bounds
    assert _found(_prior_bounds, SRC / OWNER)  # is_prior
    assert _found(_nonnegative_tests, SRC / OWNER)  # check_tol


@pytest.mark.parametrize("scan", [_unit_bounds, _prior_bounds], ids=["unit", "open prior"])
def test_no_module_but_belief_writes_out_the_range(scan):
    assert [found for path in MODULES if path.name != OWNER for found in _found(scan, path)] == []


def test_the_cli_asks_the_checks_for_the_tolerance_and_sensitivity_ranges():
    assert _found(_nonnegative_tests, SRC / "cli.py") == []
