"""The package's export list names exactly what ``__init__.py`` imports.

A class renamed or removed in a module must leave no stale name in
``rumorcast.__all__``, and a name imported for export must be listed there.
The list is kept sorted, so a new name has one place to go.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rumorcast

INIT = Path(rumorcast.__file__)


def _imported_names() -> set[str]:
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_is_sorted_without_duplicates():
    names = rumorcast.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    assert names == sorted(names)


def test_all_lists_exactly_the_imported_names():
    names, imported = set(rumorcast.__all__), _imported_names()
    assert names - imported == set(), "exported but not imported"
    assert imported - names == set(), "imported but not exported"
    assert all(hasattr(rumorcast, name) for name in names)
