"""The report writer against the row-at-a-time code it replaced, byte for byte.

``cli._render`` writes a report from blocks of columns.  Random blocks must
come out as the rows they hold would: in json-lines as
``json.dumps(row, sort_keys=True)`` writes each row, and in table and csv
as ``_ref_render`` below (the row-based writer, kept as it was) writes
them.  The values are strings with quotes, backslashes, control characters,
non-ASCII text and lone surrogates; ints, floats and bools; None.  Blocks
differ in their keys, some blocks lack a column the report lists, and some
columns hold one kind of value only, or one value.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.cli import _render

# ---------------------------------------------------------------------------
# the replaced code


def _ref_cell(value: Any, fmt: str) -> str:
    if value is None:
        return "-" if fmt == "table" else ""
    if isinstance(value, bool):
        return ("yes" if value else "no") if fmt == "table" else ("true" if value else "false")
    return str(value)


def _ref_render(rows: list[dict[str, Any]], columns: list[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_ref_cell(row.get(c), fmt) for c in columns])
        return buf.getvalue()
    cells = [[_ref_cell(row.get(c), fmt) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "".join(line + "\n" for line in lines)


def _rows(blocks: list[dict[str, list[Any]]]) -> list[dict[str, Any]]:
    return [dict(zip(block, values)) for block in blocks for values in zip(*block.values())]


# ---------------------------------------------------------------------------
# random blocks

_ODD_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "日", " ", "\ud800", "\udfff", "%", "\U0001f600", ",", "\r", "\t"]
_TEXT = st.one_of(
    st.text(st.sampled_from(_ODD_CHARS), max_size=6),
    st.text(max_size=6),
)
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([0.1 + 0.2, 1e-7, 5e-324, -0.0, 0.0, 1e16, 1.5, float("nan"), float("inf"), -float("inf")]),
)
_VALUES = st.one_of(_TEXT, _NUMBERS, st.booleans(), st.none())
# each column draws from one of these, so some columns hold one kind only
_COLUMNS = [
    _VALUES,
    _TEXT,
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), _TEXT),
    st.one_of(st.booleans(), st.sampled_from([0, 1, 0.0, 1.0])),
    st.sampled_from(["agent", "summary", "-", ""]),
]


@st.composite
def _blocks(draw) -> tuple[list[dict[str, list[Any]]], list[str]]:
    """Blocks, and the columns of a report that lists them: every key of
    every block, in any order, and perhaps a key no block holds."""
    layouts = draw(st.lists(st.lists(_TEXT, min_size=1, max_size=5, unique=True), min_size=1, max_size=3))
    kinds = {key: draw(st.sampled_from(_COLUMNS)) for layout in layouts for key in layout}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.permutations(draw(st.sampled_from(layouts))))
        length = draw(st.integers(0, 6))
        blocks.append({key: [draw(kinds[key]) for _ in range(length)] for key in keys})
    columns = draw(st.permutations(list(kinds)))
    if draw(st.booleans()):
        columns.append(draw(_TEXT.filter(lambda key: key not in kinds)))
    return blocks, columns


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=_blocks())
def test_rows_come_out_as_json_dumps_writes_them(drawn):
    blocks, columns = drawn
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in _rows(blocks))
    assert _render(blocks, columns, "json-lines") == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=_blocks())
@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_come_out_as_the_row_writer_wrote_them(fmt, drawn):
    blocks, columns = drawn
    assert _render(blocks, columns, fmt) == _ref_render(_rows(blocks), columns, fmt)


def test_report_columns():
    blocks = [
        {
            "kind": ["agent", "agent"],
            "agent": ["1", "²"],
            "reached": [True, False],
            "reaction": [None, None],
            "send": ["send", None],
        },
        {"kind": ["summary"], "exists": [True], "unique": [False], "reach_count": [1], "multiple_rooms": [None]},
    ]
    columns = ["kind", "agent", "reached", "reaction", "send", "exists", "unique", "reach_count", "multiple_rooms"]
    rows = _rows(blocks)
    assert _render(blocks, columns, "json-lines") == "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in rows
    )
    for fmt in ("table", "csv"):
        assert _render(blocks, columns, fmt) == _ref_render(rows, columns, fmt)
