"""The json-lines writer against ``json.dumps``, byte for byte.

``cli._json_lines`` writes each report row from its values instead of
calling ``json.dumps(row, sort_keys=True)``.  Random rows must come out the
same either way: strings with quotes, backslashes, control characters,
non-ASCII text and lone surrogates; ints, floats and bools; None; runs of
rows that share their keys (in any insertion order) and runs that do not.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.cli import _json_lines

_ODD_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "日", " ", "\ud800", "\udfff", "%", "\U0001f600"]
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
]


@st.composite
def _rows(draw) -> list[dict]:
    layouts = draw(st.lists(st.lists(_TEXT, max_size=5, unique=True), min_size=1, max_size=3))
    kinds = {key: draw(st.sampled_from(_COLUMNS)) for layout in layouts for key in layout}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        keys = draw(st.permutations(draw(st.sampled_from(layouts))))
        rows.append({key: draw(kinds[key]) for key in keys})
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_rows())
def test_rows_come_out_as_json_dumps_writes_them(rows):
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert _json_lines(rows) == expected


def test_report_columns():
    rows = [
        {"kind": "agent", "agent": "1", "reached": True, "reaction": None, "send": "send"},
        {"kind": "agent", "agent": "²", "reached": False, "reaction": None, "send": None},
        {"kind": "summary", "exists": True, "unique": False, "reach_count": 1, "multiple_rooms": None},
    ]
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert _json_lines(rows) == expected
