"""Loading a scenario pauses Python's cyclic collector, and only that.

A JSON document makes no reference cycles, so reference counting frees all
that decoding and the shape checks build; a collection during the load
would only rescan a large document's new containers.  The pause must give
the caller back the collector as it found it, whether the load succeeds or
raises, and must leave nothing that only the collector could free.
"""

from __future__ import annotations

import gc
import json
import random
from pathlib import Path

import pytest

from rumorcast import parse_scenario, scenario_diagnostics
from rumorcast.errors import ParseError, RumorcastError, SchemaError

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_SHIPPED = [path.read_text(encoding="utf-8") for path in sorted(_SCENARIOS.glob("*.json"))]
_SCHEMA_ERROR = json.dumps({"evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1}, "topology": 3})
_PARSE_ERROR = "{"


def _large_tree(n: int = 50_000, arity: int = 4) -> str:
    """A complete ``arity``-ary tree of ``n`` agents with dirac-truth beliefs."""
    rnd = random.Random(7)
    agents = {
        str(k): {"types": round(rnd.uniform(0.12, 0.88), 6), "lambda": 1.0, "ell": 1}
        for k in range(1, n + 1)
    }
    return json.dumps(
        {
            "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
            "topology": {
                "kind": "tree",
                "root": "1",
                "edges": [[str((k - 2) // arity + 1), str(k)] for k in range(2, n + 1)],
            },
            "agents": agents,
            "beliefs": "dirac-truth",
        }
    )


@pytest.fixture
def collector():
    """Leave the collector as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _outcome(document: str) -> type[Exception] | None:
    try:
        parse_scenario(document)
    except RumorcastError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "document, raised",
    [(_SHIPPED[0], None), (_PARSE_ERROR, ParseError), (_SCHEMA_ERROR, SchemaError)],
    ids=["parsed", "parse-error", "schema-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_caller_gets_the_collector_back_as_it_was(collector, document, raised, enabled):
    (gc.enable if enabled else gc.disable)()
    assert _outcome(document) is raised
    assert gc.isenabled() is enabled
    scenario_diagnostics(document)
    assert gc.isenabled() is enabled


def test_loading_leaves_nothing_for_the_collector(collector):
    gc.disable()
    for document in [*_SHIPPED, _large_tree(), _SCHEMA_ERROR, _PARSE_ERROR]:
        gc.collect()
        _outcome(document)
        scenario_diagnostics(document)
        assert gc.collect() == 0
