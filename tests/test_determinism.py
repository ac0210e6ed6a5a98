"""Reports do not depend on the string hash seed.

Python salts string hashes per process, so anything that orders agents by
iterating a set can print different bytes from one run to the next.  Each
case here runs one CLI command in two fresh processes, under
``PYTHONHASHSEED=0`` and ``=5``, and requires the same stdout, stderr and
exit code.  Besides the shipped scenarios, two graphs whose ids share
natural keys ("1", "01", "001") are run: only the file orders such ids.
The second is broken four ways, so ``validate`` lists a witness of every
kind, each found by scanning dicts and sets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_SCENARIOS = {
    stem: _REPO / "scenarios" / f"{stem}.json"
    for stem in ("canonical_cascade", "three_cliques", "worldview_gap_pair")
}
_COMMANDS = {
    "validate": ["validate"],
    "normalize": ["normalize"],
    "solve": ["solve", "--root", "2"],
    "sweep-root": ["sweep-root"],
}

# "1", "01" and "001" all share the neighbours 2 and 3: overlapping circles
# whose witnesses, like the normalized edges, list tied ids
TIED = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {
        "kind": "graph",
        "edges": [["1", "2"], ["01", "2"], ["1", "3"], ["01", "3"], ["001", "2"]],
    },
    "agents": {
        "1": {"types": 0.5, "lambda": 1.0},
        "01": {"types": 0.3, "lambda": 1.0},
        "2": {"types": 0.4, "lambda": 1.0},
        "3": {"types": 0.4, "lambda": 1.0},
        "001": {"types": 0.4, "lambda": 1.0},
    },
    "beliefs": "dirac-truth",
}

# TIED with a self-loop at "01", "4" and "04" apart from the rest and "004"
# alone: witnesses of all four kinds, every kind naming tied ids
TIED_BROKEN = {
    **TIED,
    "topology": {
        "kind": "graph",
        "edges": [*TIED["topology"]["edges"], ["01", "01"], ["04", "4"]],
    },
    "agents": {
        **TIED["agents"],
        "04": {"types": 0.4, "lambda": 1.0},
        "4": {"types": 0.4, "lambda": 1.0},
        "004": {"types": 0.4, "lambda": 1.0},
    },
}
_GRAPHS = {"tied": TIED, "tied-broken": TIED_BROKEN}


def _run(argv: list[str], hash_seed: str) -> tuple[str, str, int]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(_REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "rumorcast.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO,
        timeout=60,
    )
    return done.stdout, done.stderr, done.returncode


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("scenario", [*_SCENARIOS, *_GRAPHS])
def test_report_is_the_same_under_every_hash_seed(tmp_path, scenario, command):
    if scenario in _GRAPHS:
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(_GRAPHS[scenario]), encoding="utf-8")
    else:
        path = _SCENARIOS[scenario]
    argv = [*_COMMANDS[command], str(path)]
    report = _run(argv, "0")
    assert report == _run(argv, "5")
    if scenario == "tied-broken" and command == "validate":
        kinds = {line.split()[0] for line in report[0].splitlines()[1:]}
        assert kinds == {"self-loop", "disconnected", "overlapping-circles", "open-circle"}
