"""Reports do not depend on the string hash seed.

Python salts string hashes per process, so anything that orders agents by
iterating a set can print different bytes from one run to the next.  Each
case here runs one CLI command in two fresh processes, under
``PYTHONHASHSEED=0`` and ``=5``, and requires the same stdout, stderr and
exit code.  Besides the shipped scenarios, a graph whose ids share natural
keys ("1", "01", "001") is run: only the file orders such ids.
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
@pytest.mark.parametrize("scenario", [*_SCENARIOS, "tied"])
def test_report_is_the_same_under_every_hash_seed(tmp_path, scenario, command):
    if scenario == "tied":
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(TIED), encoding="utf-8")
    else:
        path = _SCENARIOS[scenario]
    argv = [*_COMMANDS[command], str(path)]
    assert _run(argv, "0") == _run(argv, "5")
