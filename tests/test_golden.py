"""Golden reports: every command on every shipped scenario, byte for byte.

Each case runs one CLI command in process and compares its stdout, stderr
and exit code with the files under ``tests/golden/``.  The reports are the
CLI's contract, so a change that moves a single byte of them fails here.

To rewrite the golden files after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from rumorcast.cli import main

_REPO = Path(__file__).resolve().parent.parent
_GOLDEN = Path(__file__).resolve().parent / "golden"
_SCENARIOS = ("canonical_cascade", "three_cliques", "worldview_gap_pair")
_GRAPHS = ("three_cliques",)
_FORMATS = ("table", "csv", "json-lines")
_COMMANDS = {
    "solve": ["solve"],
    "sweep-lambda": ["sweep-lambda", "--agent", "all", "--lambdas", "0.2,1,3"],
    "sweep-lambda-one": ["sweep-lambda", "--agent", "2", "--lambdas", "0.2,1,3"],
    "sweep-root": ["sweep-root"],
    "validate": ["validate"],
    "normalize": ["normalize"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for stem in _SCENARIOS:
        for command, words in _COMMANDS.items():
            root = ["--root", "1"] if stem in _GRAPHS and command in ("solve", "sweep-lambda", "sweep-lambda-one") else []
            for fmt in _FORMATS:
                argv = [*words, f"scenarios/{stem}.json", *root, "--format", fmt]
                cases[f"{stem}.{command}.{fmt}"] = argv
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[bytes, bytes, int]:
    argv = [str(_REPO / a) if a.startswith("scenarios/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), code


def _expected() -> dict[str, dict]:
    return json.loads((_GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    case = _expected()[name]
    assert case["argv"] == CASES[name]
    stdout, stderr, code = _run(CASES[name])
    assert code == case["exit"]
    assert stderr == (_GOLDEN / f"{name}.err").read_bytes()
    assert stdout == (_GOLDEN / f"{name}.out").read_bytes()


def _write() -> None:
    index = {}
    for name, argv in sorted(CASES.items()):
        stdout, stderr, code = _run(argv)
        (_GOLDEN / f"{name}.out").write_bytes(stdout)
        (_GOLDEN / f"{name}.err").write_bytes(stderr)
        index[name] = {"argv": argv, "exit": code}
    (_GOLDEN / "cases.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write()
