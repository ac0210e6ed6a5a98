"""End-to-end command runs: exit codes, report shapes, determinism."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from rumorcast.cli import main

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CANONICAL = str(_SCENARIOS / "canonical_cascade.json")
GAP_PAIR = str(_SCENARIOS / "worldview_gap_pair.json")
CLIQUES = str(_SCENARIOS / "three_cliques.json")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def jl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def write(tmp_path, obj) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


GATE_FLIP = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"], ["1", "3"], ["2", "4"]]},
    "agents": {
        "1": {"types": 0.6, "lambda": 1.0, "ell": 1},
        "2": {"types": 0.14, "lambda": 1.0, "ell": 1},
        "3": {"types": 0.55, "lambda": 1.0, "ell": 1},
        "4": {"types": 0.105, "lambda": 1.0, "ell": 1},
    },
    "beliefs": "dirac-truth",
}

EXAMPLE_REGIMES = {
    "evidence": {"mu_given_c": 0.95, "mu_given_not_c": 0.05},
    "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"]]},
    "agents": {
        "1": {"types": 0.88, "lambda": 1.0, "ell": 1},
        "2": {"types": 0.1, "lambda": 1.0, "ell": 1},
    },
    "beliefs": "dirac-truth",
}

NO_EQUILIBRIUM = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"]]},
    "agents": {
        "1": {"types": 0.5, "lambda": 1.0, "ell": 1},
        "2": {"types": [0.2, 0.85], "lambda": 0.0, "ell": 1},
    },
    "beliefs": {
        "default": "none",
        "agents": {
            "1": {"sender": {"dirac": [0.2]}},
            "2": {"receiver": {"dirac": [0.5]}},
        },
    },
}


class TestSolve:
    def test_canonical_cascade_report(self, capsys):
        code, out = run(capsys, "solve", CANONICAL, "--format", "json-lines")
        assert code == 0
        rows = jl(out)
        agents = {r["agent"]: r for r in rows if r["kind"] == "agent"}
        summary = rows[-1]
        assert summary == {
            "kind": "summary",
            "exists": True,
            "unique": True,
            "reach_count": 10,
            "multiple_rooms": None,
            "failing_room": None,
        }
        assert all(agents[a]["reached"] for a in agents)
        assert {a for a in agents if agents[a]["send"] == "send"} == {"1", "2", "3", "4"}
        assert {a for a in agents if agents[a]["reaction"] == "silence"} == {"2", "3", "4", "9", "10"}
        assert {a for a in agents if agents[a]["reaction"] == "disapprove"} == {"5", "6", "7", "8"}

    def test_gap_pair_root_sends(self, capsys):
        code, out = run(capsys, "solve", GAP_PAIR, "--format", "json-lines")
        assert code == 0
        rows = jl(out)
        root = next(r for r in rows if r.get("agent") == "1")
        assert root["send"] == "send"

    def test_no_equilibrium_exits_2(self, capsys, tmp_path):
        code, out = run(capsys, "solve", write(tmp_path, NO_EQUILIBRIUM), "--format", "json-lines")
        assert code == 2
        summary = jl(out)[-1]
        assert summary["exists"] is False
        assert summary["failing_room"] == "1"

    def test_graph_scenarios_need_a_root(self, capsys):
        code, _ = run(capsys, "solve", CLIQUES)
        assert code == 1
        code, out = run(capsys, "solve", CLIQUES, "--root", "2", "--format", "json-lines")
        assert code == 0
        assert jl(out)[-1]["reach_count"] == 4

    def test_tree_scenarios_reject_root_flag(self, capsys):
        code, _ = run(capsys, "solve", CANONICAL, "--root", "1")
        assert code == 1

    def test_input_errors_exit_1(self, capsys, tmp_path):
        code, _ = run(capsys, "solve", str(tmp_path / "nope.json"))
        assert code == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _ = run(capsys, "solve", str(bad))
        assert code == 1


class TestFlagErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", CANONICAL, "--bogus"),
            ("solve", CANONICAL, "--tolerance", "abc"),
            ("solve", CANONICAL, "--seed", "1"),
            ("sweep-lambda", CANONICAL, "--agent", "all", "--lambdas", "1", "--lambda-range", "0:1:1"),
            ("no-such-command", CANONICAL),
            (),
        ],
    )
    def test_bad_flags_exit_1_not_2(self, capsys, argv):
        # 2 is reserved for "no equilibrium"
        assert main(list(argv)) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["solve", "--help"]):
            assert main(argv) == 0
            assert "usage:" in capsys.readouterr().out


class TestSweepLambda:
    def test_reaction_regime_flip(self, capsys, tmp_path):
        path = write(tmp_path, EXAMPLE_REGIMES)
        code, out = run(
            capsys, "sweep-lambda", path, "--agent", "2", "--lambdas", "1,2",
            "--format", "json-lines",
        )
        assert code == 0
        rows = jl(out)
        assert [r["lambda"] for r in rows] == [1.0, 2.0]
        assert rows[0]["reactions"] == "2=silence"
        assert rows[1]["reactions"] == "2=approve"
        assert all(r["sends"] == "1=send" for r in rows)

    def test_rows_constant_above_lambda_star(self, capsys, tmp_path):
        path = write(tmp_path, EXAMPLE_REGIMES)
        code, out = run(
            capsys, "sweep-lambda", path, "--agent", "2", "--lambda-range", "2.5:4.5:0.5",
            "--format", "json-lines",
        )
        assert code == 0
        rows = jl(out)
        assert len(rows) == 5
        assert {r["reactions"] for r in rows} == {"2=approve"}

    def test_disapproval_gate_flip_extends_reach(self, capsys, tmp_path):
        path = write(tmp_path, GATE_FLIP)
        code, out = run(
            capsys, "sweep-lambda", path, "--agent", "2", "--lambdas", "0.2,1.0",
            "--format", "json-lines",
        )
        assert code == 0
        low, high = jl(out)
        assert low["reactions"] == "2=disapprove;3=silence"
        assert low["sends"] == "1=send;2=no-send"
        assert low["reach_count"] == 3
        assert high["reactions"] == "2=silence;3=silence;4=disapprove"
        assert high["sends"] == "1=send;2=send"
        assert high["reach_count"] == 4

    def test_unknown_agent_and_bad_range(self, capsys):
        code, _ = run(capsys, "sweep-lambda", CANONICAL, "--agent", "99", "--lambdas", "1")
        assert code == 1
        code, _ = run(capsys, "sweep-lambda", CANONICAL, "--agent", "1", "--lambda-range", "2:1:1")
        assert code == 1


class TestSweepRoot:
    def test_canonical_rooting_table(self, capsys):
        code, out = run(capsys, "sweep-root", CANONICAL, "--format", "json-lines")
        assert code == 0
        rows = jl(out)
        assert [r["root"] for r in rows] == [str(k) for k in range(1, 11)]
        counts = {r["root"]: r["reach_count"] for r in rows}
        assert counts == {"1": 10, "2": 1, "3": 1, "4": 10, "5": 1,
                          "6": 1, "7": 1, "8": 1, "9": 1, "10": 1}
        assert {r["root"] for r in rows if r["is_max"]} == {"1", "4"}
        balk = next(r for r in rows if r["root"] == "5")
        assert balk["no_send_at"] == "5"

    def test_graph_fixture_sweeps(self, capsys):
        code, out = run(capsys, "sweep-root", CLIQUES, "--format", "json-lines")
        assert code == 0
        rows = jl(out)
        assert [r["root"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert all(r["exists"] for r in rows)

    def test_explicit_beliefs_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, "sweep-root", write(tmp_path, NO_EQUILIBRIUM))
        assert code == 1


class TestValidate:
    def test_clean_file_exits_0(self, capsys):
        code, out = run(capsys, "validate", CLIQUES)
        assert code == 0
        assert "ok" in out

    def test_flat_evidence_flagged(self, capsys, tmp_path):
        obj = json.loads(json.dumps(GATE_FLIP))
        obj["evidence"] = {"mu_given_c": 0.5, "mu_given_not_c": 0.5}
        code, out = run(capsys, "validate", write(tmp_path, obj), "--format", "json-lines")
        assert code == 1
        assert [r["kind"] for r in jl(out)] == ["evidence-error"]

    def test_open_circle_witnessed(self, capsys, tmp_path):
        obj = {
            "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
            "topology": {
                "kind": "graph",
                "edges": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]],
            },
            "agents": {str(k): {"types": 0.3, "lambda": 1.0} for k in range(1, 6)},
            "beliefs": "dirac-truth",
        }
        code, out = run(capsys, "validate", write(tmp_path, obj), "--format", "json-lines")
        assert code == 1
        assert {r["kind"] for r in jl(out)} == {"open-circle"}


class TestOutputPlumbing:
    def test_csv_parses_and_matches_columns(self, capsys):
        code, out = run(capsys, "solve", CANONICAL, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["kind", "agent", "reached", "reaction", "send"]
        assert len(rows) == 12  # header, ten agents, summary
        assert rows[-1][0] == "summary"

    def test_reports_are_byte_deterministic(self, capsys, tmp_path):
        f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep-root", CANONICAL, "--format", "csv", "--out", f1]) == 0
        assert main(["sweep-root", CANONICAL, "--format", "csv", "--out", f2]) == 0
        capsys.readouterr()
        with open(f1, "rb") as a, open(f2, "rb") as b:
            assert a.read() == b.read()

    def test_out_flag_matches_stdout(self, capsys, tmp_path):
        target = str(tmp_path / "report.txt")
        code, out = run(capsys, "solve", CANONICAL)
        assert main(["solve", CANONICAL, "--out", target]) == 0
        capsys.readouterr()
        with open(target, encoding="utf-8") as fh:
            assert fh.read() == out
        assert code == 0

    def test_normalize_is_stable(self, capsys, tmp_path):
        code, once = run(capsys, "normalize", CANONICAL)
        assert code == 0
        path = tmp_path / "normalized.json"
        path.write_text(once, encoding="utf-8")
        code, twice = run(capsys, "normalize", str(path))
        assert code == 0
        assert twice == once
