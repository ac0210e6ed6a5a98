"""End-to-end command runs: exit codes, report shapes, determinism."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import DEEP_OFF_BAND, UNREADABLE_DOCUMENTS
from rumorcast import cli
from rumorcast.cli import _lambda_values, main

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

# root 1 does not send, so agent 2's off-support receiver belief sits in an unreached room
OFF_SUPPORT_UNREACHED = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"]]},
    "agents": {
        "1": {"types": 0.3, "lambda": 1.0, "ell": 1},
        "2": {"types": 0.5, "lambda": 1.0, "ell": 1},
    },
    "beliefs": {"default": "dirac-truth", "agents": {"2": {"receiver": {"dirac": [0.8]}}}},
}

# room 1 has no equilibrium, and agent 3's receiver belief in room 2 is off-support
OFF_SUPPORT_BEHIND_FAILURE = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"], ["2", "3"]]},
    "agents": {
        "1": {"types": 0.5, "lambda": 1.0, "ell": 1},
        "2": {"types": [0.2, 0.85], "lambda": 0.0, "ell": 1},
        "3": {"types": 0.3, "lambda": 1.0, "ell": 1},
    },
    "beliefs": {
        "default": "none",
        "agents": {
            "1": {"sender": {"dirac": [0.2]}},
            "2": {"receiver": {"dirac": [0.5]}, "sender": {"dirac": [0.3]}},
            "3": {"receiver": {"dirac": [0.7]}},
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


class TestUnreadableDocuments:
    """A file that decodes to no JSON value is a parse error on every
    command, never an exception out of ``main``."""

    @pytest.mark.parametrize("name", sorted(UNREADABLE_DOCUMENTS))
    def test_every_command_reports_a_parse_error(self, capsys, tmp_path, name):
        path = tmp_path / "scenario.json"
        path.write_bytes(UNREADABLE_DOCUMENTS[name])
        code, out = run(capsys, "validate", str(path), "--format", "json-lines")
        assert code == 1
        [row] = jl(out)
        assert row["kind"] == "parse-error"
        for argv in (
            ["solve"],
            ["normalize"],
            ["sweep-root"],
            ["sweep-lambda", "--agent", "all", "--lambdas", "1"],
        ):
            assert main([argv[0], str(path), *argv[1:]]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {row['detail']}\n")

    def test_the_error_says_what_is_wrong(self, capsys, tmp_path):
        details = {}
        for name, document in UNREADABLE_DOCUMENTS.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(document)
            details[name] = run(capsys, "validate", str(path), "--format", "csv")[1]
        assert details == {
            "not-utf-8": "kind,detail\nparse-error,byte 13: not UTF-8 text (invalid continuation byte)\n",
            "nested-100000-deep": "kind,detail\nparse-error,arrays or objects nested too deeply\n",
            "integer-of-5000-digits": 'kind,detail\nparse-error,"an integer has more than 4,300 digits"\n',
        }


    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends_count_as_in_a_text_file(self, capsys, tmp_path, end):
        path = tmp_path / "scenario.json"
        path.write_bytes(end.join(["{", '  "name": "x",', "  ]"]).encode())
        code, out = run(capsys, "validate", str(path), "--format", "csv")
        assert (code, out) == (1, "kind,detail\nparse-error,line 3 column 3: Expecting property name enclosed in double quotes\n")


class TestMalformedBeliefs:
    """A malformed explicit belief fails ``solve`` at entry with ``validate``'s
    message, wherever it sits in the tree."""

    @pytest.mark.parametrize(
        "obj, agent",
        [(OFF_SUPPORT_UNREACHED, "2"), (OFF_SUPPORT_BEHIND_FAILURE, "3")],
        ids=["unreached-room", "behind-failing-room"],
    )
    def test_solve_fails_like_validate(self, capsys, tmp_path, obj, agent):
        path = write(tmp_path, obj)
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert code == 1
        [row] = jl(out)
        assert row["kind"] == "belief-error"
        assert row["detail"].startswith(f"receiver '{agent}': belief support point")
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {row['detail']}\n"


# 1 -> 2, 3 and 2 -> 4: agent 1's known-type belief over her receivers holds 0.05
OFF_BAND = {
    **GATE_FLIP,
    "agents": {
        "1": {"types": 0.85, "lambda": 1.0},
        "2": {"types": 0.5, "lambda": 1.0},
        "3": {"types": 0.05, "lambda": 1.0},
        "4": {"types": 0.95, "lambda": 1.0},
    },
}


class TestOffBandCredence:
    """An off-band credence that a send decision reads fails every solving
    command with the agent and the field ``validate`` names."""

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_solving_commands_say_what_validate_says(self, capsys, tmp_path, fmt):
        path = write(tmp_path, OFF_BAND)
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert code == 1
        detail = "agent '1': sender belief: credence 0.05 outside the open interval (0.1, 0.9)"
        assert jl(out)[0] == {"kind": "credence-error", "detail": detail}
        for argv in (["solve"], ["sweep-lambda", "--agent", "all", "--lambdas", "1"], ["sweep-root"]):
            assert main([argv[0], path, *argv[1:], "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {detail}\n")

    def test_sweep_names_what_the_first_root_reads_first(self, capsys, tmp_path, monkeypatch):
        # root 2's cascade decides breadth first, so agent 5 reads an off-band
        # credence before agent 6 does
        path = write(tmp_path, DEEP_OFF_BAND)
        assert main(["solve", path, "--root", "1"]) == 0
        capsys.readouterr()
        said = "error: agent '5': sender belief: credence 0.05 outside the open interval (0.1, 0.9)\n"
        assert main(["sweep-root", path]) == 1
        assert capsys.readouterr() == ("", said)
        # the sweep names it by itself, with no second engine to ask
        def called(*args):
            raise AssertionError("sweep-root ran reach_by_root")

        monkeypatch.setattr(cli, "reach_by_root", called)
        assert main(["sweep-root", path]) == 1
        assert capsys.readouterr() == ("", said)

    def test_a_narrowing_tolerance_is_named(self, capsys):
        # 0.26 lies inside (0.1, 0.9), but not inside the band narrowed by 0.2 at each end
        assert main(["solve", CANONICAL, "--tolerance", "0.2"]) == 1
        assert capsys.readouterr().err == (
            "error: agent '1': sender belief: credence 0.26 outside the open interval (0.1, 0.9)"
            " narrowed by the tolerance 0.2 at each end\n"
        )


_SURROGATE = "\ud800"  # JSON writes it as an escape; it is no Unicode text


def _with_id(where: str, text: str) -> dict:
    """``GATE_FLIP`` with ``text`` as an agent id or a name, at ``where``."""
    obj = json.loads(json.dumps(GATE_FLIP))
    if where == "agent id":
        obj["agents"][text] = obj["agents"].pop("4")
        obj["topology"]["edges"][2][1] = text
    elif where == "edge end":
        obj["topology"]["edges"][2][1] = text
    elif where == "root":
        obj["topology"]["root"] = text
    elif where == "beliefs key":
        obj["beliefs"] = {"default": "dirac-truth", "agents": {text: {"receiver": {"dirac": [0.6, 0.55]}}}}
    else:
        obj["name"] = text
    return obj


class TestLoneSurrogates:
    """A lone surrogate in a file is refused, or never reaches a report:
    every command exits 0 or 1 with a report or one error line that can be
    written as UTF-8."""

    _COMMANDS = {
        "solve": [],
        "sweep-lambda": ["--agent", "all", "--lambdas", "1"],
        "sweep-root": [],
        "validate": [],
        "normalize": [],
    }

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("where", ["agent id", "edge end", "root", "beliefs key", "name"])
    def test_every_command_exits_cleanly(self, capsys, tmp_path, where, command, fmt):
        path, out = write(tmp_path, _with_id(where, _SURROGATE)), tmp_path / "report"
        code = main([command, path, *self._COMMANDS[command], "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        captured.err.encode("utf-8")
        if where == "name":  # a name is never printed but by normalize, which escapes it
            assert (code, captured.err) == (0, "")
            assert _SURROGATE not in out.read_text(encoding="utf-8")
        elif command == "validate":
            assert (code, captured.err) == (1, "")
            rows = out.read_text(encoding="utf-8").splitlines()
            assert len(rows) == (1 if fmt == "json-lines" else 2) and "schema-error" in rows[-1], rows
        else:
            assert code == 1
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
            assert not out.exists()

    @pytest.mark.parametrize(
        "where, command, said",
        [
            ("agent id", "solve", "error: agents: agent id '\\ud800' is not valid Unicode text\n"),
            ("beliefs key", "validate", "beliefs.agents.'\\ud800': unknown agent id"),
        ],
    )
    def test_reports_reach_a_strict_stdout(self, tmp_path, where, command, said):
        path = write(tmp_path, _with_id(where, _SURROGATE))
        env = {**os.environ, "PYTHONPATH": str(_SCENARIOS.parent / "src"), "PYTHONIOENCODING": "utf-8"}
        done = subprocess.run(
            [sys.executable, "-m", "rumorcast.cli", command, path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert said in done.stdout + done.stderr


_OVERLONG = "1" * (sys.get_int_max_str_digits() + 700)  # too many digits for int()


class TestOverlongDecimalIds:
    """A decimal id too long for ``int`` to read, which natural id order
    compares by value, is refused at the parser naming its field: every
    command exits 1 with one error line, and ``validate`` reports it."""

    _SAID = {
        "agent id": "agents: agent id has more than {:,} digits",
        "edge end": "topology.edges[2][1]: agent id has more than {:,} digits",
        "root": "topology.root: agent id has more than {:,} digits",
    }

    @pytest.mark.parametrize("command", list(TestLoneSurrogates._COMMANDS))
    @pytest.mark.parametrize("where", list(_SAID))
    def test_every_command_names_the_field(self, capsys, tmp_path, where, command):
        path, out = write(tmp_path, _with_id(where, _OVERLONG)), tmp_path / "report"
        code = main([command, path, *TestLoneSurrogates._COMMANDS[command], "--format", "json-lines", "--out", str(out)])
        said = self._SAID[where].format(sys.get_int_max_str_digits())
        captured = capsys.readouterr()
        assert code == 1
        if command == "validate":
            assert captured.err == ""
            assert jl(out.read_text(encoding="utf-8")) == [{"kind": "schema-error", "detail": said}]
        else:
            assert captured.err == f"error: {said}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["1" * sys.get_int_max_str_digits(), "x" + _OVERLONG], ids=["at the limit", "not decimal"]
    )
    def test_ids_int_reads_or_never_reads_are_kept(self, capsys, tmp_path, text):
        path = write(tmp_path, _with_id("agent id", text))
        for command, flags in TestLoneSurrogates._COMMANDS.items():
            assert main([command, path, *flags]) == 0, command
            out = capsys.readouterr().out
            assert out == "kind  detail\nok    no problems found\n" if command == "validate" else text in out, command


class TestNonObjectBeliefAgents:
    def test_validate_and_solve_report_the_field(self, capsys, tmp_path):
        path = write(tmp_path, {**EXAMPLE_REGIMES, "beliefs": {"default": "none", "agents": [1, 2]}})
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert code == 1
        assert jl(out) == [{"kind": "schema-error", "detail": "beliefs.agents: expected an object keyed by agent id"}]
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err == "error: beliefs.agents: expected an object keyed by agent id\n"


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


class TestToleranceFlag:
    @pytest.mark.parametrize("value", ["-5", "nan", "inf", "-inf", "-1e-12", "1e309", " -inf", "-1e-320"])
    @pytest.mark.parametrize("command", [("solve",), ("sweep-root",), ("sweep-lambda", "--agent", "all", "--lambdas", "1")])
    def test_rejected_naming_the_flag(self, capsys, command, value):
        argv = [command[0], CANONICAL, *command[1:], f"--tolerance={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            f"\nrumorcast {command[0]}: error: argument --tolerance: expected a finite number >= 0, got {value!r}\n"
        )

    def test_negative_value_as_separate_argument(self, capsys):
        assert main(["solve", CANONICAL, "--tolerance", "-5"]) == 1
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.0", "1e-9", "1e-6"])
    def test_finite_nonnegative_accepted(self, capsys, value):
        code, out = run(capsys, "solve", CANONICAL, "--tolerance", value, "--format", "json-lines")
        assert code == 0
        assert jl(out)[-1]["reach_count"] == 10

    def test_the_largest_float_reaches_the_command(self, capsys):
        # the flag takes it; the command then finds no credence inside the band it narrows
        assert main(["solve", CANONICAL, "--tolerance", "1.7976931348623157e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agent ") and "narrowed by the tolerance 1.7976931348623157e+308" in err


class TestNonFiniteInput:
    def test_nan_lambda_is_an_input_error_not_no_equilibrium(self, capsys, tmp_path):
        text = Path(CANONICAL).read_text(encoding="utf-8")
        path = tmp_path / "nan.json"
        path.write_text(
            text.replace('"2": {"types": 0.26, "lambda": 1.0', '"2": {"types": 0.26, "lambda": NaN'),
            encoding="utf-8",
        )
        assert main(["solve", str(path)]) == 1
        assert "agents.2.lambda: expected a finite number" in capsys.readouterr().err
        code, out = run(capsys, "validate", str(path), "--format", "json-lines")
        assert code == 1
        assert jl(out) == [{"kind": "schema-error", "detail": "agents.2.lambda: expected a finite number, got nan"}]


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
        # an unreadable or empty list of values names the flag it came from
        for flag, value in (("--lambdas", "abc"), ("--lambdas", ","), ("--lambda-range", "1:2")):
            assert main(["sweep-lambda", CANONICAL, "--agent", "1", f"{flag}={value}"]) == 1
            assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        # a sweep with an infinite end would never end
        for bad in ("0:inf:1", "-inf:1:0.5", "1:2:inf", "nan:1:1"):
            assert main(["sweep-lambda", CANONICAL, "--agent", "1", f"--lambda-range={bad}"]) == 1
            assert "--lambda-range" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0:1:1e-9", "0:1e308:1e-308", "0:0:1e-300"])
    def test_range_of_too_many_values_refused_before_listing(self, capsys, bad):
        started = time.perf_counter()
        assert main(["sweep-lambda", CANONICAL, "--agent", "1", f"--lambda-range={bad}"]) == 1
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == (
            "error: --lambda-range: more than 100,000 values; use a larger STEP\n"
        )

    def test_range_below_the_cap_lists_every_value(self):
        args = argparse.Namespace(lambdas=None, lambda_range="0:1:0.0001")
        values = _lambda_values(args)
        assert len(values) == 10_001
        assert values[0] == 0.0 and values[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("spec, count", [("1e20:1e20:1e-5", 1), ("1e15:1000000000000001:0.1", 9)])
    def test_range_lists_each_value_once(self, spec, count):
        # near 1e15 the spacing of floats is 0.125, so steps of 0.1 round onto each other
        values = _lambda_values(argparse.Namespace(lambdas=None, lambda_range=spec))
        assert len(values) == count
        assert values == sorted(set(values))
        assert values[0] == float(spec.split(":")[0])
        # a list is swept as written, repeats included
        assert _lambda_values(argparse.Namespace(lambdas="1,1,0.5", lambda_range=None)) == [1.0, 1.0, 0.5]

    def test_bad_sensitivity_names_its_flag(self, capsys):
        # a sensitivity must be finite and >= 0, and the error says which flag gave it
        lists = [
            ("nan", "nan"), ("inf", "inf"), ("1e400", "inf"), ("-1", "-1.0"), ("1,-0.5", "-0.5"),
            ("-inf,2", "-inf"), ("1e309", "inf"), (" -inf", "-inf"), ("-1e-320", "-1e-320"),
        ]
        for bad, shown in lists:
            assert main(["sweep-lambda", CANONICAL, "--agent", "all", f"--lambdas={bad}"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --lambdas: sensitivities must be finite and >= 0, got {shown}\n"
        for bad, shown in (("-1:1:0.5", "-1.0"), ("-0.5:-0.1:0.1", "-0.5"), ("-1e-320:1:0.5", "-1e-320")):
            assert main(["sweep-lambda", CANONICAL, "--agent", "1", f"--lambda-range={bad}"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --lambda-range: sensitivities must be finite and >= 0, got {shown}\n"
        # the edges of the range are taken
        code, out = run(
            capsys, "sweep-lambda", CANONICAL, "--agent", "all", "--lambdas=-0.0,0,1.7976931348623157e308",
            "--format", "json-lines",
        )
        assert code == 0
        assert [row["lambda"] for row in jl(out)] == [-0.0, 0.0, 1.7976931348623157e308]


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


    def test_off_band_credence_in_graph(self, capsys, tmp_path):
        # under the rooting at agent 1, she sends and her credence is evaluated;
        # under a rooting that makes her a child of her acquaintance 2, agent
        # 2's known-type sender belief reads it
        obj = json.loads(Path(CLIQUES).read_text(encoding="utf-8"))
        obj["agents"]["1"]["types"] = 0.97
        path = write(tmp_path, obj)
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert code == 1
        band = "credence 0.97 outside the open interval (0.1, 0.9)"
        rows = [
            {"kind": "credence-error", "detail": f"agent '1': types: {band}"},
            {"kind": "credence-error", "detail": f"agent '2': sender belief: {band}"},
        ]
        assert jl(out) == rows
        assert main(["sweep-root", path]) == 1
        assert capsys.readouterr().err in {f"error: {row['detail']}\n" for row in rows}

    def test_spread_types_in_a_dirac_truth_graph(self, capsys, tmp_path):
        # every rooting refuses known-type beliefs over a spread type set, so
        # validate does too, naming the first such agent in node order, and
        # every rooting command names her, whatever the root
        obj = json.loads(Path(CLIQUES).read_text(encoding="utf-8"))
        obj["agents"]["3"]["types"] = [0.3, 0.4]
        obj["agents"]["1"]["types"] = {"interval": [0.3, 0.4]}
        path = write(tmp_path, obj)
        message = "agent '1': known-type beliefs need singleton type sets"
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert (code, jl(out)) == (1, [{"kind": "belief-error", "detail": message}])
        rooted = [["solve", path, "--root", a] for a in ("1", "2", "3", "4", "5")]
        swept = ["sweep-lambda", path, "--root", "3", "--agent", "all", "--lambdas", "1"]
        for argv in [*rooted, swept, ["sweep-root", path]]:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n", argv


    @pytest.mark.parametrize("again", [["1", "01"], ["01", "1"]])
    def test_duplicate_edge_is_one_acquaintance_either_way(self, capsys, tmp_path, again):
        # "1" and "01" share a natural key; listing their edge twice, in
        # either orientation, is the same graph as listing it once
        obj = {
            "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
            "topology": {"kind": "graph", "edges": [["1", "01"], again, ["1", "2"]]},
            "agents": {a: {"types": 0.3, "lambda": 1.0} for a in ("1", "01", "2")},
            "beliefs": "dirac-truth",
        }
        path = write(tmp_path, obj)
        assert run(capsys, "validate", path) == (0, "kind  detail\nok    no problems found\n")
        code, out = run(capsys, "solve", path, "--root", "1", "--format", "json-lines")
        assert code == 0
        assert [r["agent"] for r in jl(out)[:-1]] == ["1", "01", "2"]
        obj["topology"]["edges"] = [["1", "01"], ["1", "2"]]
        assert run(capsys, "solve", write(tmp_path, obj), "--root", "1", "--format", "json-lines") == (0, out)


# graphs that generate no tree, each with its agents
_NO_TREE = {
    "five-cycle": ([["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]], "12345"),
    "disconnected": ([["1", "2"], ["3", "4"]], "1234"),
    "self-loop": ([["1", "2"], ["2", "3"], ["1", "3"], ["3", "3"]], "123"),
}


class TestGraphsThatGenerateNoTree:
    """Every command accepts and rejects the same graph files: a graph is
    rooted only when it is valid, and the check cannot be switched off."""

    @staticmethod
    def _path(tmp_path, name: str, **topology) -> str:
        edges, agents = _NO_TREE[name]
        return write(tmp_path, {
            "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
            "topology": {"kind": "graph", "edges": edges, **topology},
            "agents": {a: {"types": 0.5, "lambda": 1.0} for a in agents},
            "beliefs": "dirac-truth",
        })

    @staticmethod
    def _fails(capsys, *argv: str) -> str:
        assert main(list(argv)) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("name", sorted(_NO_TREE))
    def test_rooting_commands_fail_with_the_first_witness(self, capsys, tmp_path, name):
        path = self._path(tmp_path, name)
        code, out = run(capsys, "validate", path, "--format", "json-lines")
        assert code == 1
        first = jl(out)[0]
        assert first["kind"] == name.replace("five-cycle", "open-circle")
        want = f"error: graph cannot generate a tree: {first['kind']} {first['detail']}\n"
        assert self._fails(capsys, "solve", path, "--root", "1") == want
        assert self._fails(capsys, "sweep-root", path) == want
        assert self._fails(capsys, "sweep-lambda", path, "--root", "1", "--agent", "all", "--lambdas", "1") == want

    @pytest.mark.parametrize("name", sorted(_NO_TREE))
    def test_structure_check_cannot_be_switched_off(self, capsys, tmp_path, name):
        path = self._path(tmp_path, name, check_structure=False)
        schema = "topology.check_structure: graphs are always checked: expected true, got False"
        assert run(capsys, "validate", path) == (1, f"kind          detail\nschema-error  {schema}\n")
        for argv in (
            ["solve", path, "--root", "1"],
            ["sweep-root", path],
            ["sweep-lambda", path, "--root", "1", "--agent", "all", "--lambdas", "1"],
            ["normalize", path],
        ):
            assert self._fails(capsys, *argv) == f"error: {schema}\n"


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


class TestNaturalOrder:
    # "٣" (Arabic-Indic three) is a decimal digit and sorts as 3; "²" is a
    # digit but not a decimal one, so int() rejects it and it sorts as text
    IDS = ["1", "2", "٣", "10", "x", "²"]
    SCENARIO = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {
            "kind": "tree",
            "root": "1",
            "edges": [["1", "²"], ["1", "10"], ["1", "x"], ["1", "2"], ["2", "٣"]],
        },
        "agents": {a: {"types": 0.3, "lambda": 1.0, "ell": 1} for a in IDS},
        "beliefs": "dirac-truth",
    }

    def test_solve_lists_agents_in_natural_order(self, capsys, tmp_path):
        code, out = run(capsys, "solve", write(tmp_path, self.SCENARIO), "--format", "json-lines")
        assert code == 0
        assert [row["agent"] for row in jl(out) if row["kind"] == "agent"] == self.IDS

    def test_sweep_root_lists_roots_in_natural_order(self, capsys, tmp_path):
        code, out = run(capsys, "sweep-root", write(tmp_path, self.SCENARIO), "--format", "json-lines")
        assert code == 0
        assert [row["root"] for row in jl(out)] == self.IDS

    def test_normalize_lists_agents_in_natural_order(self, capsys, tmp_path):
        code, out = run(capsys, "normalize", write(tmp_path, self.SCENARIO))
        assert code == 0
        assert list(json.loads(out)["agents"]) == self.IDS
