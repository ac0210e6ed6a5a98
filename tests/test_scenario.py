"""Scenario file parsing, diagnostics, and canonical re-emission."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rumorcast import (
    DIRAC_TRUTH,
    AgentProfile,
    ParseError,
    RangeViolation,
    SchemaError,
    TypeSet,
    normalize_scenario,
    parse_scenario,
    scenario_diagnostics,
    scenario_to_obj,
    solve_global,
)
from rumorcast.network import AgentTable
from rumorcast.cli import main

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_SRC = Path(__file__).resolve().parent.parent / "src"
CANONICAL_PATH = str(_SCENARIOS / "canonical_cascade.json")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _minimal(**patches) -> str:
    obj = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"]]},
        "agents": {
            "1": {"types": 0.5, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
        },
        "beliefs": "dirac-truth",
    }
    obj.update(patches)
    return json.dumps(obj)


def _solve_stdout(path: Path, tol: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", str(path), "--tolerance", tol]) == 0
    return out.getvalue().encode("utf-8")


def _sender_belief(belief, agent: str = "1") -> dict:
    return {"beliefs": {"default": "none", "agents": {agent: {"sender": belief}}}}


class TestParsing:
    def test_canonical_fixture_loads(self):
        sc = parse_scenario(_read(CANONICAL_PATH))
        assert sc.name == "canonical-cascade"
        assert sc.agent_ids == tuple(str(k) for k in range(1, 11))
        assert sc.evidence.mu_given_c == 0.9
        assert sc.attrs["4"].type_set == TypeSet.singleton(0.74)
        assert sc.belief_default == DIRAC_TRUTH and not sc.belief_overrides
        assert sc.tree().children_of("1") == ("2", "3", "4")

    def test_beliefs_field_defaults_to_dirac_truth(self):
        obj = json.loads(_minimal())
        del obj["beliefs"]
        sc = parse_scenario(json.dumps(obj))
        assert sc.belief_default == DIRAC_TRUTH

    def test_integer_ids_normalize_to_strings(self):
        text = _minimal(topology={"kind": "tree", "root": 1, "edges": [[1, 2]]})
        sc = parse_scenario(text)
        assert sc.tree().agents == ("1", "2")

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_scenario("{\n  \"evidence\": }")

    @pytest.mark.parametrize(
        "patches, fragment",
        [
            ({"banana": 1}, "unknown fields"),
            ({"evidence": {"mu_given_c": 0.9}}, "evidence"),
            ({"evidence": {"mu_given_c": 0.9, "mu_given_not_c": "x"}}, "number"),
            ({"topology": {"kind": "ring", "edges": []}}, "tree"),
            ({"topology": {"kind": "tree", "edges": [["1", "2"]]}}, "root"),
            ({"topology": {"kind": "graph", "root": "1", "edges": [["1", "2"]]}}, "root"),
            ({"topology": {"kind": "tree", "root": "1", "edges": [["1", "2", "3"]]}}, "two-element"),
            ({"topology": {"kind": "tree", "root": "1", "edges": [["1", "9"]]}}, "without profiles"),
            ({"agents": {}}, "nonempty"),
            ({"beliefs": "sometimes"}, "beliefs"),
            ({"beliefs": {"default": "none", "agents": [1, 2]}}, "beliefs.agents"),
            (_sender_belief({"dirac": 0.5}), "beliefs.agents.1.sender.dirac: expected an array of credences"),
            (_sender_belief({"atoms": {"profile": [0.3]}}), "beliefs.agents.1.sender.atoms: expected an array"),
            (
                _sender_belief({"atoms": [{"profile": 0.3, "weight": 1}]}),
                "beliefs.agents.1.sender.atoms[0].profile: expected an array of credences",
            ),
            (
                _sender_belief({"atoms": [{"profile": [0.3], "weight": 0.5}, {"profile": [0.4], "weight": 0.4}]}),
                "beliefs.agents.1.sender: atom weights sum to 0.9, expected 1",
            ),
            (_sender_belief({"dirac": [1.5]}), "beliefs.agents.1.sender: profile coordinate 1.5 outside [0, 1]"),
            # JSON can escape a lone surrogate, which is no text and no report could print
            ({"agents": {"1": {"types": 0.5, "lambda": 1.0}, "\ud800": {"types": 0.3, "lambda": 1.0}}},
             "agents: agent id '\\ud800' is not valid Unicode text"),
            (_sender_belief({"dirac": [0.3]}, agent="\ud800"), "beliefs.agents.'\\ud800': unknown agent id"),
        ],
    )
    def test_schema_errors_carry_field_context(self, patches, fragment):
        with pytest.raises(SchemaError, match=re.escape(fragment)):
            parse_scenario(_minimal(**patches))

    def test_agent_attribute_errors_name_the_agent(self):
        bad_lambda = {
            "1": {"types": 0.5, "lambda": -1.0, "ell": 1},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
        }
        with pytest.raises(SchemaError, match="agents.1"):
            parse_scenario(_minimal(agents=bad_lambda))
        bad_ell = {
            "1": {"types": 0.5, "lambda": 1.0, "ell": True},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
        }
        with pytest.raises(SchemaError, match="agents.1.ell"):
            parse_scenario(_minimal(agents=bad_ell))

    def test_type_set_variants(self):
        agents = {
            "1": {"types": [0.4, 0.6], "lambda": 1.0},
            "2": {"types": {"interval": [0.2, 0.3]}, "lambda": 1.0},
        }
        sc = parse_scenario(_minimal(agents=agents, beliefs="none"))
        assert sc.attrs["1"].type_set == TypeSet.finite([0.4, 0.6])
        assert sc.attrs["2"].type_set == TypeSet.interval(0.2, 0.3)

    def test_wrong_topology_accessor_rejected(self):
        sc = parse_scenario(_minimal())
        with pytest.raises(SchemaError):
            sc.graph()
        graph = parse_scenario(_minimal(topology={"kind": "graph", "edges": [["1", "2"]]}))
        with pytest.raises(SchemaError, match="not a tree scenario"):
            graph.tree()

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
    def test_ids_with_one_natural_key_keep_file_order(self, hash_seed):
        # "01", "001" and "1" sort alike, so only the file can order them; a
        # set would order them by string hash, which changes between runs
        tied = ["01", "001", "1"]
        unknown = _minimal(
            topology={"kind": "tree", "root": "1", "edges": [["1", "2"]] + [["2", a] for a in tied[:2]]}
        )
        unplaced = _minimal(agents={a: {"types": 0.5, "lambda": 1.0} for a in ["y", "2", *tied]})
        code = (
            "import json, sys\n"
            "from rumorcast import parse_scenario\n"
            "for text in json.load(sys.stdin):\n"
            "    try: parse_scenario(text)\n"
            "    except Exception as exc: print(exc)\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(_SRC)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps([unknown, unplaced]),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert out == (
            "topology: edges mention agents without profiles: ['01', '001']\n"
            "agents: not placed in the topology: ['01', '001', 'y']\n"
        )


class TestBeliefAttachment:
    def test_explicit_atoms_take_precedence(self):
        beliefs = {
            "default": "dirac-truth",
            "agents": {"2": {"receiver": {"dirac": [0.5]}}},
        }
        agents = {
            "1": {"types": 0.5, "lambda": 1.0},
            "2": {"types": 0.3, "lambda": 1.0},
            "3": {"types": 0.4, "lambda": 1.0},
        }
        topology = {"kind": "tree", "root": "1", "edges": [["1", "2"], ["1", "3"]]}
        sc = parse_scenario(_minimal(topology=topology, agents=agents, beliefs=beliefs))
        tree = sc.tree()
        profiles = sc.profiles_for(tree)
        # the override replaces the truth belief (0.5, 0.4) with a 1-peer one;
        # agent 3 keeps hers
        assert profiles["2"].receiver_belief.atoms[0].profile == (0.5,)
        assert profiles["3"].receiver_belief.atoms[0].profile == (0.5, 0.3)
        assert profiles["1"].sender_belief.atoms[0].profile == (0.3, 0.4)

    def test_default_none_leaves_beliefs_absent(self):
        sc = parse_scenario(_minimal(beliefs="none"))
        profiles = sc.profiles_for(sc.tree())
        assert profiles["1"].sender_belief is None
        assert profiles["2"].receiver_belief is None


class TestDiagnostics:
    def test_clean_fixtures(self):
        assert scenario_diagnostics(_read(CANONICAL_PATH)) == []
        assert scenario_diagnostics(_read(str(_SCENARIOS / "three_cliques.json"))) == []
        assert scenario_diagnostics(_read(str(_SCENARIOS / "worldview_gap_pair.json"))) == []

    def test_parse_failure_short_circuits(self):
        diags = scenario_diagnostics("not json")
        assert [d.kind for d in diags] == ["parse-error"]

    def test_flat_evidence_reported(self):
        text = _minimal(evidence={"mu_given_c": 0.5, "mu_given_not_c": 0.5})
        kinds = [d.kind for d in scenario_diagnostics(text)]
        assert kinds == ["evidence-error"]

    def test_independent_stages_all_report(self):
        text = _minimal(
            evidence={"mu_given_c": 0.5, "mu_given_not_c": 0.5},
            topology={
                "kind": "graph",
                "edges": [["1", "2"], ["2", "4"], ["4", "3"], ["3", "1"]],
            },
            agents={
                str(k): {"types": 0.3, "lambda": 1.0} for k in range(1, 5)
            },
        )
        kinds = {d.kind for d in scenario_diagnostics(text)}
        assert "evidence-error" in kinds
        assert "overlapping-circles" in kinds
        assert "open-circle" in kinds

    @pytest.mark.parametrize("check", [False, 0, None])
    def test_graph_check_cannot_be_waived(self, check):
        # a graph is always checked: true still parses, anything else is refused
        topology = {
            "kind": "graph",
            "check_structure": check,
            "edges": [["1", "2"], ["2", "4"], ["4", "3"], ["3", "1"]],
        }
        agents = {str(k): {"types": 0.3, "lambda": 1.0} for k in range(1, 5)}
        text = _minimal(topology=topology, agents=agents)
        with pytest.raises(SchemaError, match=r"^topology\.check_structure: graphs are always checked") as exc:
            parse_scenario(text)
        assert [(d.kind, d.detail) for d in scenario_diagnostics(text)] == [("schema-error", str(exc.value))]
        topology["check_structure"] = True
        text = _minimal(topology=topology, agents=agents)
        assert parse_scenario(text).topology.kind == "graph"
        assert {d.kind for d in scenario_diagnostics(text)} == {"overlapping-circles", "open-circle"}

    def test_belief_support_outside_type_set(self):
        beliefs = {
            "default": "none",
            "agents": {
                "1": {"sender": {"dirac": [0.3]}},
                "2": {"receiver": {"dirac": [0.8]}},
            },
        }
        diags = scenario_diagnostics(_minimal(beliefs=beliefs))
        assert [d.kind for d in diags] == ["belief-error"]
        assert "0.8" in diags[0].detail

    def test_missing_sender_belief_reported(self):
        diags = scenario_diagnostics(_minimal(beliefs="none"))
        assert any(d.kind == "belief-error" for d in diags)

    def test_tree_with_two_parents_is_a_topology_error(self):
        topology = {"kind": "tree", "root": "1", "edges": [["1", "2"], ["1", "3"], ["2", "3"]]}
        agents = {k: {"types": 0.3, "lambda": 1.0} for k in "123"}
        diags = scenario_diagnostics(_minimal(topology=topology, agents=agents))
        assert [(d.kind, d.detail) for d in diags] == [("topology-error", "agent '3' has two parents: '1' and '2'")]


class TestNormalize:
    def test_idempotent(self):
        once = normalize_scenario(_read(CANONICAL_PATH))
        assert normalize_scenario(once) == once

    def test_round_trip_solves_identically(self, tmp_path):
        original = parse_scenario(_read(CANONICAL_PATH))
        rebuilt = parse_scenario(normalize_scenario(_read(CANONICAL_PATH)))
        assert rebuilt.belief_default is None and rebuilt.belief_overrides
        tree_a, tree_b = original.tree(), rebuilt.tree()
        assert tree_a.edges() == tree_b.edges()
        res_a = solve_global(tree_a, original.profiles_for(tree_a), original.evidence)
        res_b = solve_global(tree_b, rebuilt.profiles_for(tree_b), rebuilt.evidence)
        assert res_a.receiver_actions == res_b.receiver_actions
        assert res_a.sender_actions == res_b.sender_actions
        assert res_a.reach == res_b.reach
        assert res_a.unique == res_b.unique
        # in decimals agent 3 (credence 0.82, peer mean 0.61, lambda 0.5)
        # loses 0.375 by silence and by approval: at tolerance 0 the tie holds
        # or not by the last bit of her peer mean, which both forms round alike
        pinned = {
            "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
            "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"], ["1", "3"]]},
            "agents": {
                "1": {"types": 0.85, "lambda": 0.5},
                "2": {"types": 0.37, "lambda": 0.5},
                "3": {"types": 0.82, "lambda": 0.5},
            },
            "beliefs": "dirac-truth",
        }
        for name, text in (("canonical", _read(CANONICAL_PATH)), ("pinned", json.dumps(pinned))):
            shorthand, spelled = tmp_path / f"{name}.json", tmp_path / f"{name}-normalized.json"
            shorthand.write_text(text, encoding="utf-8")
            spelled.write_text(normalize_scenario(text), encoding="utf-8")
            for tol in ("0", "1e-9"):
                want = _solve_stdout(shorthand, tol)
                assert _solve_stdout(spelled, tol) == want, (name, tol)

    def test_type_sets_round_trip(self):
        agents = {
            "1": {"types": [0.6, 0.4], "lambda": 1.0},
            "2": {"types": {"interval": [0.2, 0.3]}, "lambda": 1.0, "ell": 0},
        }
        once = normalize_scenario(_minimal(agents=agents, beliefs="none"))
        assert json.loads(once)["agents"] == {
            "1": {"types": [0.4, 0.6], "lambda": 1.0, "ell": 1},
            "2": {"types": {"interval": [0.2, 0.3]}, "lambda": 1.0, "ell": 0},
        }
        assert normalize_scenario(once) == once

    def test_library_built_scenario_round_trips(self):
        # integer sensitivities and thresholds set in the library are written
        # as JSON integers, which the parser reads back
        scenario = parse_scenario(_read(CANONICAL_PATH))
        attrs = {
            agent: AgentProfile(prof.type_set, 2, 3) for agent, prof in scenario.attrs.items()
        }
        built = dataclasses.replace(scenario, attrs=AgentTable.of(attrs))
        text = json.dumps(scenario_to_obj(built))
        once = normalize_scenario(text)
        assert json.loads(once)["agents"]["1"] == {"types": 0.5, "lambda": 2, "ell": 3}
        assert normalize_scenario(once) == once

    def test_bool_ell_or_lambda_is_refused(self):
        # a bool is an int to Python, but the file format refuses true and
        # false, so the library refuses them too, naming the field
        scenario = parse_scenario(_read(CANONICAL_PATH))
        prof = scenario.attrs["1"]
        with pytest.raises(RangeViolation, match="disapproval threshold ell .* got True"):
            AgentProfile(prof.type_set, prof.lam, True)
        with pytest.raises(RangeViolation, match="sensitivity lambda .* got True"):
            AgentProfile(prof.type_set, True, prof.ell)
        with pytest.raises(RangeViolation, match="sensitivity lambda .* got False"):
            scenario.attrs.with_lam(False, "1")

    def test_graph_scenarios_keep_the_shorthand(self):
        out = normalize_scenario(_read(str(_SCENARIOS / "three_cliques.json")))
        assert json.loads(out)["beliefs"] == "dirac-truth"
        assert normalize_scenario(out) == out


class TestNonFiniteNumbers:
    """JSON's NaN and Infinity literals fail at parse, naming the field."""

    def _canonical_with(self, old: str, new: str) -> str:
        text = _read(CANONICAL_PATH)
        assert old in text
        return text.replace(old, new, 1)

    def test_nan_lambda(self):
        text = self._canonical_with('"2": {"types": 0.26, "lambda": 1.0', '"2": {"types": 0.26, "lambda": NaN')
        with pytest.raises(SchemaError, match=r"agents\.2\.lambda: expected a finite number"):
            parse_scenario(text)
        assert [d.kind for d in scenario_diagnostics(text)] == ["schema-error"]

    def test_infinite_lambda(self):
        text = self._canonical_with('"2": {"types": 0.26, "lambda": 1.0', '"2": {"types": 0.26, "lambda": Infinity')
        with pytest.raises(SchemaError, match=r"agents\.2\.lambda: expected a finite number"):
            parse_scenario(text)
        assert [d.kind for d in scenario_diagnostics(text)] == ["schema-error"]

    def test_nan_atom_weight(self):
        beliefs = {
            "default": "dirac-truth",
            "agents": {"2": {"receiver": {"atoms": [{"profile": [0.5], "weight": float("nan")}]}}},
        }
        text = _minimal(beliefs=beliefs)
        with pytest.raises(SchemaError, match=r"beliefs\.agents\.2\.receiver\.atoms\[0\]\.weight: expected a finite number"):
            parse_scenario(text)
        assert [d.kind for d in scenario_diagnostics(text)] == ["schema-error"]

    def test_huge_integer(self):
        with pytest.raises(SchemaError, match=r"evidence\.mu_given_c: expected a finite number"):
            parse_scenario(_minimal(evidence={"mu_given_c": 10**400, "mu_given_not_c": 0.1}))
        agents = {
            "1": {"types": 10**400, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
        }
        with pytest.raises(SchemaError, match=r"agents\.1\.types: credence"):
            parse_scenario(_minimal(agents=agents))


class TestCredenceDiagnostics:
    """``validate`` flags off-band credences that the send rule evaluates."""

    def test_off_band_child_flags_her_sender(self):
        agents = {
            "1": {"types": 0.5, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.97, "lambda": 1.0, "ell": 1},
        }
        diags = scenario_diagnostics(_minimal(agents=agents))
        assert [(d.kind, d.detail) for d in diags] == [
            (
                "credence-error",
                "agent '1': sender belief: credence 0.97 outside the open interval (0.1, 0.9)",
            )
        ]

    def test_off_band_sender_type_hull(self):
        agents = {
            "1": {"types": {"interval": [0.05, 0.95]}, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
        }
        beliefs = {"default": "none", "agents": {"1": {"sender": {"dirac": [0.3]}}, "2": {"receiver": {"dirac": [0.5]}}}}
        diags = scenario_diagnostics(_minimal(agents=agents, beliefs=beliefs))
        assert [d.kind for d in diags] == ["credence-error", "credence-error"]
        assert all(d.detail.startswith("agent '1': types: credence ") for d in diags)
        assert "0.05" in diags[0].detail and "0.95" in diags[1].detail

    def test_terminal_agents_are_not_senders(self):
        # a leaf's own credence reaches the send rule only through her
        # sender's belief, explicit here, so solving works and nothing is flagged
        beliefs = {"default": "dirac-truth", "agents": {"1": {"sender": {"dirac": [0.3]}}}}
        agents = {
            "1": {"types": 0.85, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.97, "lambda": 1.0, "ell": 1},
        }
        text = _minimal(agents=agents, beliefs=beliefs)
        assert scenario_diagnostics(text) == []
        sc = parse_scenario(text)
        assert solve_global(sc.tree(), sc.profiles_for(sc.tree()), sc.evidence).reach_count == 2

    def test_graph_senders_are_agents_with_a_neighbour(self):
        # 1 and 2 each send under their own rooting; the isolated 3 never does
        topology = {"kind": "graph", "edges": [["1", "2"]]}
        agents = {
            "1": {"types": 0.5, "lambda": 1.0, "ell": 1},
            "2": {"types": 0.3, "lambda": 1.0, "ell": 1},
            "3": {"types": 0.97, "lambda": 1.0, "ell": 1},
        }
        beliefs = {"default": "dirac-truth", "agents": {"2": {"sender": {"dirac": [0.95]}}}}
        diags = scenario_diagnostics(_minimal(topology=topology, agents=agents, beliefs=beliefs))
        assert [(d.kind, d.detail) for d in diags] == [
            ("disconnected", "witness ('1', '3')"),
            (
                "credence-error",
                "agent '2': sender belief: credence 0.95 outside the open interval (0.1, 0.9)",
            )
        ]
