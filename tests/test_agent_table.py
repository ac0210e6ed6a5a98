"""The columnar agent table and the bulk check that fills it.

``_parse_agents`` checks whole columns at once and falls back to the
per-agent check only when a column pass cannot clear every value.  Here it
is compared with the per-agent parser it replaced (``_ref_parse_agents``)
on tables of 1 to 2,000 agents, clean or with one fault planted at a random
place: both must give equal mappings with equal reprs, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import pytest

from rumorcast import network, scenario
from rumorcast.chatroom import TypeSet
from rumorcast.cli import main
from rumorcast.errors import InvariantViolation, RangeViolation, SchemaError
from rumorcast.belief import validate_evidence
from rumorcast.network import AgentProfile, AgentTable, OrderedTree, TreeProfiles, solve_global, sweep_lambda
from rumorcast.scenario import _at, _parse_agents

from test_entry_differential import _outcome, _ref_parse_agents, _same


def _new(raw):
    return _at("agents", _parse_agents, raw)


# ---------------------------------------------------------------------------
# random tables with one planted fault

# (field, bad value) pairs; each is a fault in any agent
_FAULTS = [
    ("types", "0.5"), ("types", None), ("types", True), ("types", False),
    ("types", math.nan), ("types", math.inf), ("types", -math.inf), ("types", 10**400),
    ("types", 1.5), ("types", -0.1), ("types", 1 + 1e-6), ("types", 2),
    ("types", [0.3, "x"]), ("types", [0.3, math.nan]), ("types", []), ("types", [1.5]),
    ("types", {"interval": [0.6, 0.4]}), ("types", {"interval": [0.2]}),
    ("types", {"interval": [0.2, 0.4], "x": 1}), ("types", {}),
    ("lambda", "1"), ("lambda", None), ("lambda", True), ("lambda", math.nan),
    ("lambda", math.inf), ("lambda", -math.inf), ("lambda", 10**400), ("lambda", -1.0),
    ("lambda", -1), ("lambda", -1e-300), ("lambda", [1.0]),
    ("ell", -1), ("ell", 1.0), ("ell", True), ("ell", False), ("ell", None), ("ell", "1"),
    ("ell", -(10**400)),
]
# values that look odd but are clean
_ODD_BUT_CLEAN = [
    ("types", -0.0), ("types", 0), ("types", 1), ("types", 1 + 1e-12), ("types", -1e-12),
    ("types", [0.4, 0.4]), ("types", [0.5]), ("types", 5e-324),
    ("lambda", -0.0), ("lambda", 0), ("lambda", 10**300), ("lambda", 1e308),
    ("ell", 0), ("ell", 10**400),
]


def _clean_agent(rnd: random.Random) -> dict:
    kind = rnd.random()
    if kind < 0.8:
        types = rnd.choice([round(rnd.uniform(0.0, 1.0), 6), rnd.uniform(0.0, 1.0)])
    elif kind < 0.9:
        types = [round(rnd.uniform(0.0, 1.0), 3) for _ in range(rnd.randint(1, 3))]
    else:
        lo = rnd.uniform(0.0, 1.0)
        types = {"interval": [lo, rnd.uniform(lo, 1.0)]}
    spec = {"types": types, "lambda": rnd.choice([rnd.uniform(0.0, 3.0), rnd.randint(0, 3)])}
    if rnd.random() < 0.7:
        spec["ell"] = rnd.randint(0, 3)
    if rnd.random() < 0.5:  # key order does not matter
        spec = dict(reversed(list(spec.items())))
    return spec


def _plant(rnd: random.Random, spec: dict) -> object:
    """``spec`` with one fault, or a clean value that looks odd."""
    how = rnd.random()
    if how < 0.08:
        return rnd.choice([[], [1, 2], 0.5, None, "agent", True])  # no object at all
    if how < 0.16:
        spec[rnd.choice(["x", "Types", "beliefs"])] = 1
    elif how < 0.24:
        del spec[rnd.choice(["types", "lambda"])]
    else:
        key, value = rnd.choice(_FAULTS if how < 0.85 else _ODD_BUT_CLEAN)
        spec[key] = value
    return spec


def _table(rnd: random.Random, size: int, faulty: bool) -> dict:
    raw = {str(k): _clean_agent(rnd) for k in range(1, size + 1)}
    if faulty:
        victim = str(rnd.randint(1, size))
        raw[victim] = _plant(rnd, raw[victim])
    return raw


@pytest.mark.parametrize("seed", range(8))
def test_bulk_check_agrees_with_reference(seed):
    rnd = random.Random(seed)
    for trial in range(40):
        size = rnd.choice([1, 2, 3, rnd.randint(4, 60), rnd.randint(60, 2000)])
        _same(_new, _ref_parse_agents, _table(rnd, size, faulty=trial % 5 != 0))


@pytest.mark.parametrize("seed", range(4))
def test_bulk_check_agrees_with_two_faults(seed):
    # the first fault in file order is the one reported, whatever the second is
    rnd = random.Random(100 + seed)
    for _ in range(40):
        raw = _table(rnd, rnd.randint(2, 300), faulty=False)
        for victim in rnd.sample(list(raw), 2):
            raw[victim] = _plant(rnd, raw[victim])
        _same(_new, _ref_parse_agents, raw)


def _overflowing_sums() -> dict:
    # every value is finite, but the sensitivities' sum is not
    raw = {str(k): {"types": 0.5, "lambda": 1e308, "ell": 1} for k in range(1, 4)}
    raw["4"] = {"types": [0.2, 0.3], "lambda": 1.7e308}
    return raw


def test_overflowing_column_sums_parse_clean():
    raw = _overflowing_sums()
    _same(_new, _ref_parse_agents, raw)
    table = _new(raw)
    assert isinstance(table, AgentTable)
    assert table["2"].lam == 1e308
    assert table["4"].type_set == TypeSet.finite([0.2, 0.3])


def test_clean_file_is_not_checked_agent_by_agent(monkeypatch):
    # the column passes clear every clean table, those whose sums overflow too
    tables = [_table(random.Random(7), 500, faulty=False), _overflowing_sums()]
    wants = [_ref_parse_agents(raw) for raw in tables]

    def refuse(spec):
        raise AssertionError("the per-agent check ran on a clean table")

    monkeypatch.setattr(scenario, "_agent", refuse)
    for raw, want in zip(tables, wants):
        assert _new(raw) == want


def test_fault_in_a_big_table_is_reported_with_its_path():
    raw = {str(k): {"types": 0.3, "lambda": 1.0} for k in range(1, 2001)}
    raw["1500"]["lambda"] = -2.0
    raw["1700"]["types"] = math.nan
    assert _outcome(_new, raw) == (
        "raised", SchemaError,
        "agents.1500: sensitivity must be finite and nonnegative, got -2.0",
    )


# ---------------------------------------------------------------------------
# the table as a mapping


def _profiles() -> dict:
    return {
        "1": AgentProfile(TypeSet.singleton(0.5), 1.0, 1),
        "10": AgentProfile(TypeSet.finite([0.2, 0.4]), 0.5, 2),
        "2": AgentProfile(TypeSet.interval(0.1, 0.3), 2.0, 0),
        "3": AgentProfile(TypeSet.finite([0.7]), 0.0, 1),
    }


def test_table_is_the_mapping_it_holds():
    profiles = _profiles()
    table = AgentTable.of(profiles)
    assert table == profiles and profiles == table
    assert repr(table) == repr(profiles)
    assert list(table) == list(table.keys()) == ["1", "10", "2", "3"]
    assert len(table) == 4 and "10" in table and "4" not in table
    assert table["1"] is table["1"]  # built once
    assert AgentTable.of(table) is table
    assert table.theta == {"1": 0.5, "3": 0.7}  # one-point list types are credences
    assert set(table.type_sets) == {"10", "2"}
    with pytest.raises(KeyError):
        table["4"]


def test_sweep_lambda_swaps_one_column():
    # each sensitivity goes to one agent, or to every agent, as if that column
    # entry alone were replaced; the table keeps its own column
    tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3"), ("1", "10")])
    table = AgentTable.of({
        "1": AgentProfile(TypeSet.singleton(0.85), 1.0, 1),
        "10": AgentProfile(TypeSet.singleton(0.8), 0.5, 2),
        "2": AgentProfile(TypeSet.singleton(0.2), 2.0, 0),
        "3": AgentProfile(TypeSet.singleton(0.5), 0.0, 1),
    })
    mu = validate_evidence(0.9, 0.1)
    for agent in (None, "2"):
        got = list(sweep_lambda(tree, TreeProfiles(tree, table), mu, [0.0, 3.0], agent))
        want = [
            solve_global(tree, TreeProfiles(tree, {
                a: AgentProfile(p.type_set, lam if agent in (None, a) else p.lam, p.ell) for a, p in table.items()
            }), mu)
            for lam in (0.0, 3.0)
        ]
        assert got == want, agent
        assert got[0].reaction_of("2") != got[1].reaction_of("2"), agent  # the swept value is read
    assert table.lam == [1.0, 0.5, 2.0, 0.0]
    with pytest.raises(InvariantViolation, match="^no profile for agent '4'$"):
        next(sweep_lambda(tree, TreeProfiles(tree, table), mu, [1.0], "4"))
    refused = r"^sensitivity (lambda must be a number|must be finite and nonnegative), got "
    for bad in (math.nan, -1.0, math.inf, True, "1", None, 10**400):
        sweep = sweep_lambda(tree, TreeProfiles(tree, table), mu, [1.0, bad])
        next(sweep)  # each sensitivity is checked when its cascade starts
        with pytest.raises(RangeViolation, match=refused):
            next(sweep)
        with pytest.raises(RangeViolation, match=refused):
            AgentProfile(TypeSet.singleton(0.5), bad)


def test_truth_profiles_read_the_credence_column():
    tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3")])
    table = AgentTable.of({a: AgentProfile(TypeSet.singleton(0.3), 1.0) for a in ("1", "2", "3")})
    truth = TreeProfiles(tree, table)
    assert truth.theta is table.theta and truth.attrs is table
    # a table holding more agents than the tree is narrowed to the tree
    wider = AgentTable.of({
        **dict(table.items()),
        "4": AgentProfile(TypeSet.singleton(0.2), 1.0),
        "5": AgentProfile(TypeSet.interval(0.1, 0.2), 1.0),
    })
    narrowed = TreeProfiles(tree, wider)
    assert narrowed.theta == {"1": 0.3, "2": 0.3, "3": 0.3}
    assert "4" not in narrowed and len(narrowed) == 3
    with pytest.raises(KeyError):
        narrowed["4"]
    # the first bad tree agent, in natural id order, is reported
    bigger = OrderedTree.from_edges("1", [("1", "5"), ("1", "2"), ("2", "6")])
    with pytest.raises(InvariantViolation, match="agent '5': known-type beliefs need singleton type sets"):
        TreeProfiles(bigger, wider)
    with pytest.raises(InvariantViolation, match="agent '5': known-type beliefs need singleton type sets"):
        TreeProfiles(OrderedTree.from_edges("1", [("1", "2"), ("2", "6"), ("6", "5")]), wider)


# ---------------------------------------------------------------------------
# sweep-lambda builds profiles only for the agents the message reaches


def _deep_tree(n: int, arity: int = 4, send_depth: int = 1) -> dict:
    """Complete tree whose agents below ``send_depth`` never send."""
    may_send = sum(arity**d for d in range(send_depth + 1))
    agents = {
        str(k + 1): {"types": 0.3 + 0.1 * (k % 5), "lambda": 1.0, "ell": 1 if k < may_send else 0}
        for k in range(n)
    }
    agents["1"]["types"] = 0.895
    return {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {
            "kind": "tree",
            "root": "1",
            "edges": [[str((k - 1) // arity + 1), str(k + 1)] for k in range(1, n)],
        },
        "agents": agents,
        "beliefs": "dirac-truth",
    }


@pytest.mark.parametrize("agent", ["all", "3"])
def test_sweep_builds_profiles_only_for_reached_agents(tmp_path, monkeypatch, agent):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_deep_tree(2000)), encoding="utf-8")
    built = []
    real = network.AgentProfile

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "AgentProfile", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep-lambda", str(path), "--agent", agent, "--lambdas", "0.5,1,1.5,2",
                     "--format", "json-lines"])
    assert code == 0
    reach = [json.loads(line)["reach_count"] for line in out.getvalue().splitlines()]
    assert len(reach) == 4 and max(reach) < 100
    assert built == []  # every reached agent is read from the columns


def _star(receivers: int) -> dict:
    """A dirac-truth star: the root near the top of the band, her receivers' credences spread below it."""
    agents = {str(k + 2): {"types": round(0.15 + 0.7 * k / receivers, 6), "lambda": 1.0} for k in range(receivers)}
    agents["1"] = {"types": 0.895, "lambda": 1.0}
    return {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", a] for a in agents if a != "1"]},
        "agents": agents,
        "beliefs": "dirac-truth",
    }


def test_no_command_builds_a_profile_on_a_clean_file(tmp_path, monkeypatch):
    # every command but normalize reads types, sensitivities and thresholds
    # off the table's columns; a profile is built only to name a fault
    from test_explicit_beliefs import _explicit_star
    from test_room_kernel import _load_workloads

    workloads = _load_workloads()
    senders, blocks = workloads.WORKLOADS["interval_senders"], workloads.WORKLOADS["block_sweep"]
    sweep = ["sweep-lambda", "--lambdas", "0,1,4", "--agent", "all"]
    files = {
        "interval_senders toy": (workloads.scenario_text(senders, 1, toy=0), [["solve"], sweep, ["validate"]]),
        "interval_senders": (workloads.scenario_text(senders, 1), [["solve"], sweep, ["validate"]]),
        "explicit star": (json.dumps(_explicit_star(60)), [["solve"], sweep, sweep[:-1] + ["2"], ["validate"]]),
        "dirac-truth star": (json.dumps(_star(60)), [["solve"], sweep, sweep[:-1] + ["2"], ["sweep-root"],
                                                    ["validate"]]),
        "block graph": (workloads.scenario_text(blocks, 1), [["solve", "--root", "41"], sweep + ["--root", "41"],
                                                            ["sweep-root"], ["validate"]]),
    }
    built: list = []
    post_init = AgentProfile.__post_init__
    monkeypatch.setattr(AgentProfile, "__post_init__", lambda self: built.append(self) or post_init(self))
    reached = 0
    for name, (text, commands) in files.items():
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        for command, *flags in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, str(path), *flags, "--format", "json-lines"])
            assert code == 0 and built == [], (name, command, len(built))
            lines = [json.loads(line) for line in out.getvalue().splitlines()]
            reached += max(line.get("reach_count", 0) for line in lines) > 1
    assert reached == 14, reached

    # a belief off its peer's types is still named, from the columns' type sets
    doc = _explicit_star(3)
    doc["beliefs"]["agents"]["4"]["receiver"]["atoms"][0]["profile"][0] = 0.05
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["solve", str(path)]) == 1
    assert "receiver '4': belief support point 0.05 (peer #0) outside that peer's type set" in err.getvalue()
