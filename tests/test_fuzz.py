"""Mutated scenario files never crash the checker or the commands.

Each example takes one shipped scenario, as written or in its canonical
form (``normalize`` spells dirac-truth beliefs out as explicit atoms), and
mutates it again and again, checking the document after every step.  A
mutation replaces a JSON value by one of another type, drops a key, or adds
an unknown key.  Its place is found on a walk down from the top that stops
at each level with odds 1 in 3, so shallow structure (``beliefs.agents``
turned into an array, say) is hit about as often as the leaves.  New keys
and strings come from the schema's own words.  For every mutant:

- ``scenario_diagnostics`` returns a list and never raises;
- ``parse_scenario`` raises a parse or schema error exactly when the
  diagnostics hold a ``parse-error`` or ``schema-error`` row, with its text;
- ``validate``, ``solve``, ``sweep-lambda --agent all --lambdas 1`` and
  ``sweep-root`` exit 0, 1 or 2, never raise, and write only what encodes
  as UTF-8 (a lone surrogate is among the words), on these mutants and on
  three files that decode to no JSON value (not UTF-8, nested too deeply,
  an integer of too many digits);
- a tree scenario that ``validate`` finds clean solves: ``solve`` and
  ``sweep-lambda`` exit 0 (cascade resolved) or 2 (a reached room has no
  equilibrium), never 1, and so does ``sweep-root`` under plain
  ``"dirac-truth"`` beliefs; its ``normalize`` output, every belief spelled
  out, makes ``solve`` print the same bytes with the same exit code;
- conversely, every exit 1 of ``solve`` or ``sweep-lambda`` on a tree
  scenario, and of ``sweep-root`` on one with plain ``"dirac-truth"``
  beliefs, prints one of ``validate``'s rows;
- a graph scenario with plain ``"dirac-truth"`` beliefs that ``validate``
  finds clean is rooted and solved: ``sweep-root`` and ``solve --root`` at
  every agent exit 0 (a room of singleton types always has an
  equilibrium);
- conversely, every exit 1 of ``sweep-root`` or of ``solve --root`` at any
  agent on such a graph prints one of ``validate``'s rows (a structure row
  as ``graph cannot generate a tree: <kind> <witness>``).  Graph files with
  explicit beliefs are left out: an explicit sender belief fits one rooting
  only;
- every exit 2 of ``solve`` on a tree scenario at the default tolerance is
  confirmed by ``oracle_chatroom_profiles``: enumeration finds no
  equilibrium profile in the failing room either (rooms too large to
  enumerate are skipped);
- a ``three_cliques`` mutant, its edges also dropped, added and moved and
  its credences widened into type sets, that loads as a graph with an agent
  passes the command checks above and is rooted only when it is valid: its
  diagnostics hold a structure row exactly when ``root_tree`` at its first
  agent refuses it, with that row's witness, and then ``solve --root``
  exits 1.

Every command runs, and every check holds, at each ``--tolerance`` in
``TOLERANCES``.  Seven pinned files hold the same checks: the canonical cascade
at ``--tolerance 0.2``, a path graph, a ``three_cliques`` copy and a tree whose
breadth-first and natural orders meet their bad agents differently, a
``three_cliques`` copy with an off-band leaf, a tree whose off-band leaf only
its parent's sender belief reads, and a leaf credence just past 1.

Small random trees with explicit beliefs and spread type sets, where rooms
without an equilibrium are common, feed the oracle check as well.

The hypothesis example only seeds the walk (``randoms``), so a failure is
reported with the mutant's text (``note``) rather than shrunk.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from helpers import UNREADABLE_DOCUMENTS
from rumorcast import load_scenario, normalize_scenario, parse_scenario, scenario_diagnostics
from rumorcast.chatroom import ChatroomGame, ReceiverSpec
from rumorcast.cli import main
from rumorcast.errors import InstanceTooLarge, InvalidGraph, ParseError, RumorcastError, SchemaError
from rumorcast.network import root_tree, solve_global
from rumorcast.oracle import oracle_chatroom_profiles
from rumorcast.scenario import DIRAC_TRUTH

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_SHIPPED = {path.name: path.read_text(encoding="utf-8") for path in sorted(_SCENARIOS.glob("*.json"))}
BASES = [(name, form) for name, text in _SHIPPED.items() for form in (text, normalize_scenario(text))]

_WORDS = (
    "name", "evidence", "mu_given_c", "mu_given_not_c", "topology", "kind", "root",
    "edges", "check_structure", "agents", "types", "lambda", "ell", "interval",
    "beliefs", "default", "receiver", "sender", "dirac", "atoms", "profile", "weight",
    "tree", "graph", "dirac-truth", "none", "1", "2", "3", "99", "", "x", "0.5", "-1",
    "\ud800",  # a lone surrogate: JSON can escape it, but it is no text
)
_NUMBERS = (0, 1, 2, 3, -1, 12, 0.0, -0.0, 0.1, 0.5, 0.9, 1.0, 1.5, 1e-300, 1e308, 10**400,
            math.nan, math.inf, -math.inf)
_KINDS = ("null", "bool", "number", "string", "array", "object")


def _value(rnd: random.Random, kind: str, depth: int = 0) -> Any:
    """A random JSON value of ``kind``, nested at most two levels."""
    if kind == "null":
        return None
    if kind == "bool":
        return rnd.random() < 0.5
    if kind == "number":
        return rnd.choice(_NUMBERS) if rnd.random() < 0.7 else rnd.uniform(-2.0, 2.0)
    if kind == "string":
        return rnd.choice(_WORDS)
    size = rnd.randint(0, 3) if depth < 2 else 0
    items = [(rnd.choice(_WORDS), _value(rnd, rnd.choice(_KINDS), depth + 1)) for _ in range(size)]
    return [v for _, v in items] if kind == "array" else dict(items)


def _kind(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _descend(rnd: random.Random, doc: Any, keep: Callable[[Any], bool]) -> tuple | None:
    """Keys to the deepest position passing ``keep`` on a random walk down
    from the top; None when the walk passes none."""
    path, value, found = (), doc, None
    while True:
        if keep(value):
            found = path
        keys = list(value) if isinstance(value, dict) else list(range(len(value))) if isinstance(value, list) else []
        if not keys or rnd.random() < 1 / 3:
            return found
        key = rnd.choice(keys)
        path, value = path + (key,), value[key]


def _at(doc: Any, path: tuple) -> Any:
    for key in path:
        doc = doc[key]
    return doc


def _mutate(rnd: random.Random, doc: Any) -> Any:
    """``doc`` with one mutation, made in place unless the whole document is replaced."""
    how = rnd.choice(["replace", "drop", "add"])
    if how == "add":
        path = _descend(rnd, doc, lambda v: isinstance(v, dict))
        if path is not None:
            target = _at(doc, path)
            target[rnd.choice([w for w in _WORDS if w not in target])] = _value(rnd, rnd.choice(_KINDS))
        return doc
    path = _descend(rnd, doc, lambda v: True)
    if how == "drop":
        if path and isinstance(_at(doc, path[:-1]), dict):
            del _at(doc, path[:-1])[path[-1]]
        return doc
    value = _value(rnd, rnd.choice([k for k in _KINDS if k != _kind(_at(doc, path))]))
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _mutants(data: st.DataObject, steps: int) -> Iterator[tuple[str, Any, str]]:
    """One shipped scenario's name with each of ``steps`` ever more mutated
    copies of it and its text; a copy is mutated further once the caller
    asks for the next."""
    rnd = data.draw(st.randoms(use_true_random=True))
    name, text = rnd.choice(BASES)
    doc = json.loads(text)
    for _ in range(steps):
        doc = _mutate(rnd, doc)
        text = json.dumps(doc)
        note(text)
        yield name, doc, text


_FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _entry_errors(text: str) -> list[tuple[str, str]]:
    """What ``parse_scenario`` rejects ``text`` with at the boundary, as a
    diagnostic row would say it: empty when it raises no parse or schema error."""
    try:
        parse_scenario(text)
    except ParseError as exc:
        return [("parse-error", str(exc))]
    except SchemaError as exc:
        return [("schema-error", str(exc))]
    except RumorcastError:
        pass  # a later stage: diagnostics report it under another kind
    return []


@settings(_FUZZ, max_examples=1000)
@given(data=st.data())
def test_diagnostics_never_raise(data):
    for _, _, text in _mutants(data, 6):
        for document in (text, text[: len(text) // 2]):  # a cut copy is no JSON at all
            diagnostics = scenario_diagnostics(document)
            assert isinstance(diagnostics, list)
            boundary = [(d.kind, d.detail) for d in diagnostics if d.kind in ("parse-error", "schema-error")]
            assert boundary == _entry_errors(document)


def _output(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    # a StringIO takes any str; a real stdout takes only what encodes
    (out.getvalue() + err.getvalue()).encode("utf-8")
    return code, out.getvalue(), err.getvalue()


def _run(*argv: str) -> int:
    return _output(*argv)[0]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


def _rows(*argv: str) -> tuple[int, list[dict]]:
    """``validate``'s exit code and rows."""
    code, out, _ = _output("validate", *argv, "--format", "json-lines")
    return code, [json.loads(line) for line in out.splitlines()]


# --tolerance values: none, the default, and two that narrow the band more
TOLERANCES = ("0", "1e-09", "0.001", "0.2")
_SOLVERS = {"solve": (), "sweep-lambda": ("--agent", "all", "--lambdas", "1"), "sweep-root": ()}


def _check_commands(path: Path, doc: Any, rooted: bool) -> int:
    """Run every check on ``path``; the number of refusals (exit 1) that the
    converse compared with ``validate``'s rows."""
    compared = 0
    topology = doc.get("topology") if isinstance(doc, dict) else None
    kind = topology.get("kind") if isinstance(topology, dict) else None
    truth = kind in ("tree", "graph") and doc.get("beliefs") in (None, DIRAC_TRUTH)
    for tol in TOLERANCES:
        flag = ("--tolerance", tol)
        code, rows = _rows(str(path), *flag)
        codes, outs, errors = {"validate": code}, {}, {}
        for cmd, extra in _SOLVERS.items():
            codes[cmd], outs[cmd], errors[cmd] = _output(cmd, str(path), *extra, *flag)
        if rooted:
            codes["solve --root 1"] = _run("solve", str(path), "--root", "1", *flag)
        checked = ["solve", "sweep-lambda"] if kind == "tree" else []
        checked += ["sweep-root"] if truth else []
        for agent in _graph_agents(path) if truth and kind == "graph" else ():
            cmd = f"solve --root {agent}"
            codes[cmd], _, errors[cmd] = _output("solve", str(path), "--root", agent, *flag)
            checked.append(cmd)
        assert set(codes.values()) <= {0, 1, 2}, (tol, codes)

        if codes["validate"] == 0:
            # a clean tree solves; so does a clean graph from every root, for
            # a room of singleton types always has an equilibrium
            assert all(codes[cmd] in ((0, 2) if kind == "tree" else (0,)) for cmd in checked), (tol, codes)
            if kind == "tree":  # and its canonical form, beliefs spelled out, solves to the same bytes
                spelled = path.with_name(f"{path.stem}-normalized.json")
                spelled.write_text(normalize_scenario(path.read_bytes()), encoding="utf-8")
                assert _output("solve", str(spelled), *flag)[:2] == (codes["solve"], outs["solve"]), tol
        # every refusal is one of validate's rows at the same tolerance
        printed = {f"error: {_refusal(row)}\n" for row in rows}
        for cmd in checked:
            assert codes[cmd] != 1 or errors[cmd] in printed, (tol, cmd, errors[cmd], printed)
            compared += codes[cmd] == 1
        if codes["solve"] == 2 and tol == "1e-09":  # the oracle's tolerance
            _confirm_no_equilibrium(path)
    return compared


def _refusal(row: dict) -> str:
    """What a command that stops on ``validate``'s ``row`` prints after ``error: ``."""
    if row["kind"] in _STRUCTURE:
        return f"graph cannot generate a tree: {row['kind']} {row['detail']}"
    return row["detail"]


def _graph_agents(path: Path) -> tuple[str, ...]:
    """Every agent of the graph in ``path``, or "1" when it does not load."""
    try:
        return load_scenario(str(path)).graph().nodes
    except RumorcastError:
        return ("1",)


@settings(_FUZZ, max_examples=200)
@given(data=st.data())
def test_commands_exit_cleanly(workdir, data):
    path = workdir / "scenario.json"
    for name, doc, text in _mutants(data, 3):
        path.write_text(text, encoding="utf-8")
        _check_commands(path, doc, rooted=name == "three_cliques.json")


@pytest.mark.parametrize("name", sorted(UNREADABLE_DOCUMENTS))
def test_unreadable_files_exit_cleanly(workdir, name):
    path = workdir / "unreadable.json"
    document = UNREADABLE_DOCUMENTS[name]
    path.write_bytes(document)
    _check_commands(path, None, rooted=True)
    [diagnostic] = scenario_diagnostics(document)
    assert [(diagnostic.kind, diagnostic.detail)] == _entry_errors(document)
    assert diagnostic.kind == "parse-error"


def _pinned(tmp_path: Path, doc: Any) -> Path:
    """``doc`` written to a file that passes the command checks."""
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _check_commands(path, doc, rooted=False)
    return path


def test_wide_tolerance_narrows_the_band_for_validate_too(tmp_path):
    path = _pinned(tmp_path, json.loads(_SHIPPED["canonical_cascade.json"]))
    message = (
        "agent '1': sender belief: credence 0.26 outside the open interval (0.1, 0.9) "
        "narrowed by the tolerance 0.2 at each end"
    )
    code, rows = _rows(str(path), "--tolerance", "0.2")
    assert code == 1 and rows[0] == {"kind": "credence-error", "detail": message}
    for cmd in ("solve", "sweep-root"):
        assert _output(cmd, str(path), "--tolerance", "0.2") == (1, "", f"error: {message}\n")


def test_sweep_root_names_the_agent_validate_names(tmp_path):
    # the path 1 - 5 - 2: breadth first from 1 meets 5 first, node order 2
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "graph", "edges": [["1", "5"], ["5", "2"]]},
        "agents": {a: {"types": [0.3, 0.4] if a != "1" else 0.5, "lambda": 1.0} for a in ("1", "2", "5")},
        "beliefs": DIRAC_TRUTH,
    }
    path = _pinned(tmp_path, doc)
    message = "agent '2': known-type beliefs need singleton type sets"
    assert _rows(str(path)) == (1, [{"kind": "belief-error", "detail": message}])
    assert _output("sweep-root", str(path)) == (1, "", f"error: {message}\n")


def test_every_root_names_the_agent_validate_names(tmp_path):
    # breadth first from 3, 4 or 5 meets the spread agent 3 before 1; node order meets 1
    doc = json.loads(_SHIPPED["three_cliques.json"])
    for agent in ("1", "3"):
        doc["agents"][agent]["types"] = [0.3, 0.4]
    path = _pinned(tmp_path, doc)
    message = "agent '1': known-type beliefs need singleton type sets"
    assert _rows(str(path)) == (1, [{"kind": "belief-error", "detail": message}])
    for root in ("1", "2", "3", "4", "5"):
        assert _output("solve", str(path), "--root", root) == (1, "", f"error: {message}\n"), root


def test_validate_lists_the_sender_beliefs_that_read_a_leaf(tmp_path):
    # agent 5's only acquaintance is 4, so every rooting but hers makes her a child
    # of 4; the cascades from 2 and 4 reach 4's send decision
    doc = json.loads(_SHIPPED["three_cliques.json"])
    doc["agents"]["5"]["types"] = 0.97
    path = _pinned(tmp_path, doc)
    band = "credence 0.97 outside the open interval (0.1, 0.9)"
    message = f"agent '4': sender belief: {band}"
    rows = [{"kind": "credence-error", "detail": text} for text in (message, f"agent '5': types: {band}")]
    assert _rows(str(path)) == (1, rows)
    for argv in (["sweep-root"], ["solve", "--root", "2"], ["solve", "--root", "4"]):
        assert _output(argv[0], str(path), *argv[1:]) == (1, "", f"error: {message}\n"), argv


def test_every_command_names_the_first_spread_agent_in_natural_order(tmp_path):
    # breadth first from 1 meets 10 before 2
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", "10"], ["1", "2"]]},
        "agents": {a: {"types": [0.3, 0.4] if a != "1" else 0.5, "lambda": 1.0} for a in ("1", "10", "2")},
        "beliefs": DIRAC_TRUTH,
    }
    path = _pinned(tmp_path, doc)
    message = "agent '2': known-type beliefs need singleton type sets"
    assert _rows(str(path)) == (1, [{"kind": "belief-error", "detail": message}])
    for cmd, extra in _SOLVERS.items():
        assert _output(cmd, str(path), *extra) == (1, "", f"error: {message}\n"), cmd


def test_sweep_root_stops_on_the_credence_row_validate_lists(tmp_path):
    # the tree's rooms read leaf 2 only through 9's sender belief; the closure's
    # rooting at 2 reads her own type first
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "5", "edges": [["5", "1"], ["5", "9"], ["9", "2"]]},
        "agents": {a: {"types": x, "lambda": 1.0} for a, x in (("5", 0.5), ("1", 0.15), ("9", 0.5), ("2", 0.97))},
        "beliefs": DIRAC_TRUTH,
    }
    path = _pinned(tmp_path, doc)
    message = "agent '9': sender belief: credence 0.97 outside the open interval (0.1, 0.9)"
    assert _rows(str(path)) == (1, [{"kind": "credence-error", "detail": message}])
    assert _output("sweep-root", str(path)) == (1, "", f"error: {message}\n")
    assert _run("solve", str(path)) == 0


def test_receiver_credence_range_ignores_the_tolerance(tmp_path):
    # a leaf credence past 1 by less than the range slack that type sets accept
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", "2"]]},
        "agents": {"1": {"types": 0.8, "lambda": 1.0}, "2": {"types": 1.0000000005, "lambda": 1.0}},
        "beliefs": {
            "default": "none",
            "agents": {"1": {"sender": {"dirac": [0.5]}}, "2": {"receiver": {"dirac": [0.8]}}},
        },
    }
    path = _pinned(tmp_path, doc)
    for tol in TOLERANCES[:-1]:  # at 0.2 the band (0.3, 0.7) leaves out the sender's 0.8
        assert _rows(str(path), "--tolerance", tol)[0] == 0
        assert _run("solve", str(path), "--tolerance", tol) == 0, tol


_STRUCTURE = ("self-loop", "disconnected", "open-circle", "overlapping-circles")


def _rewire(rnd: random.Random, doc: Any) -> Any:
    """``doc`` with one acquaintance dropped, added or moved, in place, when
    it still holds a list of edges; a type-changing mutation cannot do that."""
    topology = doc.get("topology") if isinstance(doc, dict) else None
    edges = topology.get("edges") if isinstance(topology, dict) else None
    if not isinstance(edges, list) or not edges:
        return doc
    ids = ["1", "2", "3", "4", "5"]
    how = rnd.choice(["drop", "add", "move"])
    if how == "drop":
        del edges[rnd.randrange(len(edges))]
    elif how == "add":
        edges.append([rnd.choice(ids), rnd.choice(ids)])
    elif isinstance(pair := rnd.choice(edges), list) and pair:
        pair[rnd.randrange(len(pair))] = rnd.choice(ids)
    return doc


def _spread(rnd: random.Random, doc: Any) -> Any:
    """``doc`` with one agent's single credence widened into two credences
    or an interval, in place, when some agent still has one."""
    agents = doc.get("agents") if isinstance(doc, dict) else None
    single = [
        spec for spec in (agents.values() if isinstance(agents, dict) else ())
        if isinstance(spec, dict) and isinstance(spec.get("types"), float)
    ]
    if single:
        spec = rnd.choice(single)
        low = spec["types"]
        spec["types"] = rnd.choice([[low, low + 0.05], {"interval": [low, low + 0.05]}])
    return doc


def test_graph_files_are_rooted_only_when_valid(tmp_path):
    rnd = random.Random(20261019)
    bases = [text for name, text in BASES if name == "three_cliques.json"]
    path = tmp_path / "graph.json"
    rooted, refused, truthful, compared = 0, [], 0, 0
    for _ in range(500):
        doc = json.loads(rnd.choice(bases))
        for _ in range(3):
            how = rnd.random()
            doc = _mutate(rnd, doc) if how < 0.5 else _rewire(rnd, doc) if how < 0.9 else _spread(rnd, doc)
            text = json.dumps(doc)
            path.write_text(text, encoding="utf-8")
            try:
                scenario = load_scenario(str(path))
            except RumorcastError:
                continue
            if scenario.topology.kind != "graph" or not scenario.attrs:
                continue
            compared += _check_commands(path, doc, rooted=False)
            truthful += doc.get("beliefs") in (None, DIRAC_TRUTH)
            structure = [d for d in scenario_diagnostics(text) if d.kind in _STRUCTURE]
            graph = scenario.graph()
            try:
                root_tree(graph, graph.nodes[0])
            except InvalidGraph as exc:
                assert structure, text
                assert str(exc) == f"graph cannot generate a tree: {structure[0].kind} {structure[0].detail}", text
                assert _run("solve", str(path), "--root", graph.nodes[0]) == 1, text
                refused.append(structure[0].kind)
            else:
                assert not structure, text
                rooted += 1
    print(f"{rooted} graph mutants rooted, {len(refused)} refused: {sorted(set(refused))}")
    print(f"{truthful} with dirac-truth beliefs; {compared} refusals matched to validate rows")
    assert rooted >= 100 and len(refused) >= 100 and set(refused) == set(_STRUCTURE)
    assert truthful >= 500 and compared >= 5000


def _confirm_no_equilibrium(path: Path) -> bool:
    """Assert that enumeration finds no equilibrium profile in the room where
    ``solve`` stopped; False when that room is too large to enumerate."""
    scenario = load_scenario(str(path))
    tree = scenario.tree()
    profiles = scenario.profiles_for(tree)
    room = solve_global(tree, profiles, scenario.evidence).failing_room
    assert room is not None
    receivers = tuple(
        ReceiverSpec(r, profiles[r].type_set, profiles[r].lam, profiles[r].receiver_belief)
        for r in tree.children_of(room)
    )
    try:
        found = oracle_chatroom_profiles(ChatroomGame(room, profiles[room].type_set, receivers))
    except InstanceTooLarge:
        return False
    assert found == frozenset(), (room, found)
    return True


def _credence(rnd: random.Random) -> float:
    return round(rnd.uniform(0.12, 0.88), 3)


def _atoms(rnd: random.Random, peer_types: list[list[float]]) -> dict:
    """One or two atoms over the peers, each coordinate one of that peer's types."""
    weights = rnd.choice([[1.0], [0.5, 0.5], [0.25, 0.75]])
    return {"atoms": [{"profile": [rnd.choice(t) for t in peer_types], "weight": w} for w in weights]}


def _small_explicit_scenario(rnd: random.Random) -> dict:
    """A tree of 2 to 5 agents with spread type sets and explicit beliefs."""
    n = rnd.randint(2, 5)
    parent = {k: rnd.randrange(k) for k in range(1, n)}
    children = {k: [c for c in range(1, n) if parent[c] == k] for k in range(n)}
    types = [
        [_credence(rnd)] if rnd.random() < 0.4 else sorted({_credence(rnd) for _ in range(rnd.randint(2, 3))})
        for _ in range(n)
    ]
    types[0] = [round(rnd.uniform(0.8, 0.89), 3)]  # a root that often sends
    beliefs = {}
    for k in range(n):
        entry = {}
        if k:
            peers = [parent[k]] + [s for s in children[parent[k]] if s != k]
            entry["receiver"] = _atoms(rnd, [types[p] for p in peers])
        if children[k]:
            entry["sender"] = _atoms(rnd, [types[c] for c in children[k]])
        beliefs[str(k + 1)] = entry
    return {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {
            "kind": "tree",
            "root": "1",
            "edges": [[str(parent[c] + 1), str(c + 1)] for c in range(1, n)],
        },
        "agents": {
            str(k + 1): {
                "types": types[k][0] if len(types[k]) == 1 else types[k],
                "lambda": round(rnd.uniform(0.0, 3.0), 3),
                "ell": rnd.randint(0, 2),
            }
            for k in range(n)
        },
        "beliefs": {"default": "none", "agents": beliefs},
    }


def test_no_equilibrium_exits_are_confirmed_by_the_oracle(tmp_path):
    rnd = random.Random(20261018)
    path = tmp_path / "small.json"
    codes, checked = [], 0
    for _ in range(400):
        path.write_text(json.dumps(_small_explicit_scenario(rnd)), encoding="utf-8")
        codes.append(_run("solve", str(path)))
        if codes[-1] == 2:
            checked += _confirm_no_equilibrium(path)
    assert set(codes) <= {0, 2}
    assert checked >= 80, (checked, codes.count(2))
