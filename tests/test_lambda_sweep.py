"""``sweep_lambda`` against one ``solve_global`` per sensitivity.

``sweep_lambda`` builds each room's peers and makes each (sender, gate open)
send decision once for a whole grid of sensitivities.  The reference here,
``_per_lambda``, is what ``sweep-lambda`` ran before: for each value, the
agent table with its sensitivity column replaced, profiles built on it and
one ``solve_global``.  Both must give equal results and stop at the same value
with the same error.  ``_ref_command`` is the command as it was, report and
all: ``main`` must print what it printed and exit as it exited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

from rumorcast import chatroom, network, sender
from rumorcast.chatroom import TypeSet
from rumorcast.cli import _render, _scenario_tree, main
from rumorcast.errors import RumorcastError
from rumorcast.network import (
    AgentProfile,
    AgentTable,
    BeliefOverride,
    OrderedTree,
    TreeProfiles,
    dirac_truth_profiles,
    natural_sorted,
    root_tree,
    solve_global,
    sweep_lambda,
)
from rumorcast.receiver import SecondOrderBelief, check_sensitivity
from rumorcast.scenario import load_scenario, parse_scenario
from rumorcast.sender import SenderAction

from helpers import canonical_mu, random_tree
from test_blocks import _closure, _known_types, _open_windmill
from test_explicit_beliefs import _explicit_draw
from test_room_kernel import _draw_attrs_within, _lam
from test_truth_rooms import _draw_overrides, _outcome, _wide_tree

_SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
_SCENARIOS = ("canonical_cascade", "three_cliques", "worldview_gap_pair")


def _swept(table: AgentTable, lam: float, agent) -> AgentTable:
    """``table`` with sensitivity ``lam`` for ``agent``, or for every agent when None."""
    column = [lam if agent in (None, a) else table.lam[k] for k, a in enumerate(table)]
    return AgentTable(list(table), table.theta, table.type_sets, column, table.ell)


def _per_lambda(tree, profiles: TreeProfiles, mu, lams, agent, tol) -> list:
    """Each value's ``_outcome``, up to the first that raises."""
    out = []
    for lam in lams:
        try:
            check_sensitivity(lam)
            swept = TreeProfiles(tree, _swept(profiles.attrs, lam, agent), profiles.overrides,
                                 truth=profiles.theta is not None)
            result = solve_global(tree, swept, mu, tol)
        except RumorcastError as exc:
            return out + [(type(exc), str(exc))]
        out.append(_outcome(lambda: result))
    return out


def _sweep(tree, profiles, mu, lams, agent, tol) -> list:
    out = []
    try:
        for result in sweep_lambda(tree, profiles, mu, lams, agent, tol):
            out.append(_outcome(lambda: result))
    except RumorcastError as exc:
        out.append((type(exc), str(exc)))
    return out


def _grid(rng: np.random.Generator) -> list[float]:
    """2 to 6 sensitivities in random order: 0, where reactions follow
    credences alone, quarters, where dyadic sums tie exactly, and others from
    0 up to 1e300."""
    values = [0.0] + [float(rng.integers(0, 17)) / 4.0 if rng.random() < 0.5 else _lam(rng)
                      for _ in range(int(rng.integers(1, 6)))]
    rng.shuffle(values)
    return values


def _pick_agent(rng: np.random.Generator, tree, kind: str):
    """The swept agent: None for every agent, else the root, an inner agent
    or a leaf (the root when the tree has none of that kind)."""
    if kind == "all":
        return None
    inner = [a for a in tree.agents if a != tree.root and tree.children_of(a)]
    leaves = [a for a in tree.agents if a != tree.root and not tree.children_of(a)]
    pool = {"root": [], "inner": inner, "leaf": leaves}[kind] or [tree.root]
    return pool[int(rng.integers(0, len(pool)))]


def _tally(counts: Counter, got: list) -> None:
    results = [row for row in got if not isinstance(row[0], type)]
    counts["raised"] += len(results) < len(got)
    counts["raised_late"] += 0 < len(results) < len(got)  # some values' cascades did not reach it
    counts["multiple"] += any(row[5] for row in results)
    counts["failing"] += any(row[6] is not None for row in results)
    counts["moved"] += len({tuple(sorted(row[0].items())) for row in results}) > 1  # reactions move with λ


def _gate_flip(rng: np.random.Generator, mu, theta) -> tuple[OrderedTree, dict]:
    """A root near the top of the band, whose room believes the message but
    for agent 2: she disapproves at sensitivity 0 and, with a high enough
    one, conforms.  Her threshold is 1, so her gate opens only then, and one
    of her own receivers sits on the edge of the evidence band."""
    k, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    edges = [("1", str(i)) for i in range(2, k + 3)] + [("2", str(k + 3 + j)) for j in range(m)]
    tree = OrderedTree.from_edges("1", edges)
    top = mu.mu_given_c - 0.02
    attrs = {a: AgentProfile(TypeSet.singleton(theta()), float(rng.uniform(0, 2)), 1) for a in tree.agents}
    attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
    for i in range(3, k + 3):
        attrs[str(i)] = AgentProfile(TypeSet.singleton(float(rng.uniform(top - 0.1, top))), 1.0)
    attrs["2"] = AgentProfile(TypeSet.singleton(mu.mu_given_not_c + 0.05), 1.0, 1)
    victim = str(k + 3 + int(rng.integers(0, m)))
    attrs[victim] = AgentProfile(TypeSet.singleton(mu.mu_given_not_c), 1.0, 1)
    return tree, attrs


def test_known_type_sweeps_match_one_solve_per_lambda():
    rng = np.random.default_rng(2424)
    counts: Counter = Counter()
    for draw in range(900):
        tol = (0.0, 1e-9)[int(rng.integers(0, 2))]
        wide = rng.random() < 0.2
        tree = _wide_tree(rng) if wide else random_tree(rng, int(rng.integers(2, 13)))
        attrs, mu, theta = _draw_attrs_within(rng, tree, bool(rng.random() < 0.5), tol)
        if wide:  # a root near the top of the band gains from any audience, so her room opens
            attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
        if draw % 3 == 2:
            tree, attrs = _gate_flip(rng, mu, theta)
        elif rng.random() < 0.3:  # an off-band credence, read only by cascades that reach her room
            victim = tree.agents[int(rng.integers(1, len(tree.agents)))]
            attrs[victim] = AgentProfile(TypeSet.singleton(mu.mu_given_not_c), 1.0, attrs[victim].ell)
        overrides = _draw_overrides(rng, tree, attrs, theta) if rng.random() < 0.3 else {}
        profiles = TreeProfiles(tree, attrs, overrides)
        kind = ("all", "root", "inner", "leaf")[draw % 4]
        agent, lams = _pick_agent(rng, tree, kind), _grid(rng)
        got = _sweep(tree, profiles, mu, lams, agent, tol)
        assert got == _per_lambda(tree, profiles, mu, lams, agent, tol), draw
        _tally(counts, got)
        counts[kind] += 1
    print(dict(counts))
    assert counts["raised_late"] >= 20 and counts["raised"] >= 100
    assert counts["multiple"] >= 30 and counts["moved"] >= 40


def _on_grid(doc: dict) -> dict:
    """``doc`` with every credence moved to the nearest eighth.  The move
    is monotone, so a belief inside its peers' type sets stays inside them,
    and at sensitivity 0 a credence of 1/4 or 3/4 ties two reactions."""
    snap = lambda x: round(x * 8) / 8  # noqa: E731
    for spec in doc["agents"].values():
        types = spec["types"]
        if isinstance(types, dict):
            spec["types"] = {"interval": list(map(snap, types["interval"]))}
        else:
            spec["types"] = list(map(snap, types)) if isinstance(types, list) else snap(types)
    for entry in doc["beliefs"]["agents"].values():
        for belief in entry.values():
            for atom in belief["atoms"]:
                atom["profile"] = list(map(snap, atom["profile"]))
    return doc


def test_explicit_belief_sweeps_match_one_solve_per_lambda():
    # list and interval types under explicit beliefs, some of them faulty:
    # rooms fail or hold several equilibria, and beliefs are refused at entry
    rnd, rng = random.Random(2425), np.random.default_rng(2425)
    counts: Counter = Counter()
    for draw in range(2000):
        doc, _ = _explicit_draw(rnd, draw if draw % 3 else 0)  # one draw in three has no fault
        if rng.random() < 0.5:
            doc = _on_grid(doc)
        scenario = parse_scenario(json.dumps(doc))
        tree = scenario.tree()
        profiles = scenario.profiles_for(tree)
        tol = (0.0, 1e-9)[int(rng.integers(0, 2))]
        agent, lams = _pick_agent(rng, tree, ("all", "root", "inner", "leaf")[draw // 2 % 4]), _grid(rng)
        got = _sweep(tree, profiles, scenario.evidence, lams, agent, tol)
        assert got == _per_lambda(tree, profiles, scenario.evidence, lams, agent, tol), (draw, doc)
        _tally(counts, got)
        counts["intervals"] += any(isinstance(spec["types"], dict) for spec in doc["agents"].values())
    print(dict(counts))
    assert counts["failing"] >= 150 and counts["multiple"] >= 25 and counts["raised"] >= 500
    assert counts["intervals"] >= 800 and counts["moved"] >= 150


def test_graph_sweeps_match_one_solve_per_lambda():
    rng, mu = np.random.default_rng(2426), canonical_mu()
    counts: Counter = Counter()
    for draw in range(360):
        if draw % 2:
            g, attrs = _open_windmill(rng, dyadic=draw % 4 == 1)
        else:
            g = _closure(rng, 20)
            attrs = _known_types(rng, g, dyadic=draw % 4 == 0)
        tree = root_tree(g, g.nodes[int(rng.integers(0, len(g.nodes)))])
        profiles = TreeProfiles(tree, attrs)
        tol = (0.0, 1e-9)[int(rng.integers(0, 2))]
        agent, lams = _pick_agent(rng, tree, ("all", "root", "inner", "leaf")[draw // 2 % 4]), _grid(rng)
        got = _sweep(tree, profiles, mu, lams, agent, tol)
        assert got == _per_lambda(tree, profiles, mu, lams, agent, tol), draw
        _tally(counts, got)
    print(dict(counts))
    assert counts["moved"] >= 25 and counts["multiple"] >= 10


# ---------------------------------------------------------------------------
# the command


def _ref_command(path: str, agent, lams: list[float], root, fmt: str, tol: float) -> tuple[int, str, str]:
    """``sweep-lambda`` as it was: per value, the scenario with its
    sensitivity column replaced, profiles built on it and one
    ``solve_global``, each row's cells formatted anew.  Returns the exit
    code, stdout and stderr."""
    try:
        scenario = load_scenario(path)
        tree = _scenario_tree(scenario, root)
        rows = []
        for lam in lams:
            swept = dataclasses.replace(scenario, attrs=_swept(scenario.attrs, lam, agent))
            result = solve_global(tree, swept.profiles_for(tree), scenario.evidence, tol)
            reactions = ";".join(
                f"{a}={result.receiver_actions[a].word}" for a in natural_sorted(result.receiver_actions)
            )
            sends = ";".join(
                f"{a}={'send' if result.sender_actions[a] is SenderAction.SEND else 'no-send'}"
                for a in natural_sorted(result.sender_actions)
            )
            rows.append((lam, reactions or None, sends or None, result.reach_count, result.exists, result.unique))
    except RumorcastError as exc:
        return 1, "", f"error: {exc}\n"
    columns = ["lambda", "reactions", "sends", "reach_count", "exists", "unique"]
    return 0, _render([dict(zip(columns, map(list, zip(*rows))))], columns, fmt), ""


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _doc(topology: dict, attrs: dict, mu) -> dict:
    return {
        "evidence": {"mu_given_c": mu.mu_given_c, "mu_given_not_c": mu.mu_given_not_c},
        "topology": topology,
        "agents": {a: {"types": p.type_set.value, "lambda": p.lam, "ell": p.ell} for a, p in attrs.items()},
        "beliefs": "dirac-truth",
    }


def test_the_command_prints_what_one_solve_per_lambda_printed(tmp_path):
    rng, rnd = np.random.default_rng(2427), random.Random(2427)
    path = tmp_path / "scenario.json"
    counts: Counter = Counter()
    for draw in range(360):
        kind, root = ("tree", "explicit", "graph", "shipped")[draw % 4], None
        if kind == "tree":
            tree = random_tree(rng, int(rng.integers(2, 13))) if draw % 3 else _wide_tree(rng)
            attrs, mu, theta = _draw_attrs_within(rng, tree, bool(rng.random() < 0.5), 0.0)
            if rng.random() < 0.3:  # an off-band credence
                victim = tree.agents[int(rng.integers(1, len(tree.agents)))]
                attrs[victim] = AgentProfile(TypeSet.singleton(mu.mu_given_not_c), 1.0, attrs[victim].ell)
            topology = {"kind": "tree", "root": tree.root, "edges": [list(e) for e in tree.edges()]}
            path.write_text(json.dumps(_doc(topology, attrs, mu)), encoding="utf-8")
        elif kind == "explicit":
            doc = _explicit_draw(rnd, 0 if draw % 8 == 1 else draw)[0]  # half with no fault
            path.write_text(json.dumps(_on_grid(doc) if draw % 3 else doc), encoding="utf-8")
        elif kind == "graph":
            g = _closure(rng, 20)
            topology = {"kind": "graph", "edges": [list(e) for e in g.edges()]}
            path.write_text(json.dumps(_doc(topology, _known_types(rng, g, draw % 8 == 2), canonical_mu())))
        else:
            path = _SCENARIOS_DIR / f"{_SCENARIOS[draw // 4 % 3]}.json"
        scenario = load_scenario(str(path))
        if scenario.topology.kind == "graph":
            graph = scenario.graph()
            root = graph.nodes[int(rng.integers(0, len(graph.nodes)))]
        tree = _scenario_tree(scenario, root)
        agent, lams = _pick_agent(rng, tree, ("all", "root", "inner", "leaf")[draw // 4 % 4]), _grid(rng)
        fmt, tol = ("table", "csv", "json-lines")[draw % 3], (0.0, 1e-9)[int(rng.integers(0, 2))]
        argv = ["sweep-lambda", str(path), "--agent", "all" if agent is None else agent,
                "--lambdas", ",".join(map(repr, lams)), "--format", fmt, "--tolerance", repr(tol)]
        got = _run(argv + ([] if root is None else ["--root", root]))
        assert got == _ref_command(str(path), agent, lams, root, fmt, tol), (draw, argv)
        counts[kind, got[0]] += 1
        path = tmp_path / "scenario.json"
    print(dict(counts))
    assert all(counts[kind, 0] >= 20 for kind in ("tree", "explicit", "graph", "shipped"))
    assert counts["tree", 1] >= 10 and counts["explicit", 1] >= 10


# ---------------------------------------------------------------------------
# what a sweep shares


def test_a_sweep_builds_each_room_and_makes_each_decision_once(monkeypatch):
    sums: Counter = Counter()  # room credence lists summed exactly
    distances: Counter = Counter()  # explicit receiver beliefs collapsed
    decided: Counter = Counter()  # (sender, gate open)
    rules = Counter()  # send_rule calls
    exact_parts, peer_distance, decide = network._exact_parts, chatroom.peer_distance, network._decide
    monkeypatch.setattr(network, "_exact_parts", lambda xs: sums.update([tuple(xs)]) or exact_parts(xs))
    monkeypatch.setattr(chatroom, "peer_distance", lambda belief: distances.update([id(belief)]) or peer_distance(belief))
    monkeypatch.setattr(
        network, "_decide",
        lambda profiles, agent, kids, mu, ell, disapprovals, tol: decided.update([(agent, ell > disapprovals)])
        or decide(profiles, agent, kids, mu, ell, disapprovals, tol),
    )
    for module in (network, sender):  # the engine's binding and decide_send's
        rule = module.send_rule
        monkeypatch.setattr(module, "send_rule", lambda *args, rule=rule: rules.update(["calls"]) or rule(*args))
    rng = np.random.default_rng(2428)
    ours = theirs = 0
    for draw in range(40):
        tree = _wide_tree(rng)
        attrs, mu, theta = _draw_attrs_within(rng, tree, draw % 2 == 1, 1e-9)
        attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
        truth = dirac_truth_profiles(tree, attrs)
        overrides = {  # explicit receiver beliefs for some: the truth, in two atoms
            a: BeliefOverride(receiver=SecondOrderBelief.mixture([(p, 0.5), (p, 0.5)]))
            for a in tree.agents[1:] if rng.random() < 0.2
            for p in [truth[a].receiver_belief.atoms[0].profile]
        }
        profiles = TreeProfiles(tree, attrs, overrides)
        lams = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        rng.shuffle(lams)
        for counter in (sums, distances, decided, rules):
            counter.clear()
        results = list(sweep_lambda(tree, profiles, mu, lams, None, 1e-9))
        opened = {s for result in results for s in result.room_equilibria}
        receivers = [r for s in opened for r in tree.children_of(s)]
        assert sums.total() == len({s for s in opened if any(r not in overrides for r in tree.children_of(s))})
        assert max(sums.values(), default=1) == 1, draw
        assert sorted(distances) == sorted(id(overrides[r].receiver) for r in receivers if r in overrides), draw
        assert max(distances.values(), default=1) == 1, draw
        assert max(decided.values()) == 1 and rules.total() == decided.total(), draw
        ours += sums.total() + distances.total() + rules.total()
        for counter in (sums, distances, rules):
            counter.clear()
        _per_lambda(tree, profiles, mu, lams, None, 1e-9)
        theirs += sums.total() + distances.total() + rules.total()
    assert 3 * ours < theirs, (ours, theirs)


def test_a_sweep_over_one_agent_folds_only_her_room_again(monkeypatch):
    # a room folds again only when some receiver's sensitivity changed since
    # its last fold, so a sweep over one agent folds every other room once
    folds: Counter = Counter()  # by the room's receivers
    fold = network.fold_room
    monkeypatch.setattr(
        network, "fold_room",
        lambda rows, lams, tol: folds.update([tuple(row[0] for row in rows)]) or fold(rows, lams, tol),
    )
    rng = np.random.default_rng(2430)
    swept = refolded = reused = 0
    for draw in range(300):
        tree = _wide_tree(rng) if draw % 2 else random_tree(rng, int(rng.integers(2, 13)))
        attrs, mu, theta = _draw_attrs_within(rng, tree, draw % 4 < 2, 1e-9)
        attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
        overrides = _draw_overrides(rng, tree, attrs, theta) if draw % 3 == 0 else {}
        agent = _pick_agent(rng, tree, ("root", "inner", "leaf")[draw % 3])
        lams = _grid(rng) * 2  # every value twice, so her room sees each again
        folds.clear()
        try:
            results = list(sweep_lambda(tree, TreeProfiles(tree, attrs, overrides), mu, lams, agent, 1e-9))
        except RumorcastError:
            continue
        swept += 1
        parent = tree.parent_of(agent)
        hers = None if parent is None else tree.children_of(parent)
        assert all(n == 1 for room, n in folds.items() if room != hers), draw
        last, want = None, 0  # her room folds where it opens at another value than at its last fold
        for lam, result in zip(lams, results):
            if parent in result.room_equilibria and lam != last:
                last, want = lam, want + 1
        assert folds[hers] == want, draw
        refolded += want > 1
        reused += want < sum(parent in result.room_equilibria for result in results)
    assert swept >= 200 and refolded >= 50 and reused >= 30, (swept, refolded, reused)


def test_a_sweep_yields_its_last_result_again_exactly_when_nothing_changed():
    # a room whose new fold equals its last keeps the last one's object, and a
    # cascade whose opened rooms all keep theirs is the last cascade again
    rng = np.random.default_rng(2805)
    pairs: Counter = Counter()
    for draw in range(200):
        tree = _wide_tree(rng) if draw % 2 else random_tree(rng, int(rng.integers(2, 13)))
        attrs, mu, theta = _draw_attrs_within(rng, tree, draw % 4 < 2, 1e-9)
        attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
        overrides = _draw_overrides(rng, tree, attrs, theta) if draw % 3 == 0 else {}
        agent = _pick_agent(rng, tree, ("all", "root", "inner", "leaf")[draw % 4])
        lams = [lam for lam in _grid(rng) for _ in range(int(rng.integers(1, 3)))]  # some values twice running
        try:
            results = list(sweep_lambda(tree, TreeProfiles(tree, attrs, overrides), mu, lams, agent, 1e-9))
        except RumorcastError:
            continue
        for i in range(1, len(results)):
            last, result = results[i - 1], results[i]
            same = _outcome(lambda: last) == _outcome(lambda: result)
            assert (result is last) == same, draw
            pairs["again" if same else "new"] += 1
            pairs["again, other value"] += same and lams[i] != lams[i - 1]
    assert min(pairs.values()) >= 50, pairs
