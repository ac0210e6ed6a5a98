"""Explicit-belief trees read through ``TreeProfiles``, against a plain dict.

A scenario whose beliefs default to ``"none"`` states every belief it has
as an override, and ``Scenario.profiles_for`` reads them through
:class:`TreeProfiles` without known-type beliefs.  These tests check that
mapping against the dict of one profile per agent that explicit beliefs
were once attached as (``_ref_attach_beliefs``), the belief check against
the check that dict was once given (``_ref_check_profiles``), and the
credence rows against the check ``validate`` once made on its own
(``_ref_credence_diagnostics``).  Random small trees with list and interval
types carry beliefs that are sometimes missing, misshapen, off their peers'
type sets, of the wrong width for a sender, or off the evidence band.  For
every draw:

- ``dict(profiles_for(tree))`` equals the reference dict;
- ``solve_global`` gives equal results on the mapping and on the dict, or
  raises the same error type and text, which is the reference check's;
- every room it solves equals ``solve_chatroom`` on a ``ChatroomGame``
  assembled from the dict;
- ``scenario_diagnostics`` holds the reference check's error as its
  ``belief-error`` row and the credence rows for the stated sender beliefs.

The belief check tests each room against bounds built once; draws with
coordinates on the edges of their peers' type sets hold it to a copy of the
coordinate-by-coordinate walk (``_ref_check_receiver_belief``), and a clean
300-receiver star pins its cost: no call per coordinate.  The parser checks
a clean file's beliefs and interval types in passes over the whole file,
and a clean 37-agent file pins that: no call per belief or per type set.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from itertools import groupby

import pytest

from rumorcast import (
    AgentProfile,
    BeliefOverride,
    Diagnostic,
    DomainError,
    InvariantViolation,
    OrderedTree,
    RumorcastError,
    SchemaError,
    SecondOrderBelief,
    TreeProfiles,
    TypeSet,
    parse_scenario,
    scenario_diagnostics,
    solve_chatroom,
    solve_global,
    validate_evidence,
)
from rumorcast.belief import EPS, require_credence
from rumorcast import network, receiver, scenario
from rumorcast.chatroom import _span, check_receiver_belief
from rumorcast.cli import main
from rumorcast.network import _check_profiles

from test_fuzz import _small_explicit_scenario
from test_truth_rooms import _apply, _game, _outcome

DRAWS = 2400
# what each belief error says, the sender's before the receiver's
_ERRORS = ("has no sender belief", "sender belief covers", "has no receiver belief", "belief covers", "outside")


def _ref_attach_beliefs(tree, attrs, overrides):
    """Explicit beliefs as a plain dict: every agent's profile, her stated
    beliefs applied."""
    return {
        agent: _apply(overrides[agent], attrs[agent]) if agent in overrides else attrs[agent]
        for agent in tree.agents
    }


def _ref_contains(type_set, x) -> bool:
    """``type_set.contains(x)`` to ``EPS``, as it was written."""
    if type_set.values is not None:
        return any(abs(x - v) <= EPS for v in type_set.values)
    lo, hi = type_set.bounds
    return lo - EPS <= x <= hi + EPS


def _ref_check_receiver_belief(agent, belief, peer_sets) -> None:
    """A receiver's belief against her peers' type sets, coordinate by coordinate."""
    if belief is None:
        raise InvariantViolation(f"agent {agent!r} is a receiver but has no receiver belief")
    if belief.dim != len(peer_sets):
        raise InvariantViolation(
            f"receiver {agent!r}: belief covers {belief.dim} peers, "
            f"chatroom has {len(peer_sets)}"
        )
    for atom in belief.atoms:
        for k, (x, ts) in enumerate(zip(atom.profile, peer_sets)):
            if not _ref_contains(ts, x):
                raise InvariantViolation(
                    f"receiver {agent!r}: belief support point {x!r} "
                    f"(peer #{k}) outside that peer's type set"
                )


def _ref_check_profiles(tree, profiles) -> None:
    """Every agent's beliefs checked against ``tree``: sender beliefs in tree
    order, then receiver beliefs room by room, a missing one first."""
    receiver_beliefs = []
    for agent in tree.agents:
        if agent not in profiles:
            raise InvariantViolation(f"no profile for agent {agent!r}")
        receiver, sender = profiles[agent].receiver_belief, profiles[agent].sender_belief
        kids = tree.children_of(agent)
        if kids:
            if sender is None:
                raise InvariantViolation(f"agent {agent!r} can send but has no sender belief")
            if sender.dim != len(kids):
                raise InvariantViolation(
                    f"agent {agent!r}: sender belief covers {sender.dim} "
                    f"receivers, has {len(kids)} successors"
                )
        if agent != tree.root:
            receiver_beliefs.append((agent, receiver))
    for parent, room in groupby(receiver_beliefs, key=lambda item: tree.parent[item[0]]):
        for agent, belief in sorted(room, key=lambda item: item[1] is not None):
            peers = [parent] + [sib for sib in tree.children_of(parent) if sib != agent]
            _ref_check_receiver_belief(agent, belief, [profiles[p].type_set for p in peers])


def _ref_credence_diagnostics(senders, attrs, sender_belief, mu) -> list[Diagnostic]:
    """Off-band credences the send rule would evaluate: each sender's type
    hull and her sender-belief coordinates."""
    out = []
    for agent in senders:
        checked = [("types", x) for x in dict.fromkeys(attrs[agent].type_set.hull)]
        belief = sender_belief(agent)
        if belief is not None:
            coords = dict.fromkeys(x for atom in belief.atoms for x in atom.profile)
            checked += [("sender belief", x) for x in coords]
        for where, x in checked:
            try:
                require_credence(x, mu)
            except RumorcastError as exc:
                out.append(Diagnostic("credence-error", f"agent {agent!r}: {where}: {exc}"))
    return out


def _atom_profiles(belief: dict) -> list[list[float]]:
    return [atom["profile"] for atom in belief["atoms"]]


def _explicit_draw(rnd: random.Random, draw: int) -> tuple[dict, str]:
    """A small explicit-belief scenario, some list types widened to their
    intervals, with one kind of fault (or none) planted in its beliefs."""
    doc = _small_explicit_scenario(rnd)
    for spec in doc["agents"].values():
        if isinstance(spec["types"], list) and rnd.random() < 0.5:
            spec["types"] = {"interval": [spec["types"][0], spec["types"][-1]]}
    beliefs = doc["beliefs"]["agents"]
    fault = ("none", "missing", "misshapen", "off-support", "wide-sender", "off-band")[draw % 6]
    sides = [(agent, side) for agent, entry in beliefs.items() for side in entry]
    if fault == "none" or not sides:
        return doc, "none"
    agent, side = rnd.choice(sides)
    profiles = _atom_profiles(beliefs[agent][side])
    if fault == "missing":
        del beliefs[agent][side]
        if not beliefs[agent]:
            del beliefs[agent]
    elif fault == "misshapen":
        shorter = len(profiles[0]) > 1 and rnd.random() < 0.5
        for profile in profiles:
            profile[len(profile) - 1 :] = profile[-1:] * (0 if shorter else 2)
    elif fault == "off-support":
        # every type lies in [0.12, 0.88], so 0.11 is in no peer's type set
        k = rnd.randrange(len(profiles[0]))
        for profile in profiles:
            profile[k] = 0.11
    elif fault == "wide-sender":
        senders = [a for a, entry in beliefs.items() if "sender" in entry]
        if not senders:
            return doc, "none"
        for profile in _atom_profiles(beliefs[rnd.choice(senders)]["sender"]):
            profile.append(0.5)
    else:  # a credence past mu_given_c, which the send rule cannot evaluate
        for profile in profiles:
            profile[0] = 0.95
    return doc, fault


def _ref_diagnostics(scenario, tree, reference) -> list[Diagnostic]:
    out = []
    try:
        _ref_check_profiles(tree, reference)
    except RumorcastError as exc:
        out.append(Diagnostic("belief-error", str(exc)))
    overrides = scenario.belief_overrides
    stated = lambda agent: overrides[agent].sender if agent in overrides else None  # noqa: E731
    return out + _ref_credence_diagnostics(tree.non_terminals, scenario.attrs, stated, scenario.evidence)


def test_explicit_beliefs_match_the_dict_path():
    rnd = random.Random(20261019)
    faults: Counter = Counter()
    errors: Counter = Counter()
    intervals = rooms = credence_rows = 0
    for draw in range(DRAWS):
        doc, fault = _explicit_draw(rnd, draw)
        text = json.dumps(doc)
        scenario = parse_scenario(text)
        tree = scenario.tree()
        reference = _ref_attach_beliefs(tree, scenario.attrs, scenario.belief_overrides)
        profiles = scenario.profiles_for(tree)
        assert isinstance(profiles, TreeProfiles) and profiles.theta is None
        assert dict(profiles) == reference, draw

        got = _outcome(lambda: solve_global(tree, profiles, scenario.evidence))
        want = _outcome(lambda: solve_global(tree, reference, scenario.evidence))
        assert got == want, (draw, text)
        try:
            _ref_check_profiles(tree, reference)
        except RumorcastError as exc:
            assert got == (type(exc), str(exc)), (draw, text)
            errors[next(kind for kind in _ERRORS if kind in str(exc))] += 1
        else:
            if isinstance(got[0], type):  # raised while solving: an off-band sender credence
                errors["solve"] += 1
            else:
                for sender, eq in got[-1].items():
                    assert solve_chatroom(_game(tree, reference, sender)) == eq, (draw, sender)
                    rooms += 1

        diagnostics = scenario_diagnostics(text)
        assert diagnostics == _ref_diagnostics(scenario, tree, reference), (draw, text)
        credence_rows += any(row.kind == "credence-error" for row in diagnostics)
        faults[fault] += 1
        intervals += any(isinstance(spec["types"], dict) for spec in doc["agents"].values())
    print(f"{DRAWS} draws: faults {dict(faults)}, errors {dict(errors)}, "
          f"{intervals} with interval types, {rooms} rooms checked, {credence_rows} with credence rows")
    assert all(errors[kind] >= 100 for kind in _ERRORS) and errors["solve"] >= 50
    assert rooms >= 450 and intervals >= 800 and credence_rows >= 100
    assert all(faults[kind] >= 250 for kind in ("none", "missing", "misshapen", "off-support", "wide-sender", "off-band"))


# ---------------------------------------------------------------------------
# containment at the edges of the type sets
#
# The belief check reads each room's containment bounds once and tests whole
# profiles against them, walking coordinate by coordinate only to name a
# fault.  These draws put belief coordinates exactly on the edges the walk
# tests (``lo - EPS`` and ``hi + EPS`` as floats, ``v - EPS`` and ``v + EPS``
# for a point ``v``) and one ulp to either side.  For a point well off zero
# ``x - v`` is exact there; for a point near zero or near ``EPS`` off it, it
# is not.  Some peers have finite type sets of several points, and some rooms
# hold a missing belief beside a malformed one.

EDGE_DRAWS = 3000
# points near zero, where ``x - v`` rounds, and points well inside
_POINTS = (0.0, 1.0, 0.5, 0.1, 0.3, 0.7, 1.0 - EPS, 1.0 + EPS, 2 * EPS, EPS, -EPS, 0.9 * EPS, 1e-12, 3e-10)


def _edge_type_set(rnd: random.Random) -> TypeSet:
    kind = rnd.random()
    if kind < 0.45:
        return TypeSet.singleton(rnd.choice(_POINTS) if rnd.random() < 0.6 else rnd.random())
    if kind < 0.9:
        lo = rnd.choice((0.0, -EPS, 1e-12, 0.1, rnd.random() * 0.6))
        return TypeSet.interval(lo, min(1.0, lo + rnd.choice((0.0, 0.2, rnd.random() * 0.4))))
    return TypeSet.finite([rnd.random() for _ in range(rnd.randint(2, 3))])


def _edges(type_set: TypeSet) -> list[float]:
    """Each containment edge of ``type_set`` and the floats an ulp either side."""
    if type_set.values is not None:
        ends = [x for v in type_set.values for x in (v - EPS, v + EPS)]
    else:
        lo, hi = type_set.bounds
        ends = [lo - EPS, hi + EPS]
    out = [y for x in ends for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return [x for x in out if -EPS <= x <= 1.0 + EPS]  # a belief holds no other coordinate


def _inside(rnd: random.Random, type_set: TypeSet) -> float:
    if type_set.values is not None:
        return rnd.choice(type_set.values)
    return rnd.uniform(*type_set.bounds)


def _edge_belief(rnd: random.Random, peer_sets: list[TypeSet]) -> SecondOrderBelief:
    profiles = [
        [rnd.choice(_edges(ts) or [_inside(rnd, ts)]) if rnd.random() < 0.3 else _inside(rnd, ts) for ts in peer_sets]
        for _ in range(rnd.randint(1, 3))
    ]
    return SecondOrderBelief.mixture([(profile, 1.0 / len(profiles)) for profile in profiles])


def _edge_draw(rnd: random.Random) -> tuple[OrderedTree, TreeProfiles]:
    """A small tree whose receiver beliefs sit on or near their peers' edges,
    some missing or of the wrong width, beside known types or without them."""
    n = rnd.randint(2, 7)
    parent = {k: rnd.randrange(max(1, k // 2)) for k in range(1, n)}
    tree = OrderedTree.from_edges("0", [(str(parent[k]), str(k)) for k in range(1, n)])
    truth = rnd.random() < 0.3
    types = {
        a: TypeSet.singleton(rnd.choice(_POINTS) if rnd.random() < 0.5 else rnd.random()) if truth else _edge_type_set(rnd)
        for a in tree.agents
    }
    attrs = {a: AgentProfile(types[a], 1.0) for a in tree.agents}
    overrides = {}
    for agent in tree.agents:
        kids = tree.children_of(agent)
        sender = None if truth or not kids else SecondOrderBelief.dirac([_inside(rnd, types[k]) for k in kids])
        receiver = None
        if agent != tree.root and (not truth or rnd.random() < 0.7):
            boss = tree.parent_of(agent)
            peers = [boss] + [sib for sib in tree.children_of(boss) if sib != agent]
            fault = rnd.random()
            if fault < 0.12:
                peers = None  # missing
            elif fault < 0.2:
                peers = peers[:-1] if len(peers) > 1 and rnd.random() < 0.5 else peers + [boss]
            if peers is not None:
                receiver = _edge_belief(rnd, [types[p] for p in peers])
        if receiver is not None or sender is not None:
            overrides[agent] = BeliefOverride(receiver, sender)
    return tree, TreeProfiles(tree, attrs, overrides, truth=truth)


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except RumorcastError as exc:
        return type(exc), str(exc)
    return None


def _bounded(type_set: TypeSet) -> bool:
    """Whether the room check can bound ``type_set`` without walking."""
    return type_set.values is None or len(type_set.values) == 1 and _span(type_set.value) is not None


def test_containment_at_the_edges_matches_the_walk(monkeypatch):
    rnd = random.Random(20261020)
    mu = validate_evidence(0.9, 0.1)
    seen: Counter = Counter()
    walked = []
    monkeypatch.setattr(network, "check_receiver_belief", lambda *args: walked.append(args) or check_receiver_belief(*args))
    for draw in range(EDGE_DRAWS):
        tree, profiles = _edge_draw(rnd)
        reference = dict(profiles)  # every belief built, the known-type ones too
        want = _raised(lambda: _ref_check_profiles(tree, reference))
        walked.clear()
        assert _raised(lambda: _check_profiles(profiles)) == want, draw
        if want is None and all(_bounded(prof.type_set) for prof in reference.values()):
            assert not walked, draw  # a coordinate on an edge inside passes the room's bounds
            seen["unwalked"] += 1
        for tol in (0.0, EPS):
            solved = _raised(lambda: solve_global(tree, profiles, mu, tol))
            assert solved == want if want is not None else solved is None or solved[0] is DomainError, (draw, tol)

        seen["truth" if profiles.theta is not None else "explicit"] += 1
        seen[next((kind for kind in _ERRORS if want and kind in want[1]), "clean")] += 1
        for parent, kids in ((p, tree.children_of(p)) for p in tree.non_terminals):
            members = [reference[a].type_set for a in (parent, *kids)]
            seen["finite room"] += any(ts.values is not None and len(ts.values) > 1 for ts in members)
            seen["rounding point"] += any(ts.is_singleton and abs(ts.value) < 2 * EPS for ts in members)
            beliefs = [reference[k].receiver_belief for k in kids]
            malformed = 0
            for kid, belief in zip(kids, beliefs):
                peers = [parent] + [sib for sib in kids if sib != kid]
                peer_sets = [reference[p].type_set for p in peers]
                malformed += belief is not None and _raised(lambda: _ref_check_receiver_belief(kid, belief, peer_sets)) is not None
                if belief is not None and belief.dim == len(peers):
                    for atom in belief.atoms:
                        for x, p in zip(atom.profile, peers):
                            if x in _edges(reference[p].type_set):
                                seen["edge in" if _ref_contains(reference[p].type_set, x) else "edge out"] += 1
            seen["missing beside malformed"] += None in beliefs and malformed > 0
    print(dict(seen))
    assert seen["clean"] >= 300 and seen["outside"] >= 300 and seen["has no receiver belief"] >= 100
    assert seen["belief covers"] >= 100 and seen["truth"] >= 500 and seen["finite room"] >= 300
    assert seen["rounding point"] >= 300 and seen["missing beside malformed"] >= 20
    assert seen["edge in"] >= 1000 and seen["edge out"] >= 1000 and seen["unwalked"] >= 300


# ---------------------------------------------------------------------------
# the cost of a clean file


def _explicit_star(receivers: int) -> dict:
    """A root that sends to ``receivers`` agents with interval types, every
    belief explicit: one sender atom, and two atoms per receiver over all
    her peers, every coordinate inside its peer's types."""
    ids = [str(k) for k in range(1, receivers + 2)]
    lows = {a: 0.8 if a == "1" else round(0.3 + 0.4 * k / receivers, 6) for k, a in enumerate(ids)}
    agents = {a: {"types": {"interval": [lows[a], lows[a] + 0.05]}, "lambda": 1.0} for a in ids}
    beliefs = {"1": {"sender": {"atoms": [{"profile": [lows[a] + 0.02 for a in ids[1:]], "weight": 1.0}]}}}
    for a in ids[1:]:
        peers = ["1"] + [b for b in ids[1:] if b != a]
        atoms = [{"profile": [lows[p] + shift for p in peers], "weight": 0.5} for shift in (0.01, 0.04)]
        beliefs[a] = {"receiver": {"atoms": atoms}}
    return {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", a] for a in ids[1:]]},
        "agents": agents,
        "beliefs": {"default": "none", "agents": beliefs},
    }


def test_a_clean_file_checks_its_beliefs_in_passes(tmp_path, monkeypatch):
    doc = _explicit_star(300)
    atoms = sum(len(side["atoms"]) for entry in doc["beliefs"]["agents"].values() for side in entry.values())
    coordinates = sum(
        len(atom["profile"]) for entry in doc["beliefs"]["agents"].values() for side in entry.values() for atom in side["atoms"]
    )
    assert coordinates > 180_000
    calls: Counter = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    # what reads one number, or one coordinate against its peer, at a time
    counted(scenario, "_number")
    counted(receiver, "check_unit")
    counted(TypeSet, "contains")
    counted(network, "check_receiver_belief")

    def solve(doc) -> tuple[int, str, str]:
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path), "--format", "json-lines"])
        return code, out.getvalue(), err.getvalue()

    code, out, _ = solve(doc)
    assert code == 0 and json.loads(out.splitlines()[-1])["reach_count"] == 301
    assert sum(calls.values()) <= atoms + len(doc["agents"]), calls

    # one coordinate in the last atom off its peer's types, or no number: named as ever
    last = doc["beliefs"]["agents"]["301"]["receiver"]["atoms"][-1]["profile"]
    last[-1] = 0.05
    reference = parse_scenario(json.dumps(doc))
    tree = reference.tree()
    want = _raised(lambda: _ref_check_profiles(tree, _ref_attach_beliefs(tree, reference.attrs, reference.belief_overrides)))
    assert want == (InvariantViolation, "receiver '301': belief support point 0.05 (peer #299) outside that peer's type set")
    assert solve(doc) == (1, "", f"error: {want[1]}\n")
    last[-1] = True
    assert solve(doc) == (1, "", "error: beliefs.agents.301.receiver.atoms[1].profile[299]: expected a number, got True\n")


def _mixed_file(kids: int, grandkids: int) -> dict:
    """A root, ``kids`` children and ``grandkids`` under each: point and
    interval types, and receiver and sender beliefs in both the ``dirac``
    and the ``atoms`` form."""
    rng = random.Random(7)
    ids = [str(k) for k in range(1, 2 + kids * (grandkids + 1))]
    families = {ids[1 + k]: ids[1 + kids + k * grandkids : 1 + kids + (k + 1) * grandkids] for k in range(kids)}
    edges = [["1", kid] for kid in families] + [[kid, leaf] for kid, leaves in families.items() for leaf in leaves]
    agents = {}
    for k, agent in enumerate(ids):
        low = round(rng.uniform(0.2, 0.7), 6)
        agents[agent] = {"types": low if k % 2 else {"interval": [low, low + 0.05]}, "lambda": 1.0}

    def belief(n: int, form: int) -> dict:
        if form % 2:
            return {"dirac": [round(rng.uniform(0.2, 0.75), 6) for _ in range(n)]}
        return {"atoms": [{"profile": [round(rng.uniform(0.2, 0.75), 6) for _ in range(n)], "weight": 0.25} for _ in range(4)]}

    beliefs = {"1": {"sender": belief(kids, 0)}}
    for k, (kid, leaves) in enumerate(families.items()):
        beliefs[kid] = {"receiver": belief(kids, k), "sender": belief(grandkids, k + 1)}
        for j, leaf in enumerate(leaves):
            beliefs[leaf] = {"receiver": belief(grandkids, j)}
    return {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": edges},
        "agents": agents,
        "beliefs": {"default": "none", "agents": beliefs},
    }


def test_a_clean_file_parses_its_beliefs_and_types_in_passes(monkeypatch):
    doc = _mixed_file(6, 5)
    assert len(doc["agents"]) == 37
    # the per-entry path, before anything is counted
    want = {agent: scenario._override(spec) for agent, spec in doc["beliefs"]["agents"].items()}
    calls: Counter = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)

    # what checks one belief, one type set or one belief object at a time
    counted(scenario, "_belief")
    counted(scenario, "_type_set")
    counted(SecondOrderBelief, "__post_init__")
    parsed = parse_scenario(json.dumps(doc))
    assert calls == Counter()
    assert parsed.belief_overrides == want
    kinds = Counter(type(parsed.attrs.type_set(agent).bounds) for agent in parsed.attrs)
    assert kinds == {tuple: 19, type(None): 18}  # intervals and points
    # one odd value sends the file down the per-entry path, which names it
    doc["beliefs"]["agents"]["37"]["receiver"]["atoms"][3]["weight"] = -0.25
    with pytest.raises(SchemaError, match=r"^beliefs\.agents\.37\.receiver: atom weight must be finite and positive, got -0\.25$"):
        parse_scenario(json.dumps(doc))
    assert calls["_belief"] > 0
