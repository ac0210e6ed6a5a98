"""Dirac-truth cascades solved from room totals, against built beliefs.

``solve_global`` on known-type :class:`TreeProfiles` takes each receiver's
peer mean from one credence total, ``fsum(theta_sender + sum_room theta - theta_j) / k``
(the room total held exactly, so the sum of her k peers is rounded once),
unless she has an explicit receiver belief, and reads a sender's gain off
her audience's credences only when her gate is open, building no belief.
These tests check it against ``solve_global`` on
the plain dict from ``dirac_truth_profiles``, which builds every belief and
which ``solve_global`` reads as explicit beliefs throughout, and check every
room it solves against ``solve_chatroom`` on a ``ChatroomGame`` assembled
from the built beliefs.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from rumorcast import (
    AgentProfile,
    ChatroomGame,
    InvariantViolation,
    Multiplicity,
    OrderedTree,
    ReceiverSpec,
    RumorcastError,
    SecondOrderBelief,
    SenderAction,
    TreeProfiles,
    TypeSet,
    dirac_truth_profiles,
    reach_by_root,
    root_tree,
    scenario_diagnostics,
    solve_chatroom,
    solve_global,
    undirected_closure,
    validate_evidence,
)
from rumorcast.network import BeliefOverride

from helpers import (
    canonical_attrs,
    canonical_mu,
    canonical_tree,
    random_evidence,
    random_tree,
    random_wide_tree,
)

DRAWS = 2400
GRID = 1.0 / 16.0


def _wide_tree(rng: np.random.Generator) -> OrderedTree:
    """Random tree where the root takes most newcomers (a room of 30-60) and
    agent 2 many of the rest."""
    n = int(rng.integers(50, 95))
    names = [str(i + 1) for i in range(n)]
    edges = []
    for k in range(1, n):
        u = rng.random()
        if k < 2 or u < 0.6:
            parent = names[0]
        elif u < 0.9:
            parent = names[1]
        else:
            parent = names[int(rng.integers(0, k))]
        edges.append((parent, names[k]))
    return OrderedTree.from_edges(names[0], edges)


def _draw_attrs(rng: np.random.Generator, tree: OrderedTree, dyadic: bool):
    """Singleton types, sensitivities and thresholds; also returns the
    credence sampler.  On the dyadic grid sums are exact, so best-response
    ties are exact ties."""
    if dyadic:
        mu = validate_evidence(*[(0.875, 0.125), (0.9375, 0.0625), (0.75, 0.25)][int(rng.integers(0, 3))])
        lo = int(np.floor(mu.mu_given_not_c / GRID)) + 1
        hi = int(np.ceil(mu.mu_given_c / GRID)) - 1
    else:
        mu = random_evidence(rng)

    def theta() -> float:
        if dyadic:
            return float(rng.integers(lo, hi + 1)) * GRID
        return float(rng.uniform(mu.mu_given_not_c + 0.02, mu.mu_given_c - 0.02))

    def lam() -> float:
        return float(rng.integers(0, 17)) / 4.0 if dyadic else float(rng.uniform(0.0, 4.0))

    attrs = {
        a: AgentProfile(type_set=TypeSet.singleton(theta()), lam=lam(), ell=int(rng.integers(0, 4)))
        for a in tree.agents
    }
    return attrs, mu, theta


def _draw_overrides(rng, tree, attrs, theta) -> dict[str, BeliefOverride]:
    """Explicit beliefs for a few agents.  Receiver beliefs split the truth
    over two atoms (so they stay inside every peer's singleton type set) or,
    now and then, leave it; sender beliefs are free, now and then misshapen."""
    truth = dirac_truth_profiles(tree, attrs)
    out = {}
    for agent in tree.agents:
        if rng.random() > 0.2:
            continue
        receiver = sender = None
        if tree.parent_of(agent) is not None and rng.random() < 0.6:
            profile = list(truth[agent].receiver_belief.atoms[0].profile)
            if rng.random() < 0.1:
                profile[int(rng.integers(0, len(profile)))] += 0.01
            w = float(rng.uniform(0.1, 0.9))
            truth_profile = truth[agent].receiver_belief.atoms[0].profile
            receiver = SecondOrderBelief.mixture([(profile, w), (truth_profile, 1.0 - w)])
        kids = tree.children_of(agent)
        if kids and rng.random() < 0.6:
            dim = len(kids) + (1 if rng.random() < 0.05 else 0)
            sender = SecondOrderBelief.dirac([theta() for _ in range(dim)])
        if receiver is not None or sender is not None:
            out[agent] = BeliefOverride(receiver=receiver, sender=sender)
    return out


def _apply(override: BeliefOverride, prof: AgentProfile) -> AgentProfile:
    """``prof`` with the sides ``override`` states replaced, the others kept."""
    return replace(
        prof,
        receiver_belief=prof.receiver_belief if override.receiver is None else override.receiver,
        sender_belief=prof.sender_belief if override.sender is None else override.sender,
    )


def _outcome(solve):
    try:
        r = solve()
    except RumorcastError as exc:
        return type(exc), str(exc)
    return (
        r.receiver_actions,
        r.sender_actions,
        r.reach,
        r.exists,
        r.unique,
        r.multiple_rooms,
        r.failing_room,
        r.room_equilibria,
    )


def _game(tree: OrderedTree, profiles, sender) -> ChatroomGame:
    """The room of ``sender`` with every receiver's built belief."""
    return ChatroomGame(
        sender=sender,
        sender_types=profiles[sender].type_set,
        receivers=tuple(
            ReceiverSpec(
                agent=r, type_set=profiles[r].type_set, lam=profiles[r].lam, belief=profiles[r].receiver_belief
            )
            for r in tree.children_of(sender)
        ),
    )


def test_room_totals_match_built_beliefs():
    rng = np.random.default_rng(3003)
    disagreements = []
    wide_rooms = tie_rooms = override_draws = errors = games = 0
    for draw in range(DRAWS):
        dyadic = draw % 2 == 1
        wide = draw % 8 < 2
        tree = _wide_tree(rng) if wide else random_tree(rng, int(rng.integers(2, 13)))
        attrs, mu, theta = _draw_attrs(rng, tree, dyadic)
        if wide:
            # a root just under mu_given_c gains from any audience, so the wide room opens
            top = mu.mu_given_c - (GRID if dyadic else 0.005)
            attrs["1"] = AgentProfile(type_set=TypeSet.singleton(top), lam=1.0)
        overrides = _draw_overrides(rng, tree, attrs, theta) if draw % 4 == 3 else {}
        override_draws += bool(overrides)
        reference = {
            a: _apply(overrides[a], p) if a in overrides else p
            for a, p in dirac_truth_profiles(tree, attrs).items()
        }
        want = _outcome(lambda: solve_global(tree, reference, mu))
        got = _outcome(lambda: solve_global(tree, TreeProfiles(tree, attrs, overrides), mu))
        if got != want:
            disagreements.append((draw, dyadic))
            continue
        if isinstance(got[0], type):
            errors += 1
            continue
        for sender, eq in got[-1].items():
            assert solve_chatroom(_game(tree, reference, sender)) == eq, (draw, sender)
            games += 1
            wide_rooms += len(eq.eligible) >= 30
            tie_rooms += eq.multiplicity is Multiplicity.MULTIPLE
    print(f"{DRAWS} draws: {wide_rooms} wide rooms, {tie_rooms} rooms with ties, "
          f"{override_draws} with overrides, {errors} raised alike, {games} rooms checked against ChatroomGame")
    assert disagreements == []
    assert wide_rooms >= 200
    assert tie_rooms >= 50
    assert override_draws >= 300
    assert errors >= 5
    assert games >= 2000


def test_reach_by_root_matches_per_root_dicts():
    rng = np.random.default_rng(3004)
    wide_rooms = 0
    for draw in range(200):
        n = int(rng.integers(2, 9))
        # every fourth graph has a block of 11-15 agents: rooms of 10 or more receivers
        tree = random_wide_tree(rng, n, int(rng.integers(10, 15))) if draw % 4 == 3 else random_tree(rng, n)
        attrs, mu, _ = _draw_attrs(rng, tree, dyadic=draw % 2 == 0)
        graph = undirected_closure(tree)
        got = reach_by_root(graph, attrs, mu)
        for root, result in got.items():
            rooted = root_tree(graph, root)
            want = solve_global(rooted, dirac_truth_profiles(rooted, attrs), mu)
            assert _outcome(lambda: result) == _outcome(lambda: want), (draw, root)
            wide_rooms += sum(len(eq.eligible) >= 10 for eq in result.room_equilibria.values())
    print(f"{wide_rooms} rooms of 10 or more receivers solved")
    assert wide_rooms >= 200


def _count_dirac(monkeypatch) -> list[int]:
    built: list[int] = []
    original = SecondOrderBelief.dirac.__func__

    def counting(cls, profile):
        built.append(len(profile))
        return original(cls, profile)

    monkeypatch.setattr(SecondOrderBelief, "dirac", classmethod(counting))
    return built


def test_only_deciding_senders_get_beliefs(monkeypatch):
    # root -> 40 hubs -> 25 leaves each; the hubs' own rooms stay shut
    edges = [("0", f"h{i}") for i in range(40)]
    edges += [(f"h{i}", f"h{i}.{j}") for i in range(40) for j in range(25)]
    tree = OrderedTree.from_edges("0", edges)
    mu = validate_evidence(0.9, 0.1)
    attrs = {a: AgentProfile(type_set=TypeSet.singleton(0.3), lam=1.0, ell=0) for a in tree.agents}
    attrs["0"] = AgentProfile(type_set=TypeSet.singleton(0.895), lam=1.0)
    profiles = TreeProfiles(tree, attrs)
    built = _count_dirac(monkeypatch)
    result = solve_global(tree, profiles, mu)
    assert result.send_of("0") is SenderAction.SEND
    assert result.reach_count == 41
    # at most one belief per decision, none for the 1,000 leaves nobody reached
    assert len(built) <= len(result.sender_actions)
    assert set(result.sender_actions) <= result.reach
    assert sum(built) <= sum(len(tree.children_of(a)) for a in result.sender_actions)
    # the hubs' gates are shut (ell 0), and the root's gain is read from the credences
    assert built == []


def _star(receivers: int):
    names = [str(i) for i in range(2, receivers + 2)]
    tree = OrderedTree.from_edges("1", [("1", r) for r in names])
    rng = np.random.default_rng(5)
    attrs = {
        a: AgentProfile(type_set=TypeSet.singleton(float(rng.uniform(0.12, 0.88))), lam=1.0)
        for a in names
    }
    attrs["1"] = AgentProfile(type_set=TypeSet.singleton(0.895), lam=1.0)
    return tree, attrs


def test_wide_star_builds_one_belief(monkeypatch):
    tree, attrs = _star(3000)
    built = _count_dirac(monkeypatch)
    result = solve_global(tree, TreeProfiles(tree, attrs), validate_evidence(0.9, 0.1))
    assert built == []  # the root's gain is read from the credences
    assert result.reach_count == 3001


def test_override_builds_no_truth_belief_in_her_room(monkeypatch):
    tree, attrs = _star(3000)
    # agent 2 pictures her peers at their credences, in two equal atoms
    peers = [attrs[a].type_set.value for a in tree.agents if a != "2"]
    belief = SecondOrderBelief.mixture([(peers, 0.5), (peers, 0.5)])
    profiles = TreeProfiles(tree, attrs, {"2": BeliefOverride(receiver=belief)})
    built = _count_dirac(monkeypatch)
    result = solve_global(tree, profiles, validate_evidence(0.9, 0.1))
    assert built == []  # not even the root's sender belief
    assert result.reach_count == 3001


def test_validate_builds_no_receiver_belief(monkeypatch):
    tree, attrs = _star(3000)
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [list(e) for e in tree.edges()]},
        "agents": {a: {"types": p.type_set.value, "lambda": p.lam} for a, p in attrs.items()},
        "beliefs": "dirac-truth",
    }
    built = _count_dirac(monkeypatch)
    assert scenario_diagnostics(json.dumps(doc)) == []
    assert built == []  # the credence check reads the credences too


class TestMapping:
    def test_lookups_match_the_dict(self):
        tree, attrs = canonical_tree(), canonical_attrs()
        lazy = TreeProfiles(tree, attrs)
        assert list(lazy) == list(tree.agents) and len(lazy) == len(tree.agents)
        assert dict(lazy) == dirac_truth_profiles(tree, attrs)
        assert "3" in lazy and "11" not in lazy
        with pytest.raises(KeyError):
            lazy["11"]

    def test_overrides_replace_one_side(self):
        tree, attrs = canonical_tree(), canonical_attrs()
        sender = SecondOrderBelief.dirac([0.5, 0.5])
        lazy = TreeProfiles(tree, attrs, {"3": BeliefOverride(sender=sender)})
        truth = dirac_truth_profiles(tree, attrs)
        assert lazy["3"].sender_belief == sender == lazy.sender_belief("3")
        assert lazy["3"].receiver_belief == truth["3"].receiver_belief
        assert lazy["2"] == truth["2"]

    def test_construction_checks_like_the_dict(self):
        tree = OrderedTree.from_edges("1", [("1", "2")])
        finite = {
            "1": AgentProfile(type_set=TypeSet.finite([0.3, 0.5]), lam=1.0),
            "2": AgentProfile(type_set=TypeSet.singleton(0.3), lam=1.0),
        }
        missing = {"1": finite["2"]}
        for attrs in (finite, missing):
            with pytest.raises(InvariantViolation) as lazy_err:
                TreeProfiles(tree, attrs)
            with pytest.raises(InvariantViolation) as dict_err:
                dirac_truth_profiles(tree, attrs)
            assert str(lazy_err.value) == str(dict_err.value)

    def test_other_tree_takes_the_general_path(self):
        # profiles built for one tree, solved on another: looked up, not trusted
        attrs = canonical_attrs()
        lazy = TreeProfiles(canonical_tree(), attrs)
        edges = [(p, c) for p, c in canonical_tree().edges() if c != "10"] + [("9", "10")]
        other = OrderedTree.from_edges("1", edges)
        with pytest.raises(InvariantViolation):
            solve_global(other, lazy, canonical_mu())
