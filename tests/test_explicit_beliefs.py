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
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import groupby

from rumorcast import (
    Diagnostic,
    InvariantViolation,
    RumorcastError,
    TreeProfiles,
    parse_scenario,
    scenario_diagnostics,
    solve_chatroom,
    solve_global,
)
from rumorcast.belief import require_credence
from rumorcast.chatroom import check_receiver_belief

from test_fuzz import _small_explicit_scenario
from test_truth_rooms import _game, _outcome

DRAWS = 2400
# what each belief error says, the sender's before the receiver's
_ERRORS = ("has no sender belief", "sender belief covers", "has no receiver belief", "belief covers", "outside")


def _ref_attach_beliefs(tree, attrs, overrides):
    """Explicit beliefs as a plain dict: every agent's profile, her stated
    beliefs applied."""
    return {
        agent: overrides[agent].apply(attrs[agent]) if agent in overrides else attrs[agent]
        for agent in tree.agents
    }


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
            check_receiver_belief(agent, belief, [profiles[p].type_set for p in peers])


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
