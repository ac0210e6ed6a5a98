"""The known-type room kernel against the general path it stands in for.

``solve_global`` answers a receiver without an explicit belief with
``known_type_eligible`` on her credence, sensitivity and peer mean, and an
open-gate sender without an explicit sender belief with ``known_type_gain``
over her audience's credences, building no belief.  These tests hold the
kernel to the general path exactly, with no tolerance: ``best_actions`` over
``PeerDistanceProfile.from_dirac`` and ``room_equilibrium`` for receivers,
``expected_send_gain`` and ``decide_send`` over ``SecondOrderBelief.dirac``
for senders, and a reference cascade assembled from those alone.  The
peer mean is ``peer_distance``'s: the room total is held as exact parts, so
each receiver's peer sum is rounded once, and stars whose decimal credences
sit on utility ties must solve as over explicit beliefs at tolerance 0, and
inside ``oracle_global``'s set.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import chain

import numpy as np
import pytest

import rumorcast.chatroom as chatroom_module
import rumorcast.receiver as receiver_module
import rumorcast.sender as sender_module
from rumorcast import (
    AgentProfile,
    DomainError,
    Multiplicity,
    OrderedTree,
    PeerDistanceProfile,
    ReceiverAction,
    RumorcastError,
    SecondOrderBelief,
    SenderAction,
    TreeProfiles,
    TypeSet,
    best_actions,
    canonicalize_result,
    decide_send,
    dirac_truth_profiles,
    expected_send_gain,
    oracle_global,
    scenario_diagnostics,
    solve_global,
    validate_evidence,
)
from rumorcast.belief import require_credence
from rumorcast.chatroom import known_type_eligible, room_equilibrium
from rumorcast.network import AgentTable, _check_profiles, _exact_parts
from rumorcast.receiver import peer_distance
from rumorcast.sender import known_type_gain, send_rule

from helpers import random_evidence, random_tree
from test_truth_rooms import _draw_overrides, _outcome, _star, _wide_tree

TOLS = (0.0, 1e-9, 1e-3, 0.2)
GRID = 1.0 / 16.0


def _lam(rng: np.random.Generator) -> float:
    """Sensitivities from 0 up to 1e300: zero, dyadic, uniform or log-uniform."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return 0.0
    if kind == 1:
        return float(rng.integers(0, 17)) / 4.0
    if kind == 2:
        return float(rng.uniform(0.0, 4.0))
    return float(10.0 ** rng.uniform(-3.0, 300.0))


def _raised(call):
    """``call()``'s value, or the type and text of the error it raised."""
    try:
        return call()
    except RumorcastError as exc:
        return type(exc), str(exc)


def test_eligible_sets_match_best_actions():
    rng = np.random.default_rng(1901)
    ties = zero = huge = 0
    for draw in range(40_000):
        dyadic = draw % 2 == 0
        if dyadic:  # sums and halves on this grid are exact, so utility ties are exact ties
            theta, b = (float(x) * GRID for x in rng.integers(0, 17, size=2))
        else:
            theta, b = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
        lam, tol = _lam(rng), TOLS[draw % 4]
        got = known_type_eligible(theta, lam, b, tol)
        assert got == best_actions(theta, PeerDistanceProfile.from_dirac(b), lam, tol), (theta, lam, b, tol)
        ties += len(got) > 1
        zero += lam == 0.0
        huge += lam > 1e100
    assert ties >= 3000 and zero >= 5000 and huge >= 2000


@pytest.mark.parametrize("b", [-0.5, -2e-9, 1.0 + 2e-9, 1.5, math.nan])
def test_peer_mean_off_the_unit_interval_raises_alike(b):
    want = _raised(lambda: PeerDistanceProfile.from_dirac(b))
    assert isinstance(want, tuple)
    assert _raised(lambda: known_type_eligible(0.5, 1.0, b)) == want


def _credences(rng: np.random.Generator, mu, n: int, dyadic: bool) -> list[float]:
    if dyadic:
        lo = int(np.floor(mu.mu_given_not_c / GRID)) + 1
        hi = int(np.ceil(mu.mu_given_c / GRID)) - 1
        return [float(x) * GRID for x in rng.integers(lo, hi + 1, size=n)]
    return [float(x) for x in rng.uniform(mu.mu_given_not_c + 1e-6, mu.mu_given_c - 1e-6, size=n)]


def test_gains_are_bit_identical():
    rng = np.random.default_rng(1902)
    compared = raised = 0
    for draw in range(6000):
        dyadic = draw % 2 == 0
        mu = validate_evidence(0.875, 0.125) if dyadic else random_evidence(rng)
        tol = TOLS[draw % 4]
        credences = _credences(rng, mu, int(rng.integers(1, 60)), dyadic)
        if draw % 50 == 7:  # one credence off the band, or outside [0, 1]
            credences[int(rng.integers(0, len(credences)))] = [0.0, 1.0, 1.5, mu.mu_given_c][draw % 4]
        own = [float(rng.uniform(0.0, 1.0)), 0.0, 1.0][0 if draw % 40 else draw % 3]
        got = _raised(lambda: known_type_gain(own, credences, mu, tol))
        want = _raised(lambda: expected_send_gain(own, SecondOrderBelief.dirac(credences), mu, tol))
        if isinstance(want, float):
            assert isinstance(got, float) and got.hex() == want.hex(), (draw, got, want)
            compared += 1
        else:
            assert got == want, draw
            raised += 1
    assert compared >= 4000 and raised >= 150


def test_decisions_match_decide_send():
    rng = np.random.default_rng(1903)
    sends = closed = errors = 0
    for draw in range(6000):
        dyadic = draw % 2 == 0
        mu = validate_evidence(0.875, 0.125) if dyadic else random_evidence(rng)
        tol = TOLS[draw % 4]
        theta = _credences(rng, mu, 1, dyadic)[0]
        credences = _credences(rng, mu, int(rng.integers(1, 12)), dyadic)
        ell, disapprovals = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        got = _raised(
            lambda: send_rule(
                (theta, theta), lambda tau: known_type_gain(tau, credences, mu, tol), mu, ell, disapprovals, tol
            )
        )
        want = _raised(
            lambda: decide_send(TypeSet.singleton(theta), SecondOrderBelief.dirac(credences), mu, ell, disapprovals, tol)
        )
        assert got == want, draw
        sends += got is SenderAction.SEND
        closed += ell <= disapprovals
        errors += isinstance(got, tuple)
    assert sends >= 500 and closed >= 1000 and errors >= 200


def _off_band_text(agent, type_set, belief, mu, tol) -> str:
    """What a send decision reports for its first off-band credence: the
    type hull, then the belief's coordinates in atom order."""
    checked = [("types", x) for x in dict.fromkeys(type_set.hull)]
    checked += [("sender belief", x) for x in dict.fromkeys(chain.from_iterable(a.profile for a in belief.atoms))]
    for where, x in checked:
        try:
            require_credence(x, mu, tol)
        except DomainError as exc:
            return f"agent {agent!r}: {where}: {exc}"
    raise AssertionError("decide_send raised with every credence in the band")


def _reference(tree: OrderedTree, profiles: TreeProfiles, mu, tol: float):
    """``solve_global`` through the general path alone: each room is
    ``room_equilibrium`` over ``peer_distance`` of each receiver's belief
    (``SecondOrderBelief.dirac`` of her peers' credences when not explicit),
    and each sender ``decide_send`` over ``SecondOrderBelief.dirac`` (or her
    explicit belief), after the same entry checks.  Returns what
    ``_outcome`` returns."""
    attrs, theta = profiles.attrs, profiles.theta
    receiver_actions, sender_actions, room_eqs, multiple = {}, {}, {}, []
    failing = None
    queue: deque = deque()

    def decide(agent, type_set, ell, disapprovals):
        belief = profiles.sender_belief(agent) if ell > disapprovals else None
        try:
            decision = decide_send(type_set, belief, mu, ell, disapprovals, tol)
        except DomainError:
            raise DomainError(_off_band_text(agent, type_set, belief, mu, tol)) from None
        sender_actions[agent] = decision
        if decision is SenderAction.SEND:
            queue.append(agent)

    try:
        _check_profiles(profiles)
        if tree.children_of(tree.root):
            decide(tree.root, attrs[tree.root].type_set, 1, 0)
        while queue and failing is None:
            sender = queue.popleft()
            receivers = tree.children_of(sender)
            profs = [attrs[r] for r in receivers]
            rows = []
            for r, prof in zip(receivers, profs):
                belief = profiles.receiver_belief(r)
                if belief is None:
                    belief = SecondOrderBelief.dirac([theta[sender], *(theta[o] for o in receivers if o != r)])
                rows.append((r, prof.type_set, prof.lam, peer_distance(belief)))
            eq = room_eqs[sender] = room_equilibrium(rows, tol)
            if eq.multiplicity is Multiplicity.NONE:
                failing = sender
                break
            if eq.multiplicity is Multiplicity.MULTIPLE:
                multiple.append(sender)
            receiver_actions.update(eq.actions)
            disapprovals = sum(a is ReceiverAction.DISAPPROVE for a in eq.actions.values())
            for r, prof in zip(receivers, profs):
                if tree.children_of(r):
                    decide(r, prof.type_set, prof.ell, disapprovals)
    except RumorcastError as exc:
        return type(exc), str(exc)
    exists = failing is None
    reach = frozenset(chain((tree.root,), receiver_actions))
    return receiver_actions, sender_actions, reach, exists, exists and not multiple, tuple(multiple), failing, room_eqs


def _draw_attrs_within(rng: np.random.Generator, tree: OrderedTree, dyadic: bool, tol: float):
    """Singleton types inside the evidence band narrowed by ``tol``,
    sensitivities from 0 to 1e300 and thresholds from 0 to 3; also returns
    the credence sampler.  On the dyadic grid, ties are exact ties."""
    if dyadic:
        mu = validate_evidence(*[(0.875, 0.125), (0.9375, 0.0625)][int(rng.integers(0, 2))])
        lo = int(np.floor((mu.mu_given_not_c + tol) / GRID)) + 1
        hi = int(np.ceil((mu.mu_given_c - tol) / GRID)) - 1
    else:
        mu = random_evidence(rng) if tol < 0.1 else validate_evidence(0.95, 0.05)

    def theta() -> float:
        if dyadic:
            return float(rng.integers(lo, hi + 1)) * GRID
        return float(rng.uniform(mu.mu_given_not_c + tol + 1e-6, mu.mu_given_c - tol - 1e-6))

    attrs = {a: AgentProfile(TypeSet.singleton(theta()), _lam(rng), int(rng.integers(0, 4))) for a in tree.agents}
    return attrs, mu, theta


def test_cascades_match_the_general_path():
    rng = np.random.default_rng(1904)
    counts = dict.fromkeys(("single", "ties", "all_tie", "mixed", "huge", "zero", "errors", "rooms"), 0)
    for draw in range(2400):
        dyadic, wide, ties = draw % 2 == 1, draw % 8 < 2, draw % 8 == 7
        tol = TOLS[int(rng.integers(0, 3 if ties else 4))]
        tree = _wide_tree(rng) if wide else random_tree(rng, int(rng.integers(2, 13)))
        attrs, mu, theta = _draw_attrs_within(rng, tree, dyadic, tol)
        if ties:  # at lambda 0 a credence of 1/4 (3/4) serves disapproval (approval) and silence alike
            tie = float(rng.choice([0.25, 0.75]))
            attrs = {a: AgentProfile(TypeSet.singleton(tie), 0.0, p.ell) for a, p in attrs.items()}
        if wide or ties:  # a root near the top of the band gains from any audience, so her room opens
            attrs["1"] = AgentProfile(TypeSet.singleton(max(theta() for _ in range(8))), 1.0)
        if draw % 16 == 5:  # an off-band credence
            attrs[tree.agents[-1]] = AgentProfile(TypeSet.singleton(mu.mu_given_not_c), 1.0)
        overrides = _draw_overrides(rng, tree, attrs, theta) if draw % 3 == 0 else {}
        profiles = TreeProfiles(tree, attrs, overrides)
        got = _outcome(lambda: solve_global(tree, profiles, mu, tol))
        assert got == _reference(tree, profiles, mu, tol), draw
        if isinstance(got[0], type):
            counts["errors"] += 1
            continue
        for sender, eq in got[-1].items():
            receivers = tree.children_of(sender)
            explicit = sum(profiles.receiver_belief(r) is not None for r in receivers)
            counts["rooms"] += 1
            counts["single"] += len(receivers) == 1
            counts["ties"] += eq.multiplicity is Multiplicity.MULTIPLE
            counts["all_tie"] += len(receivers) > 1 and all(len(e) > 1 for e in eq.eligible.values())
            counts["mixed"] += 0 < explicit < len(receivers)
            counts["huge"] += any(attrs[r].lam > 1e100 for r in receivers)
            counts["zero"] += any(attrs[r].lam == 0.0 for r in receivers)
    print(counts)
    assert counts["rooms"] >= 1000 and counts["errors"] >= 100
    assert counts["single"] >= 300 and counts["ties"] >= 300 and counts["all_tie"] >= 30
    assert counts["mixed"] >= 100 and counts["huge"] >= 200 and counts["zero"] >= 300


def test_room_where_every_receiver_ties():
    # five receivers at 3/16 under a sender at 13/16: each one's peer mean is
    # 5/16, and at lambda 1 disapproval and silence cost her exactly alike
    tree = OrderedTree.from_edges("1", [("1", str(i)) for i in range(2, 7)])
    attrs = {a: AgentProfile(TypeSet.singleton(0.1875), 1.0) for a in tree.agents}
    attrs["1"] = AgentProfile(TypeSet.singleton(0.8125), 1.0)
    mu = validate_evidence(0.875, 0.125)
    profiles = TreeProfiles(tree, attrs)
    got = _outcome(lambda: solve_global(tree, profiles, mu))
    assert got == _reference(tree, profiles, mu, 1e-9)
    eq = got[-1]["1"]
    assert eq.multiplicity is Multiplicity.MULTIPLE
    assert set(eq.eligible.values()) == {frozenset({ReceiverAction.DISAPPROVE, ReceiverAction.SILENCE})}


@pytest.mark.parametrize("tol", TOLS)
def test_off_band_child_credence_raises_as_the_general_path(tol):
    tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3"), ("1", "4")])
    attrs = {a: AgentProfile(TypeSet.singleton(x), 1.0) for a, x in zip(tree.agents, (0.65, 0.5, 0.05, 0.5))}
    mu = validate_evidence(0.9, 0.1)
    want = "agent '1': sender belief: " + _raised(lambda: require_credence(0.05, mu, tol))[1]
    general = _outcome(lambda: solve_global(tree, dirac_truth_profiles(tree, attrs), mu, tol))
    assert _outcome(lambda: solve_global(tree, TreeProfiles(tree, attrs), mu, tol)) == general == (DomainError, want)
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [list(e) for e in tree.edges()]},
        "agents": {a: {"types": p.type_set.value, "lambda": p.lam} for a, p in attrs.items()},
        "beliefs": "dirac-truth",
    }
    assert [d.detail for d in scenario_diagnostics(json.dumps(doc), tol=tol)][0] == want


def test_known_type_solve_runs_no_general_path(monkeypatch):
    calls: list[str] = []

    def counting(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapped

    from_dirac, dirac = PeerDistanceProfile.from_dirac.__func__, SecondOrderBelief.dirac.__func__
    monkeypatch.setattr(PeerDistanceProfile, "from_dirac", classmethod(counting("from_dirac", from_dirac)))
    monkeypatch.setattr(SecondOrderBelief, "dirac", classmethod(counting("dirac", dirac)))
    for module in (chatroom_module, receiver_module):
        monkeypatch.setattr(module, "best_actions", counting("best_actions", module.best_actions))
    monkeypatch.setattr(sender_module, "nu_value", counting("nu_value", sender_module.nu_value))
    monkeypatch.setattr(AgentTable, "__getitem__", counting("profile", AgentTable.__getitem__))

    tree, attrs = _star(3000)
    result = solve_global(tree, TreeProfiles(tree, attrs), validate_evidence(0.9, 0.1))
    assert result.reach_count == 3001
    assert calls == []
    calls.clear()

    rng = np.random.default_rng(1905)
    reached = 0
    for _ in range(20):
        tree = _wide_tree(rng)
        attrs, mu, _ = _draw_attrs_within(rng, tree, False, 1e-9)
        attrs["1"] = AgentProfile(type_set=TypeSet.singleton(mu.mu_given_c - 0.005), lam=1.0)
        reached += solve_global(tree, TreeProfiles(tree, attrs), mu).reach_count
    assert calls == []
    assert reached >= 20 * 30


def _tie_star(rng: np.random.Generator, small: bool):
    """A star at lambda 1, its root near the top of the band, with
    two-decimal credences placed so that one receiver's credence plus her
    peer mean is, in decimals, exactly 0.5 (disapproval ties silence) or 1.5
    (silence ties approval).  At most 5 receivers when ``small``.  Returns
    the tree and the profiles."""
    while True:
        k = int(rng.integers(1, 6 if small else 40))  # receivers
        sender = int(rng.integers(80, 90))  # in hundredths, near the top of the band (0.1, 0.9)
        tied = int(rng.integers(11, 90))
        mean = int(rng.choice([50, 150])) - tied
        if not 11 <= mean <= 89:
            continue
        others = [int(x) for x in rng.integers(max(11, mean - 10), min(89, mean + 10) + 1, size=max(k - 2, 0))]
        if k > 1:  # the last one makes the peers' total k * mean
            others.append(k * mean - sender - sum(others))
        if k * mean == sender + sum(others) and all(11 <= x <= 89 for x in others):
            break
    credences = others[:]
    credences.insert(int(rng.integers(0, k)), tied)
    tree = OrderedTree.from_edges("1", [("1", str(i)) for i in range(2, k + 2)])
    attrs = {a: AgentProfile(TypeSet.singleton(x / 100), 1.0) for a, x in zip(tree.agents, [sender, *credences])}
    return tree, attrs


def test_peer_means_on_ties_round_as_explicit_beliefs():
    # the kernel's peer mean and peer_distance's are one correctly rounded
    # sum over k, so exact decimal ties fall the same way on both paths
    rng = np.random.default_rng(2001)
    mu = validate_evidence(0.9, 0.1)
    opened = ties = enumerated = 0
    while opened < 2000:
        tree, attrs = _tie_star(rng, small=opened % 2 == 0)
        explicit = dirac_truth_profiles(tree, attrs)
        for tol in (0.0, 1e-9):
            got = solve_global(tree, TreeProfiles(tree, attrs), mu, tol)
            want = solve_global(tree, explicit, mu, tol)
            assert (got.receiver_actions, got.sender_actions, got.unique, got.multiple_rooms) == (
                want.receiver_actions, want.sender_actions, want.unique, want.multiple_rooms
            ), (opened, tol)
            ties += not got.unique
            if len(tree.agents) <= 6:
                found = oracle_global(tree, explicit, mu, tol)
                assert canonicalize_result(tree, got) in found and got.unique == (len(found) == 1), (opened, tol)
                enumerated += 1
        opened += got.send_of("1") is SenderAction.SEND
    print(ties, enumerated)
    assert ties >= 1000 and enumerated >= 2000


def test_exact_parts_give_every_peer_sum_rounded_once():
    rng = np.random.default_rng(2002)
    ends = [0.0, 1e-9, -1e-9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]
    for draw in range(60):
        n = 3000 if draw < 3 else int(10.0 ** rng.uniform(0.0, math.log10(3000)))
        kind = draw % 3
        if kind == 0:  # two decimals
            xs = [float(x) / 100 for x in rng.integers(0, 101, size=n)]
        elif kind == 1:
            xs = [float(x) for x in rng.uniform(0.0, 1.0, size=n)]
        else:  # the ends of the credence range, among uniform floats
            xs = [ends[int(i)] if i < len(ends) else float(x) for i, x in zip(rng.integers(0, 9, size=n), rng.uniform(0.0, 1.0, size=n))]
        parts = _exact_parts(xs)
        for i, x in enumerate(xs):
            assert math.fsum([*parts, -x]) == math.fsum(xs[:i] + xs[i + 1:]), (draw, i)
