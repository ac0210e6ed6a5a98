"""The reaction and gain kernels against references that share no code with them.

Every reaction the engine makes goes through ``receiver.react`` (three
utilities, compared once), on a credence, a sensitivity and three peer
distances: ``best_actions`` and ``eligible_actions`` check their arguments
and call it, and ``solve_global`` feeds it a known type's distances from her
peer mean and an explicit receiver's from ``peer_distance``.  Every send
decision goes through ``sender.belief_gain`` over belief atoms: an explicit
belief's, or for a known type one atom of weight 1 over her audience's
credences.  These tests hold the kernels to ``oracle_best_actions`` and to a
test-local weighted sum of ``nu_value``, exactly, with no tolerance, and
hold whole cascades to a reference assembled from ``utility``, its own
selection rule and those sums alone.  The peer mean is ``peer_distance``'s:
the room total is held as exact parts, so each receiver's peer sum is
rounded once, and stars whose decimal credences sit on utility ties must
solve as over explicit beliefs at tolerance 0, and inside
``oracle_global``'s set.  On success, no solve calls ``utility``,
``nu_value`` or ``worldview_posterior``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from collections import deque
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import rumorcast.belief as belief_module
import rumorcast.chatroom as chatroom_module
import rumorcast.receiver as receiver_module
import rumorcast.sender as sender_module
from rumorcast import (
    ACTIONS,
    AgentProfile,
    ChatroomEquilibrium,
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
    eligible_actions,
    expected_send_gain,
    oracle_best_actions,
    oracle_global,
    parse_scenario,
    scenario_diagnostics,
    solve_global,
    utility,
    validate_evidence,
    worldview_prior,
)
from rumorcast import network
from rumorcast.belief import require_credence
from rumorcast.cli import main
from rumorcast.network import AgentTable, _check_profiles, _exact_parts
from rumorcast.receiver import BeliefAtom, peer_distance
from rumorcast.sender import nu_value, belief_gain, send_rule

from helpers import random_evidence, random_tree
from test_explicit_beliefs import _explicit_draw
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


def _distances(rng: np.random.Generator, dyadic: bool) -> tuple[PeerDistanceProfile, SecondOrderBelief]:
    """A known type's distances (a point mass at a peer mean), or an
    explicit belief's over one to three atoms; and that belief, over one peer."""
    atoms = 1 if rng.random() < 0.5 else int(rng.integers(2, 4))
    if dyadic:  # sums and halves on this grid are exact, so utility ties are exact ties
        means = [float(x) * GRID for x in rng.integers(0, 17, size=atoms)]
        weights = [0.5, 0.25, 0.25][:atoms] if atoms > 1 else [1.0]
        weights[0] += 1.0 - sum(weights)
    else:
        means = [float(x) for x in rng.uniform(0.0, 1.0, size=atoms)]
        raw = rng.uniform(0.1, 1.0, size=atoms)
        weights = [float(w) for w in raw / raw.sum()]
    belief = SecondOrderBelief.mixture([([m], w) for m, w in zip(means, weights)])
    return PeerDistanceProfile.from_dirac(means[0]) if atoms == 1 else peer_distance(belief), belief


def test_eligible_sets_match_best_actions():
    # best_actions and the hull rule of eligible_actions against the
    # definition, oracle_best_actions, at the hull's ends
    rng = np.random.default_rng(1901)
    ties = zero = huge = mixed = 0
    for draw in range(40_000):
        dyadic = draw % 2 == 0
        d, belief = _distances(rng, dyadic)
        if dyadic:
            lo, hi = sorted(float(x) * GRID for x in rng.integers(0, 17, size=2))
        else:
            lo, hi = sorted(float(x) for x in rng.uniform(0.0, 1.0, size=2))
        lam, tol = _lam(rng), TOLS[draw % 4]
        want = oracle_best_actions(lo, d, lam, tol)
        got = best_actions(lo, d, lam, tol)
        assert got == want, (lo, lam, d, tol)
        both = want & oracle_best_actions(hi, d, lam, tol)
        row = ("r", 0, lo, hi, d.d0, d.d05, d.d1, (lo + hi) / 2.0)
        assert chatroom_module.fold_room([row], [lam], tol).eligible["r"] == both, (lo, hi, lam, d, tol)
        assert eligible_actions(TypeSet.interval(lo, hi), belief, lam, tol) == both
        ties += len(got) > 1
        zero += lam == 0.0
        huge += lam > 1e100
        mixed += len(belief.atoms) > 1
    assert ties >= 3000 and zero >= 5000 and huge >= 2000 and mixed >= 5000


@pytest.mark.parametrize("b", [-0.5, -2e-9, 1.0 + 2e-9, 1.5, math.nan])
def test_peer_mean_off_the_unit_interval_raises_alike(b, monkeypatch):
    # a table made without its checks: one receiver, whose peer mean is the
    # sender's credence b.  The room total is kept as its own terms, which
    # are exact parts of it, as a NaN total cannot be split into parts
    monkeypatch.setattr(network, "_exact_parts", list)
    tree = OrderedTree.from_edges("1", [("1", "2")])
    table = AgentTable(["1", "2"], {"1": b, "2": 0.5}, {}, [1.0, 1.0], [1, 1])
    want = _raised(lambda: PeerDistanceProfile.from_dirac(b))
    assert isinstance(want, tuple)
    assert _raised(lambda: network._room_peers(TreeProfiles(tree, table), "1", ("2",))) == want


def _credences(rng: np.random.Generator, mu, n: int, dyadic: bool) -> list[float]:
    if dyadic:
        lo = int(np.floor(mu.mu_given_not_c / GRID)) + 1
        hi = int(np.ceil(mu.mu_given_c / GRID)) - 1
        return [float(x) * GRID for x in rng.integers(lo, hi + 1, size=n)]
    return [float(x) for x in rng.uniform(mu.mu_given_not_c + 1e-6, mu.mu_given_c - 1e-6, size=n)]


def _atoms(rng: np.random.Generator, mu, n: int, dyadic: bool) -> tuple[BeliefAtom, ...]:
    """A known type's one atom of weight 1, or one to four weighted atoms."""
    k = 1 if rng.random() < 0.5 else int(rng.integers(2, 5))
    if dyadic:
        weights = [1.0 / k] * k if k in (1, 2, 4) else [0.5, 0.25, 0.25]
    else:
        raw = rng.uniform(0.1, 1.0, size=k)
        weights = [float(w) for w in raw / raw.sum()]
    return tuple(BeliefAtom(tuple(_credences(rng, mu, n, dyadic)), w) for w in weights)


def _ref_gain(own: float, atoms, mu, tol: float) -> float:
    """The expected gain from its definition: each atom's weight times the
    sum of its receivers' ``nu_value``."""
    total = 0.0
    for atom in atoms:
        total += atom.weight * sum(nu_value(x, own, mu, tol) for x in atom.profile)
    return total


def _ref_decision(hull, atoms, mu, ell: int, disapprovals: int, tol: float) -> SenderAction:
    """The send rule from its statement: an open gate, every type admissible,
    and a gain above ``tol`` at the lowest type's prior."""
    if ell <= disapprovals:
        return SenderAction.NOSEND
    tau = worldview_prior(hull[0], mu, tol)
    require_credence(hull[1], mu, tol)
    return SenderAction.SEND if _ref_gain(tau, atoms, mu, tol) > tol else SenderAction.NOSEND


def test_gains_are_bit_identical():
    rng = np.random.default_rng(1902)
    compared = raised = several = 0
    for draw in range(6000):
        dyadic = draw % 2 == 0
        mu = validate_evidence(0.875, 0.125) if dyadic else random_evidence(rng)
        tol = TOLS[draw % 4]
        atoms = _atoms(rng, mu, int(rng.integers(1, 60)), dyadic)
        if draw % 50 == 7:  # one credence off the band, or outside [0, 1]
            bad = list(atoms[-1].profile)
            bad[int(rng.integers(0, len(bad)))] = [0.0, 1.0, 1.5, mu.mu_given_c][draw % 4]
            atoms = (*atoms[:-1], BeliefAtom(tuple(bad), atoms[-1].weight))
        own = [float(rng.uniform(0.0, 1.0)), 0.0, 1.0][0 if draw % 40 else draw % 3]
        want = _raised(lambda: _ref_gain(own, atoms, mu, tol))
        got = _raised(lambda: belief_gain(own, atoms, mu, tol))
        belief = SecondOrderBelief(atoms) if all(-1e-9 <= x <= 1.0 + 1e-9 for a in atoms for x in a.profile) else None
        public = want if belief is None else _raised(lambda: expected_send_gain(own, belief, mu, tol))
        if isinstance(want, float):
            assert isinstance(got, float) and got.hex() == want.hex() == public.hex(), (draw, got, want)
            compared += 1
            several += len(atoms) > 1
        else:
            assert got == want == public, draw
            raised += 1
    assert compared >= 4000 and raised >= 150 and several >= 1500


def test_decisions_match_decide_send():
    # decide_send and the send rule the engine calls, against the rule as stated
    rng = np.random.default_rng(1903)
    sends = closed = errors = intervals = 0
    for draw in range(6000):
        dyadic = draw % 2 == 0
        mu = validate_evidence(0.875, 0.125) if dyadic else random_evidence(rng)
        tol = TOLS[draw % 4]
        ends = _credences(rng, mu, 2, dyadic)
        hull = (ends[0], ends[0]) if draw % 3 else (min(ends), max(ends))
        atoms = _atoms(rng, mu, int(rng.integers(1, 12)), dyadic)
        ell, disapprovals = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        types = TypeSet.singleton(hull[0]) if hull[0] == hull[1] else TypeSet.interval(*hull)
        want = _raised(lambda: _ref_decision(hull, atoms, mu, ell, disapprovals, tol))
        assert _raised(lambda: send_rule(hull, atoms, mu, ell, disapprovals, tol)) == want, draw
        got = _raised(lambda: decide_send(types, SecondOrderBelief(atoms), mu, ell, disapprovals, tol))
        assert got == want, draw
        sends += got is SenderAction.SEND
        closed += ell <= disapprovals
        errors += isinstance(got, tuple)
        intervals += not types.is_finite
    assert sends >= 400 and closed >= 1000 and errors >= 200 and intervals >= 1000


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


def _eligible_by_utility(type_set: TypeSet, lam: float, d: PeerDistanceProfile, tol: float) -> frozenset:
    """The actions within ``tol`` of the best ``utility`` at both ends of
    the type hull."""
    out = set(ACTIONS)
    for theta in type_set.hull:
        u = {a: utility(a, theta, d, lam) for a in ACTIONS}
        out &= {a for a in ACTIONS if u[a] >= max(u.values()) - tol}
    return frozenset(out)


def _ref_room(eligible: dict, centroids: dict) -> ChatroomEquilibrium:
    """A room's equilibrium as the model states it: none when some eligible
    set is empty; else each receiver's eligible action nearest her type
    centroid, found walking the actions upwards so that a tie keeps the
    lower one, unique when every set is a singleton, and the count of
    selected disapprovals."""
    if not all(eligible.values()):
        return ChatroomEquilibrium(eligible, None, Multiplicity.NONE, 0)
    actions = {}
    for r, e in eligible.items():
        best = None
        for a in ACTIONS:
            if a in e and (best is None or abs(float(a) - centroids[r]) < abs(float(best) - centroids[r])):
                best = a
        actions[r] = best
    unique = all(len(e) == 1 for e in eligible.values())
    disapprovals = sum(a is ReceiverAction.DISAPPROVE for a in actions.values())
    return ChatroomEquilibrium(eligible, actions, Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE, disapprovals)


def _reference(tree: OrderedTree, profiles: TreeProfiles, mu, tol: float):
    """``solve_global`` from the model's statements alone: each room
    ``_ref_room`` over ``utility``-based eligible sets, from ``peer_distance``
    of each receiver's belief (``SecondOrderBelief.dirac`` of her peers'
    credences when not explicit), and each sender the stated send rule over
    ``nu_value`` sums (her audience at their credences when not explicit),
    after the same entry checks.  Returns what ``_outcome`` returns."""
    attrs, theta = profiles.attrs, profiles.theta
    receiver_actions, sender_actions, room_eqs, multiple = {}, {}, {}, []
    failing = None
    queue: deque = deque()

    def decide(agent, type_set, ell, disapprovals):
        belief = profiles.sender_belief(agent) if ell > disapprovals else None
        atoms = () if belief is None else belief.atoms
        try:
            decision = _ref_decision(type_set.hull, atoms, mu, ell, disapprovals, tol)
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
            eligible = {}
            for r, prof in zip(receivers, profs):
                belief = profiles.receiver_belief(r)
                if belief is None:
                    belief = SecondOrderBelief.dirac([theta[sender], *(theta[o] for o in receivers if o != r)])
                eligible[r] = _eligible_by_utility(prof.type_set, prof.lam, peer_distance(belief), tol)
            centroids = {r: prof.type_set.centroid for r, prof in zip(receivers, profs)}
            eq = room_eqs[sender] = _ref_room(eligible, centroids)
            if eq.multiplicity is Multiplicity.NONE:
                failing = sender
                break
            if eq.multiplicity is Multiplicity.MULTIPLE:
                multiple.append(sender)
            receiver_actions.update(eq.actions)
            for r, prof in zip(receivers, profs):
                if tree.children_of(r):
                    decide(r, prof.type_set, prof.ell, eq.disapprovals)
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


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_explicit_belief_solve_runs_no_leaf(monkeypatch, tmp_path, capsys):
    # explicit receivers react through the kernel and explicit senders gain
    # through it, so a solve that raises nothing evaluates no leaf function
    calls: list[str] = []

    def counting(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(receiver_module, "utility", counting("utility", receiver_module.utility))
    monkeypatch.setattr(sender_module, "nu_value", counting("nu_value", sender_module.nu_value))
    for module in (sender_module, belief_module):
        posterior = module.worldview_posterior
        monkeypatch.setattr(module, "worldview_posterior", counting("worldview_posterior", posterior))

    workloads = _load_workloads()
    workload = workloads.WORKLOADS["interval_senders"]
    path = tmp_path / "scenario.json"
    path.write_text(workloads.scenario_text(workload, 1, toy=0))
    assert main(workload.argv(str(path))) == 0, capsys.readouterr().err
    assert '"send": "send"' in capsys.readouterr().out
    assert calls == []

    rnd = random.Random(1906)
    solved = intervals = sent = 0
    for draw in range(300):
        doc = _explicit_draw(rnd, 0)[0]  # no fault planted
        scenario = parse_scenario(json.dumps(doc))
        tree = scenario.tree()
        try:
            result = solve_global(tree, scenario.profiles_for(tree), scenario.evidence)
        except RumorcastError:
            continue
        assert calls == [], draw
        solved += 1
        intervals += any(isinstance(spec["types"], dict) for spec in doc["agents"].values())
        sent += SenderAction.SEND in result.sender_actions.values()
    assert solved >= 200 and intervals >= 100 and sent >= 100, (solved, intervals, sent)


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
