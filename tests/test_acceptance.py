"""End-to-end acceptance gate.

One test per acceptance criterion: frozen worked fixtures first, then the
randomized property sweeps.  Each test prints a single summary line (visible
under ``pytest -s``); a pytest failure on any of them is a red gate.  Draw
counts are sized to keep the whole suite inside a two-minute budget.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from rumorcast import (
    ACTIONS,
    EPS,
    AgentProfile,
    ChatroomGame,
    Multiplicity,
    PeerDistanceProfile,
    ReceiverAction,
    ReceiverSpec,
    SecondOrderBelief,
    SenderAction,
    TypeSet,
    best_actions,
    canonicalize_result,
    decide_send,
    dirac_truth_profiles,
    eligible_actions,
    expected_send_gain,
    lambda_star,
    nu_breakpoints,
    nu_value,
    oracle_chatroom_profiles,
    oracle_global,
    peer_distance,
    root_tree,
    solve_chatroom,
    solve_global,
    support_interval,
    undirected_closure,
    utility,
    validate_evidence,
    worldview_posterior,
    worldview_prior,
)
from helpers import (
    canonical_attrs,
    canonical_mu,
    canonical_profiles,
    canonical_tree,
    random_belief,
    random_chatroom_game,
    random_dirac_instance,
    random_evidence,
    random_tree,
)

D, S, A = ReceiverAction.DISAPPROVE, ReceiverAction.SILENCE, ReceiverAction.APPROVE

N_DRAWS = 10_000
N_GATE_INSTANCES = 1_000
# Brute-force cascade enumeration costs up to 3^5 * 2^5 assignments per
# instance, so this sweep runs fewer draws than the algebraic ones to stay
# inside the suite's runtime budget.
N_GLOBAL_ORACLE = 600


def _ok(label: str) -> None:
    print(f"acceptance PASS: {label}")


def _random_profile(rng: np.random.Generator) -> PeerDistanceProfile:
    if rng.random() < 0.5:
        return PeerDistanceProfile.from_dirac(float(rng.uniform(0.0, 1.0)))
    return peer_distance(random_belief(rng, int(rng.integers(1, 4))))


def _random_lam(rng: np.random.Generator) -> float:
    # mostly moderate pressure, with a heavy tail so empty supports show up
    if rng.random() < 0.7:
        return float(rng.uniform(0.0, 4.0))
    return float(rng.exponential(8.0))


def test_1_reaction_regimes_track_public_opinion():
    theta = 0.1

    for b in np.arange(0.0, 0.4 - 1e-6, 5e-4):
        assert best_actions(theta, PeerDistanceProfile.from_dirac(float(b)), 1.0) == {D}
    for b in np.arange(0.4 + 1e-6, 1.0 - 1e-6, 5e-4):
        assert best_actions(theta, PeerDistanceProfile.from_dirac(float(b)), 1.0) == {S}
    assert best_actions(theta, PeerDistanceProfile.from_dirac(1.0), 1.0) == {S, A}

    for b in np.arange(0.875 + 1e-6, 1.0, 5e-4):
        assert best_actions(theta, PeerDistanceProfile.from_dirac(float(b)), 2.0) == {A}
    assert best_actions(theta, PeerDistanceProfile.from_dirac(1.0), 2.0) == {A}

    # under extreme pressure the optimum is pinned by the nearest action,
    # so the regime boundaries drift to 0.25 and 0.75
    lam = 1e6
    flip_down = next(
        float(b)
        for b in np.arange(0.24, 0.26, 1e-4)
        if best_actions(theta, PeerDistanceProfile.from_dirac(float(b)), lam) != {D}
    )
    assert abs(flip_down - 0.25) <= 1e-3
    flip_up = next(
        float(b)
        for b in np.arange(0.74, 0.76, 1e-4)
        if best_actions(theta, PeerDistanceProfile.from_dirac(float(b)), lam) == {A}
    )
    assert abs(flip_up - 0.75) <= 1e-3
    _ok("1 reaction regimes and asymptotic 0.25/0.75 boundaries")


def _two_member_room(theta_1: TypeSet, theta_2: TypeSet, lam: float) -> ChatroomGame:
    # both receivers picture every peer at credence 0.8
    belief = SecondOrderBelief.dirac([0.8, 0.8])
    return ChatroomGame(
        sender="s",
        sender_types=TypeSet.singleton(0.8),
        receivers=(
            ReceiverSpec(agent="r1", type_set=theta_1, lam=lam, belief=belief),
            ReceiverSpec(agent="r2", type_set=theta_2, lam=lam, belief=belief),
        ),
    )


def test_2_conformity_room_silence_and_approval():
    d = peer_distance(SecondOrderBelief.dirac([0.8, 0.8]))

    # moderate pressure: silence only serves credences up to 0.6
    iv = support_interval(S, d, 3.0)
    assert iv.lo == pytest.approx(0.0, abs=1e-12)
    assert iv.hi == pytest.approx(0.6, abs=1e-12)
    for type_set in (
        TypeSet.singleton(0.61),
        TypeSet.finite([0.3, 0.62]),
        TypeSet.interval(0.5, 0.7),
        TypeSet.singleton(0.8),
        TypeSet.interval(0.3, 0.85),
    ):
        assert S not in eligible_actions(type_set, SecondOrderBelief.dirac([0.8, 0.8]), 3.0)
    # contrast: a type set inside [0, 0.6] keeps silence available
    assert S in eligible_actions(
        TypeSet.finite([0.3, 0.55]), SecondOrderBelief.dirac([0.8, 0.8]), 3.0
    )

    for game in (
        _two_member_room(TypeSet.singleton(0.8), TypeSet.singleton(0.8), 3.0),
        _two_member_room(TypeSet.finite([0.62, 0.8]), TypeSet.singleton(0.8), 3.0),
        _two_member_room(TypeSet.interval(0.3, 0.85), TypeSet.singleton(0.8), 3.0),
    ):
        eq = solve_chatroom(game)
        assert all(S not in elig for elig in eq.eligible.values())
        if eq.actions is not None:
            assert (eq.actions["r1"], eq.actions["r2"]) != (S, S)

    # heavy pressure: approval serves every credence, everything else none
    full = support_interval(A, d, 6.0)
    assert full.lo == 0.0 and full.hi == 1.0
    assert support_interval(S, d, 6.0).empty
    assert support_interval(D, d, 6.0).empty
    for game in (
        _two_member_room(TypeSet.singleton(0.8), TypeSet.singleton(0.8), 6.0),
        _two_member_room(TypeSet.finite([0.2, 0.8]), TypeSet.finite([0.8, 1.0]), 6.0),
        _two_member_room(TypeSet.interval(0.05, 0.95), TypeSet.singleton(0.8), 6.0),
        _two_member_room(TypeSet.interval(0.8, 0.9), TypeSet.interval(0.6, 0.85), 6.0),
    ):
        eq = solve_chatroom(game)
        assert eq.multiplicity is Multiplicity.UNIQUE
        assert eq.actions == {"r1": A, "r2": A}
    _ok("2 conformity room: no joint silence past 0.6; unanimous approval at high pressure")


def test_3_worked_sending_decision():
    mu = validate_evidence(0.02, 0.01)
    # the status quo: the audience's total worldview distance from prior 0.7
    status_quo = sum(abs(worldview_prior(x, mu) - 0.7) for x in (0.019, 0.012))
    assert status_quo == pytest.approx(0.7, abs=1e-12)
    assert worldview_posterior(0.019, mu) == pytest.approx(18 / 19, abs=1e-12)
    assert worldview_posterior(0.012, mu) == pytest.approx(1 / 3, abs=1e-12)
    gain = expected_send_gain(0.7, SecondOrderBelief.dirac([0.019, 0.012]), mu)
    assert gain == pytest.approx(0.7 - 35 / 57, abs=1e-12)
    assert gain > 0

    own = TypeSet.singleton(0.017)  # own prior 0.7
    pair = SecondOrderBelief.dirac([0.019, 0.012])
    assert decide_send(own, pair, mu) is SenderAction.SEND
    replicas = SecondOrderBelief.dirac([0.019, 0.019, 0.019, 0.012])
    assert decide_send(own, replicas, mu) is SenderAction.NOSEND
    _ok("3 worked sending decision: gain 0.7 - 35/57 sends; replica audience does not")


def test_4_canonical_cascade_profile():
    result = solve_global(canonical_tree(), canonical_profiles(), canonical_mu())
    assert result.exists and result.unique
    assert result.multiple_rooms == () and result.failing_room is None
    assert result.reach == frozenset(str(i) for i in range(1, 11))
    assert dict(result.sender_actions) == {a: SenderAction.SEND for a in ("1", "2", "3", "4")}
    assert dict(result.receiver_actions) == {
        "2": S,
        "3": S,
        "4": S,
        "5": D,
        "6": D,
        "7": D,
        "8": D,
        "9": S,
        "10": S,
    }
    _ok("4 canonical ten-agent cascade: exact unique profile, full reach")


def test_5_rooting_extremes():
    graph = undirected_closure(canonical_tree())
    attrs = canonical_attrs()
    mu = canonical_mu()

    best = root_tree(graph, "1")
    assert solve_global(best, dirac_truth_profiles(best, attrs), mu).reach_count == 10

    worst = root_tree(graph, "5")
    result = solve_global(worst, dirac_truth_profiles(worst, attrs), mu)
    assert result.reach_count == 1
    assert result.send_of("5") is SenderAction.NOSEND
    _ok("5 rooting: origin 1 reaches all ten, origin 5 never sends")


class TestPropertySuite:
    def test_6a_interval_ordering_chain(self):
        rng = np.random.default_rng(60601)
        for _ in range(N_DRAWS):
            d, lam = _random_profile(rng), _random_lam(rng)
            present = [iv for iv in (support_interval(a, d, lam) for a in ACTIONS) if not iv.empty]
            for iv in present:
                assert iv.lo <= iv.hi
            # both endpoints weakly increase along 0, 0.5, 1
            for left, right in zip(present, present[1:]):
                assert left.lo <= right.lo + EPS and left.hi <= right.hi + EPS, (d, lam, left, right)
        _ok("6a support intervals keep the ordered-endpoint chain")

    def test_6b_intermediate_action_emptiness(self):
        rng = np.random.default_rng(60602)
        hits = 0
        for _ in range(N_DRAWS):
            d = peer_distance(random_belief(rng, int(rng.integers(1, 4))))
            lam = _random_lam(rng)
            if support_interval(S, d, lam).empty:
                hits += 1
                assert support_interval(D, d, lam).empty or support_interval(A, d, lam).empty
        assert hits > 300  # the rule must actually be exercised
        _ok(f"6b empty silence support implies an empty neighbor ({hits} hits)")

    def test_6c_sensitivity_monotone_capture(self):
        rng = np.random.default_rng(60603)
        checked = 0
        for _ in range(N_DRAWS):
            d = _random_profile(rng)
            star = d.strict_min_action()
            if star is None:
                continue
            checked += 1
            lam_lo = float(rng.uniform(0.0, 5.0))
            lam_hi = lam_lo + float(rng.uniform(1e-6, 5.0))
            small = support_interval(star, d, lam_lo)
            assert not small.empty  # the minimizer always serves its own value
            big = support_interval(star, d, lam_hi)
            assert not big.empty and big.lo - EPS <= small.lo and small.hi <= big.hi + EPS
            # past the dominance threshold the support covers all credences
            full = support_interval(star, d, lambda_star(d) * (1.0 + 1e-9) + 1e-9)
            assert full.lo == 0.0 and full.hi == 1.0
        assert checked > N_DRAWS * 0.9
        _ok("6c nearest-action support grows with pressure and covers [0, 1]")

    def test_6d_disapproval_persists_at_lower_sensitivity(self):
        rng = np.random.default_rng(60604)
        populated = 0
        for _ in range(N_DRAWS):
            b = float(rng.uniform(0.251, 1.0))  # disapproval never the nearest action
            d = PeerDistanceProfile.from_dirac(b)
            lam_hi = float(rng.uniform(0.0, 6.0))
            lam_lo = lam_hi * float(rng.uniform(0.0, 1.0))
            at_hi = support_interval(D, d, lam_hi)
            if at_hi.empty:
                continue
            populated += 1
            at_lo = support_interval(D, d, lam_lo)
            assert not at_lo.empty and at_lo.lo - EPS <= at_hi.lo and at_hi.hi <= at_lo.hi + EPS
            theta = float(rng.uniform(at_hi.lo, at_hi.hi))
            assert D in best_actions(theta, d, lam_lo)
        assert populated > 1000
        _ok(f"6d disapproval persists as pressure falls ({populated} populated draws)")

    def test_6e_dominance_beyond_lambda_star(self):
        rng = np.random.default_rng(60605)
        theta_grid = np.linspace(0.0, 1.0, 21)
        for _ in range(N_DRAWS):
            d = _random_profile(rng)
            star = d.strict_min_action()
            if star is None:
                continue
            lam = lambda_star(d) * (1.0 + 1e-3) + 1e-6
            for theta in theta_grid:
                assert best_actions(float(theta), d, lam) == {star}
            for theta in rng.uniform(0.0, 1.0, size=4):
                assert best_actions(float(theta), d, lam) == {star}
        for _ in range(N_DRAWS):
            b = float(rng.uniform(0.0, 0.2499))
            expected = 1.0 / (1.0 - 4.0 * b)
            assert lambda_star(PeerDistanceProfile.from_dirac(b)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )
        assert lambda_star(PeerDistanceProfile.from_dirac(0.2)) == pytest.approx(5.0, abs=1e-12)
        assert lambda_star(PeerDistanceProfile.from_dirac(0.0)) == pytest.approx(1.0, abs=1e-12)
        _ok("6e dominance past lambda-star; closed form 1/(1-4b) below one quarter")

    def test_6f_gain_contribution_shape(self):
        rng = np.random.default_rng(60606)
        step = 1e-4
        for _ in range(N_DRAWS):
            mu = random_evidence(rng)
            tau = float(rng.uniform(0.02, 0.98))
            lo, hi = nu_breakpoints(tau, mu)
            xs = np.arange(mu.mu_given_not_c + 1e-6, mu.mu_given_c - 1e-6, step)
            diffs = np.diff(np.asarray(nu_value(xs, tau, mu)))
            left, right = xs[:-1], xs[1:]
            assert np.all(diffs[right <= lo + 1e-12] >= -1e-9)
            assert np.all(diffs[(left >= lo - 1e-12) & (right <= hi + 1e-12)] <= 1e-9)
            assert np.all(diffs[left >= hi - 1e-12] >= -1e-9)
        assert nu_breakpoints(0.5, validate_evidence(0.9, 0.1)) == pytest.approx(
            (0.18, 0.5), abs=1e-12
        )
        _ok("6f per-receiver gain rises, falls, rises across its two breakpoints")

    @staticmethod
    def _instance_with_agreeable_peers(rng: np.random.Generator):
        # all credences sit above 0.27, so no peer mean makes disapproval
        # the nearest action and extra pressure can only calm reactions
        beta = float(rng.uniform(0.02, 0.2))
        alpha = float(rng.uniform(0.55, 0.95))
        mu = validate_evidence(alpha, beta)
        tree = random_tree(rng, int(rng.integers(3, 7)))
        attrs = {
            agent: AgentProfile(
                type_set=TypeSet.singleton(float(rng.uniform(0.27, alpha - 0.02))),
                lam=float(rng.uniform(0.0, 3.0)),
                ell=int(rng.choice((0, 1, 2))),
            )
            for agent in tree.agents
        }
        return tree, attrs, mu

    def test_6g_gate_opens_under_pointwise_sensitivity_increase(self):
        rng = np.random.default_rng(60607)
        for _ in range(N_GATE_INSTANCES):
            tree, attrs, mu = self._instance_with_agreeable_peers(rng)
            base = solve_global(tree, dirac_truth_profiles(tree, attrs), mu)
            bumped_attrs = {
                agent: dataclasses.replace(p, lam=p.lam + float(rng.uniform(0.05, 2.0)))
                for agent, p in attrs.items()
            }
            bumped = solve_global(tree, dirac_truth_profiles(tree, bumped_attrs), mu)
            base_senders = {
                agent for agent, act in base.sender_actions.items() if act is SenderAction.SEND
            }
            bumped_senders = {
                agent for agent, act in bumped.sender_actions.items() if act is SenderAction.SEND
            }
            assert base_senders <= bumped_senders
            assert base.reach <= bumped.reach
        _ok("6g send set and reach grow under pointwise pressure increases")

    def test_6h_chatroom_engine_matches_enumeration(self):
        rng = np.random.default_rng(60608)
        uniques = 0
        for _ in range(N_DRAWS):
            game = random_chatroom_game(rng)
            eq = solve_chatroom(game)
            enumerated = oracle_chatroom_profiles(game)
            if eq.multiplicity is Multiplicity.NONE:
                assert enumerated == frozenset()
                continue
            chosen = tuple(eq.actions[r.agent] for r in game.receivers)
            assert chosen in enumerated
            if eq.multiplicity is Multiplicity.UNIQUE:
                uniques += 1
                assert len(enumerated) == 1
            else:
                assert len(enumerated) > 1
        assert uniques > 500
        _ok(f"6h chatroom solver agrees with enumeration ({uniques} unique rooms)")

    def test_6h_cascade_engine_matches_enumeration(self):
        rng = np.random.default_rng(60609)
        uniques = 0
        for _ in range(N_GLOBAL_ORACLE):
            tree, profiles, mu = random_dirac_instance(rng)
            engine = solve_global(tree, profiles, mu)
            assert engine.exists
            enumerated = oracle_global(tree, profiles, mu)
            assert canonicalize_result(tree, engine) in enumerated
            assert engine.unique == (len(enumerated) == 1)
            if engine.unique:
                uniques += 1
        assert uniques > N_GLOBAL_ORACLE * 0.5
        _ok(f"6h cascade solver agrees with enumeration ({uniques} unique cascades)")


def test_7_average_versus_per_peer_penalty():
    d = PeerDistanceProfile.from_dirac(0.5)
    mean_based = tuple(utility(a, 0.2, d, 1.0) for a in ACTIONS)
    assert mean_based == pytest.approx((-0.7, -0.3, -1.3), abs=1e-12)
    assert best_actions(0.2, d, 1.0) == {S}

    # penalize the distance to each peer, averaged, instead of to the peer mean
    peers = (0.0, 1.0)
    per_peer = tuple(
        -(abs(float(a) - 0.2) + 1.0 * sum(abs(float(a) - x) for x in peers) / len(peers)) for a in ACTIONS
    )
    assert per_peer == pytest.approx((-0.7, -0.8, -1.3), abs=1e-12)
    top = max(per_peer)
    assert {a for a, v in zip(ACTIONS, per_peer) if abs(v - top) <= 1e-12} == {D}
    _ok("7 averaged and per-peer penalties split: silence versus disapproval")
