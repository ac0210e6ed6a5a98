"""Reaction game: utilities, best actions, support intervals, thresholds."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from rumorcast import (
    ACTIONS,
    EPS,
    DomainError,
    EmptySupport,
    Infeasible,
    InvariantViolation,
    PeerDistanceProfile,
    RangeViolation,
    ReceiverAction,
    SecondOrderBelief,
    best_actions,
    lambda_star,
    min_lambda_for_action,
    peer_distance,
    support_interval,
    utility,
)
from rumorcast.receiver import BeliefAtom
from rumorcast.oracle import GridSpec, oracle_min_lambda, oracle_support_points

from helpers import random_belief

D = ReceiverAction.DISAPPROVE
S = ReceiverAction.SILENCE
A = ReceiverAction.APPROVE


class TestPeerDistance:
    def test_dirac_profile(self):
        d = peer_distance(SecondOrderBelief.dirac([0.8, 0.8]))
        assert d.d0 == pytest.approx(0.8)
        assert d.d05 == pytest.approx(0.3)
        assert d.d1 == pytest.approx(0.2)

    def test_mixture_averages_absolute_distances(self):
        # two equally likely profiles with means 0.2 and 1.0
        p = SecondOrderBelief.mixture([([0.2], 0.5), ([1.0], 0.5)])
        d = peer_distance(p)
        assert d.d0 == pytest.approx(0.6)
        assert d.d05 == pytest.approx(0.4)  # 0.5*0.3 + 0.5*0.5
        assert d.d1 == pytest.approx(0.4)

    def test_belief_induced_profiles_hit_triangle_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = peer_distance(random_belief(rng, dim=int(rng.integers(1, 5))))
            assert d.d0 + d.d1 == pytest.approx(1.0, abs=1e-9)

    def test_empty_belief_rejected(self):
        with pytest.raises(EmptySupport):
            SecondOrderBelief(atoms=())
        with pytest.raises(InvariantViolation, match="at least one peer"):
            SecondOrderBelief(atoms=(BeliefAtom(profile=(), weight=1.0),))

    def test_bad_weights_rejected(self):
        with pytest.raises(RangeViolation):
            SecondOrderBelief.mixture([([0.5], 0.0), ([0.2], 1.0)])
        with pytest.raises(InvariantViolation):
            SecondOrderBelief.mixture([([0.5], 0.4), ([0.2], 0.4)])

    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: SecondOrderBelief.mixture([([0.5], True)]), "atom weight must be finite and positive, got True"),
            (lambda: SecondOrderBelief.mixture([([0.5], "1")]), "atom weight must be finite and positive, got '1'"),
            (lambda: SecondOrderBelief.mixture([([0.5], 10**400)]), "atom weight must be finite and positive, got 1000"),
            (lambda: SecondOrderBelief.mixture([([True, 0.5], 1.0)]), "profile coordinate must be a number, got True"),
            (lambda: SecondOrderBelief.mixture([([0.5, "x"], 1.0)]), "profile coordinate must be a number, got 'x'"),
            (lambda: SecondOrderBelief.dirac(["0.5"]), "profile coordinate must be a number, got '0.5'"),
            (lambda: SecondOrderBelief.mixture([([10**400], 1.0)]), "profile coordinate 1000"),
            (lambda: SecondOrderBelief((BeliefAtom(("a",), 1.0),)), "profile coordinate must be a number, got 'a'"),
            (lambda: SecondOrderBelief((BeliefAtom((0.5, False), 1.0),)), "profile coordinate must be a number, got False"),
            (lambda: SecondOrderBelief((BeliefAtom((0.5,), None),)), "atom weight must be finite and positive, got None"),
        ],
    )
    def test_bools_and_non_numbers_are_refused(self, build, text):
        with pytest.raises(RangeViolation) as caught:
            build()
        assert str(caught.value).startswith(text)

    def test_number_subclasses_are_read_as_floats(self):
        # numpy's float64 is a float: the profile is walked, and read as plain floats
        belief = SecondOrderBelief.mixture([(np.array([0.25, 0.5]), np.float64(1.0))])
        assert belief.atoms == (BeliefAtom((0.25, 0.5), 1.0),)
        assert {type(x) for x in belief.atoms[0].profile} == {float}
        assert SecondOrderBelief((BeliefAtom((np.float64(0.5),), 1.0),)).dim == 1
        with pytest.raises(RangeViolation, match=r"coordinate .*nan.* outside"):
            SecondOrderBelief((BeliefAtom((np.float64(0.5), np.float64("nan")), 1.0),))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvariantViolation):
            SecondOrderBelief.mixture([([0.5], 0.5), ([0.2, 0.3], 0.5)])

    def test_profile_invariants(self):
        with pytest.raises(RangeViolation):
            PeerDistanceProfile(d0=-0.1, d05=0.4, d1=1.1)
        with pytest.raises(InvariantViolation):
            PeerDistanceProfile(d0=0.2, d05=0.3, d1=0.2)
        for b in (-0.01, 1.01):
            with pytest.raises(RangeViolation, match="peer mean"):
                PeerDistanceProfile.from_dirac(b)


class TestUtility:
    def test_dirac_loss_table(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        assert utility(D, 0.1, d, 2.0) == pytest.approx(-(0.1 + 2.0 * 0.8))
        assert utility(S, 0.1, d, 2.0) == pytest.approx(-(0.4 + 2.0 * 0.3))
        assert utility(A, 0.1, d, 2.0) == pytest.approx(-(0.9 + 2.0 * 0.2))

    def test_rejects_bad_inputs(self):
        d = PeerDistanceProfile.from_dirac(0.5)
        with pytest.raises(DomainError):
            utility(D, 1.2, d, 1.0)
        with pytest.raises(RangeViolation):
            utility(D, 0.5, d, -0.5)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(RangeViolation, match="sensitivity"):
                utility(D, 0.5, d, lam)


class TestBestActions:
    def test_low_peer_mean_turns_disapproval(self):
        theta = 0.1
        for b in (0.05, 0.2, 0.39):
            assert best_actions(theta, PeerDistanceProfile.from_dirac(b), 1.0) == {D}

    def test_mid_peer_mean_turns_silence(self):
        theta = 0.1
        for b in (0.41, 0.6, 0.99):
            assert best_actions(theta, PeerDistanceProfile.from_dirac(b), 1.0) == {S}

    def test_tie_at_full_agreement(self):
        assert best_actions(0.1, PeerDistanceProfile.from_dirac(1.0), 1.0) == {S, A}

    def test_high_sensitivity_turns_approval(self):
        theta = 0.1
        for b in (0.88, 0.95, 1.0):
            assert best_actions(theta, PeerDistanceProfile.from_dirac(b), 2.0) == {A}

    def test_no_pressure_tracks_own_credence(self):
        d = PeerDistanceProfile.from_dirac(0.9)
        assert best_actions(0.1, d, 0.0) == {D}
        assert best_actions(0.5, d, 0.0) == {S}
        assert best_actions(0.95, d, 0.0) == {A}


class TestSupportInterval:
    def test_silence_window_under_high_peer_mean(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        iv = support_interval(S, d, 3.0)
        assert (iv.lo, iv.hi) == (pytest.approx(0.0), pytest.approx(0.6))
        assert support_interval(D, d, 3.0).empty
        hi = support_interval(A, d, 3.0)
        assert (hi.lo, hi.hi) == (pytest.approx(0.6), pytest.approx(1.0))

    def test_low_peer_mean_crowds_out_everything_else(self):
        d = PeerDistanceProfile.from_dirac(0.1)
        assert support_interval(S, d, 10.0).empty
        assert support_interval(A, d, 10.0).empty
        full = support_interval(D, d, 10.0)
        assert (full.lo, full.hi) == (0.0, 1.0)

    def test_quarter_point_split(self):
        d = PeerDistanceProfile.from_dirac(0.25)
        lo_iv, mid_iv, hi_iv = (support_interval(a, d, 1.0) for a in ACTIONS)
        assert (lo_iv.lo, lo_iv.hi) == (pytest.approx(0.0), pytest.approx(0.25))
        assert (mid_iv.lo, mid_iv.hi) == (pytest.approx(0.25), pytest.approx(1.0))
        assert (hi_iv.lo, hi_iv.hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_contains_respects_tolerance(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        iv = support_interval(S, d, 3.0)
        assert iv.contains(0.6 + 1e-10)
        assert not iv.contains(0.61)
        none = support_interval(D, d, 3.0)
        assert none.empty
        assert not none.contains(0.5, tol=1.0)

    def test_bounds_never_cross(self):
        # a cut applies only when -gap <= c, so every upper cut lies at or above
        # the action's value and every lower cut at or below it, with no rounding
        # slack: a nonempty support set holds its own action's value
        rnd = random.Random(15)
        dyadic = [k / 64 for k in range(65)]
        nonempty = 0
        for draw in range(100_000):
            how = draw % 4
            if how == 0:  # dyadic distances, ties among them common
                d0 = rnd.choice(dyadic)
                d1 = 1.0 - d0 + rnd.choice([0.0, rnd.choice(dyadic)])
                d05 = rnd.choice([d0, d1, rnd.choice(dyadic), abs(0.5 - d0)])
                d = PeerDistanceProfile(d0=d0, d05=d05, d1=d1)
            elif how == 1:  # a point mass, on the dyadic grid or anywhere
                d = PeerDistanceProfile.from_dirac(rnd.choice([rnd.choice(dyadic), rnd.random()]))
            elif how == 2:
                w = rnd.random() * 0.98 + 0.01
                d = peer_distance(SecondOrderBelief.mixture([([rnd.random()], w), ([rnd.random()], 1.0 - w)]))
            else:  # unstructured distances, d0 + d1 >= 1
                d0 = rnd.uniform(0.0, 3.0)
                d = PeerDistanceProfile(d0=d0, d05=rnd.uniform(0.0, 3.0), d1=max(0.0, 1.0 - d0) + rnd.uniform(0.0, 2.0))
            a, o = rnd.sample(ACTIONS, 2)
            diff = d.get(o) - d.get(a)
            lam = rnd.choice([
                0.0,
                rnd.choice(dyadic) * 8,
                rnd.uniform(0.0, 10.0),
                10.0 ** rnd.uniform(-300.0, 300.0),
                1e300,
                abs(float(o) - float(a)) / abs(diff) if diff else 1.0,  # a cut at the edge of its range
            ])
            for action in ACTIONS:
                iv = support_interval(action, d, lam)
                if not iv.empty:
                    nonempty += 1
                    assert 0.0 <= iv.lo <= float(action) <= iv.hi <= 1.0, (d, lam, iv)
        assert nonempty >= 100_000

    def test_degenerate_tie_keeps_weak_ordering(self):
        # peers at 0 with lam = 1 makes 0 and 0.5 tie on [0.5, 1]
        d = PeerDistanceProfile.from_dirac(0.0)
        lo_iv, mid_iv, hi_iv = (support_interval(a, d, 1.0) for a in ACTIONS)
        # the ordered-endpoint chain holds weakly: both ends rise along 0, 0.5, 1
        for left, right in ((lo_iv, mid_iv), (mid_iv, hi_iv)):
            assert left.lo <= right.lo + EPS and left.hi <= right.hi + EPS
        assert (lo_iv.lo, lo_iv.hi) == (0.0, 1.0)
        assert (mid_iv.lo, mid_iv.hi) == (pytest.approx(0.5), pytest.approx(1.0))
        assert (hi_iv.lo, hi_iv.hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_matches_grid_oracle_on_random_draws(self):
        rng = np.random.default_rng(23)
        grid = GridSpec(step=1e-3)
        for _ in range(60):
            d = peer_distance(random_belief(rng, dim=int(rng.integers(1, 4))))
            lam = float(rng.uniform(0.0, 6.0))
            for action in ACTIONS:
                iv = support_interval(action, d, lam)
                pts = oracle_support_points(action, d, lam, grid)
                if iv.empty:
                    assert not pts
                else:
                    assert pts, f"closed form nonempty, oracle empty: {iv}"
                    assert abs(pts[0] - iv.lo) <= grid.step + 1e-9
                    assert abs(pts[-1] - iv.hi) <= grid.step + 1e-9

    def test_ordering_chain_on_random_draws(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = peer_distance(random_belief(rng, dim=2))
            lam = float(rng.uniform(0.0, 8.0))
            present = [iv for iv in (support_interval(a, d, lam) for a in ACTIONS) if not iv.empty]
            assert present
            # nonempty support sets come in action order: both ends weakly rise
            for left, right in zip(present, present[1:]):
                assert left.lo <= right.lo + EPS and left.hi <= right.hi + EPS, (d, lam, left, right)


class TestSensitivityThresholds:
    def test_known_minimum_for_approval(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        assert min_lambda_for_action(0.0, d, A) == pytest.approx(5.0, abs=1e-9)

    def test_grid_oracle_agrees_with_frozen_value(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        lam = oracle_min_lambda(0.0, d, A, lam_hi=6.0, step=1e-3)
        assert lam == pytest.approx(5.0, abs=1e-3)

    def test_already_optimal_needs_nothing(self):
        d = PeerDistanceProfile.from_dirac(0.5)
        assert min_lambda_for_action(0.5, d, S) == 0.0

    def test_non_minimizer_is_infeasible(self):
        d = PeerDistanceProfile.from_dirac(0.2)
        with pytest.raises(Infeasible):
            min_lambda_for_action(0.9, d, A)

    def test_membership_holds_at_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            b = float(rng.uniform(0.0, 1.0))
            d = PeerDistanceProfile.from_dirac(b)
            target = d.strict_min_action()
            if target is None:
                continue
            theta = float(rng.uniform(0.0, 1.0))
            lam = min_lambda_for_action(theta, d, target)
            assert target in best_actions(theta, d, lam)
            if lam > 1e-6:
                assert target not in best_actions(theta, d, lam * (1 - 1e-4) - 1e-9)


class TestLambdaStar:
    def test_dirac_closed_form_below_quarter(self):
        rng = np.random.default_rng(37)
        for b in rng.uniform(0.0, 0.2499, size=200):
            d = PeerDistanceProfile.from_dirac(float(b))
            assert lambda_star(d) == pytest.approx(1.0 / (1.0 - 4.0 * b), rel=1e-9)

    def test_known_values(self):
        assert lambda_star(PeerDistanceProfile.from_dirac(0.2)) == pytest.approx(5.0)
        assert lambda_star(PeerDistanceProfile.from_dirac(0.0)) == pytest.approx(1.0)
        assert lambda_star(PeerDistanceProfile.from_dirac(0.5)) == pytest.approx(1.0)
        assert lambda_star(PeerDistanceProfile.from_dirac(0.8)) == pytest.approx(5.0)

    def test_tied_distances_infeasible(self):
        with pytest.raises(Infeasible):
            lambda_star(PeerDistanceProfile.from_dirac(0.25))

    def test_dominance_beyond_threshold(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = peer_distance(random_belief(rng, dim=2))
            target = d.strict_min_action()
            if target is None:
                continue
            lam = lambda_star(d) * (1.0 + 1e-6) + 1e-6
            for theta in np.linspace(0.0, 1.0, 31):
                assert best_actions(float(theta), d, lam) == {target}


class TestNonFiniteInvariants:
    """Library callers get a typed error naming the field, never a belief
    or distance profile that carries NaN or an infinity into a solve."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["d0", "d05", "d1"])
    def test_profile_rejects_non_finite_distance(self, field, bad):
        values = {"d0": 0.5, "d05": 0.5, "d1": 0.5, field: bad}
        with pytest.raises(RangeViolation, match=f"^{field} must be finite"):
            PeerDistanceProfile(**values)

    def test_profile_nan_probe(self):
        with pytest.raises(RangeViolation, match="^d0 "):
            PeerDistanceProfile(math.nan, 0.5, 0.5)

    def test_profile_inf_probe(self):
        with pytest.raises(RangeViolation, match="^d0 "):
            PeerDistanceProfile(math.inf, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_rejects_non_finite_weight(self, bad):
        with pytest.raises(RangeViolation, match="atom weight"):
            SecondOrderBelief.mixture([([0.5], bad), ([0.2], 1.0)])

    def test_all_nan_room_is_an_error_not_no_equilibrium(self):
        # before: the profile was accepted and the room came back
        # Multiplicity.NONE, a false "no equilibrium"
        with pytest.raises(RangeViolation, match="^d0 "):
            best_actions(0.5, PeerDistanceProfile(math.nan, math.nan, math.nan), 1.0)
