"""Envelope rules: decisions taken at the ends of a type set.

``decide_send`` evaluates the expected gain once, at the lowest own type, and
``eligible_actions`` intersects the best responses at the two ends of the
type set's hull.  These tests check both against exhaustive references kept
here: every finite type, or every kink of the piecewise-linear gain on an
interval, and the oracle's best responses at every finite type.
"""

from __future__ import annotations

import numpy as np

from rumorcast import (
    EPS,
    ReceiverAction,
    SecondOrderBelief,
    SenderAction,
    TypeSet,
    best_actions,
    decide_send,
    eligible_actions,
    expected_send_gain,
    oracle_best_actions,
    peer_distance,
    support_interval,
    worldview_posterior,
    worldview_prior,
)

from helpers import random_belief, random_evidence

S = ReceiverAction.SILENCE
A = ReceiverAction.APPROVE


def reference_decide_send(type_set, belief, mu, ell, disapprovals, tol=EPS):
    """Minimum gain over every finite type, or over the interval's ends and
    every receiver prior/posterior inside its own-prior range (the gain is
    piecewise linear in the own prior with kinks only there)."""
    if max(ell - disapprovals, 0) <= 0:
        return SenderAction.NOSEND
    if type_set.is_finite:
        taus = {worldview_prior(t, mu, tol) for t in type_set.values}
    else:
        tau_lo, tau_hi = (worldview_prior(t, mu, tol) for t in type_set.bounds)
        taus = {tau_lo, tau_hi}
        for atom in belief.atoms:
            for x in atom.profile:
                for point in (worldview_prior(x, mu, tol), worldview_posterior(x, mu, tol)):
                    if tau_lo < point < tau_hi:
                        taus.add(float(point))
    if any(expected_send_gain(tau, belief, mu, tol) <= tol for tau in taus):
        return SenderAction.NOSEND
    return SenderAction.SEND


def test_decide_send_matches_exhaustive_reference():
    rng = np.random.default_rng(2510)
    sends = 0
    draws = 10_000
    for k in range(draws):
        mu = random_evidence(rng)
        band = (mu.mu_given_not_c + 1e-3, mu.mu_given_c - 1e-3)
        belief = random_belief(rng, int(rng.integers(1, 4)), *band)
        if k % 2:
            types = TypeSet.finite(rng.uniform(*band, size=int(rng.integers(1, 5))).tolist())
        else:
            types = TypeSet.interval(*sorted(rng.uniform(*band, size=2).tolist()))
        ell = int(rng.integers(0, 3))
        disapprovals = int(rng.integers(0, 2))
        got = decide_send(types, belief, mu, ell, disapprovals)
        assert got is reference_decide_send(types, belief, mu, ell, disapprovals), (types, belief, mu)
        sends += got is SenderAction.SEND
    # both outcomes are well represented, so agreement is not vacuous
    assert 0.1 * draws < sends < 0.9 * draws


def _dyadic(rng, size, denominator):
    return (rng.integers(0, denominator + 1, size=size) / denominator).tolist()


def test_finite_eligibility_matches_oracle_per_type():
    rng = np.random.default_rng(2511)
    for k in range(10_000):
        n_types = int(rng.integers(1, 6))
        if k % 2:
            # dyadic credences, profiles and sensitivities make exact utility ties
            belief = SecondOrderBelief.dirac(_dyadic(rng, int(rng.integers(1, 4)), 8))
            types = TypeSet.finite(_dyadic(rng, n_types, 16))
            lam = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
        else:
            belief = random_belief(rng, int(rng.integers(1, 4)))
            types = TypeSet.finite(rng.uniform(0.0, 1.0, size=n_types).tolist())
            lam = float(rng.uniform(0.0, 5.0))
        d = peer_distance(belief)
        expected = frozenset(ReceiverAction)
        for theta in types.values:
            expected &= oracle_best_actions(theta, d, lam)
        assert eligible_actions(types, belief, lam) == expected, (types, belief, lam)


def test_interval_endpoint_inside_tolerance_band_follows_best_actions():
    # silence is optimal up to 0.6 and approve from there on; tol is slack on
    # utility, and the utility gap grows at twice the credence offset, so a
    # credence 0.75*tol past the boundary no longer supports silence even
    # though it lies within tol of silence's support interval
    belief = SecondOrderBelief.dirac([0.8, 0.8])
    lam = 3.0
    d = peer_distance(belief)
    boundary = support_interval(S, d, lam).hi
    edge = boundary + 0.75 * EPS
    assert support_interval(S, d, lam).contains(edge, EPS)
    assert best_actions(edge, d, lam) == {A}
    assert eligible_actions(TypeSet.interval(edge, edge), belief, lam) == {A}
    assert best_actions(0.1, d, lam) == {S}
    assert eligible_actions(TypeSet.interval(0.1, edge), belief, lam) == frozenset()
