"""Sender side: when is forwarding a message worth it?

A potential sender holds a worldview prior ``tau`` and cares about how close
her receivers' worldviews sit to her own.  Forwarding moves each receiver
from prior to posterior, so the value of sending is the drop in total
distance from the status quo:

    gain = sum_j |prior_j - tau| - sum_j |posterior_j - tau|

Peer pressure enters as a hard gate: with disapproval threshold ``ell`` and
``k`` disapprovals in the sender's own receiving chatroom, the realized
payoff is ``max(ell - k, 0) * gain``.  She sends only when the gate is
open and the expected gain is strictly positive for every type she might
have; an exact tie stays with the status quo.

The per-receiver contribution ``nu(x) = |tau - prior(x)| - |tau - post(x)|``
is piecewise monotone in the receiver credence ``x``: increasing up to a
first breakpoint, decreasing to a second, then increasing again.
:func:`nu_breakpoints` returns the two credences splitting those regions.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence

from .belief import EPS, EvidenceRelation, _holds, require_credence, worldview_posterior, worldview_prior
from .chatroom import TypeSet
from .errors import RangeViolation
from .receiver import SecondOrderBelief


class SenderAction(str, Enum):
    SEND = "S"
    NOSEND = "NS"

    def __str__(self) -> str:
        return self.value


def nu_value(x, own_prior, mu: EvidenceRelation, tol: float = EPS):
    """Per-receiver gain contribution at receiver credence ``x``.

    Vectorizes over ``x`` (and ``own_prior``, though scalar use is typical).
    """
    if not _holds((own_prior > tol) & (own_prior < 1.0 - tol)):
        raise RangeViolation(f"own prior {own_prior!r} outside (0, 1)")
    prior = worldview_prior(x, mu, tol)
    post = worldview_posterior(x, mu, tol)
    return abs(own_prior - prior) - abs(own_prior - post)


def nu_breakpoints(own_prior: float, mu: EvidenceRelation, tol: float = EPS) -> tuple[float, float]:
    """Credences where the gain contribution changes direction.

    Returns ``(lo, hi)`` with ``nu`` increasing on the band below ``lo``,
    decreasing between, and increasing again above ``hi``.
    """
    if not (tol < own_prior < 1.0 - tol):
        raise RangeViolation(f"own prior {own_prior!r} outside (0, 1)")
    a, b = mu.mu_given_c, mu.mu_given_not_c
    geo = math.sqrt(a * b)
    lo = min(geo, a * b / (a - own_prior * (a - b)))
    hi = max(geo, b + own_prior * (a - b))
    return lo, hi


def expected_send_gain(
    own_prior: float,
    belief: SecondOrderBelief,
    mu: EvidenceRelation,
    tol: float = EPS,
) -> float:
    """Belief-weighted gain over receiver credence profiles.

    The gain is additive over receivers, so the expectation reduces to a
    weighted sum of :func:`nu_value` over all atoms and coordinates.
    """
    total = 0.0
    for atom in belief.atoms:
        total += atom.weight * sum(float(nu_value(x, own_prior, mu, tol)) for x in atom.profile)
    return total


def known_type_gain(
    own_prior: float, credences: Sequence[float], mu: EvidenceRelation, tol: float = EPS
) -> float:
    """``expected_send_gain(own_prior, SecondOrderBelief.dirac(credences), mu, tol)``
    without the belief: after the same checks, the same terms summed by
    ``sum`` in the same order, so the same float on any Python."""
    lo, hi = mu.mu_given_not_c + tol, mu.mu_given_c - tol
    if not (tol < own_prior < 1.0 - tol and all(lo < x < hi for x in credences)):
        # some check fails: the general path raises what it raises
        return expected_send_gain(own_prior, SecondOrderBelief.dirac(credences), mu, tol)
    b, c, spread = mu.mu_given_not_c, mu.mu_given_c, mu.spread
    # nu_value's terms: prior (x - b) / spread, posterior c * prior / x
    return sum(abs(own_prior - (x - b) / spread) - abs(own_prior - c * ((x - b) / spread) / x) for x in credences)


def decide_send(
    type_set: TypeSet,
    belief: SecondOrderBelief,
    mu: EvidenceRelation,
    ell: int = 1,
    disapproval_count: int = 0,
    tol: float = EPS,
) -> SenderAction:
    """Send exactly when the gate is open and every own type expects a
    strictly positive gain; a zero-gain tie resolves to not sending.

    Each receiver's term ``|tau - prior| - |tau - post|`` is nondecreasing in
    the own prior ``tau`` (the posterior exceeds the prior on the admissible
    band), so the lowest type binds, for finite and interval sets alike.
    """
    gain = lambda tau: expected_send_gain(tau, belief, mu, tol)
    return send_rule(type_set.hull, gain, mu, ell, disapproval_count, tol)


def send_rule(
    hull: tuple[float, float],
    gain: Callable[[float], float],
    mu: EvidenceRelation,
    ell: int,
    disapprovals: int,
    tol: float,
) -> SenderAction:
    """:func:`decide_send` for a sender with type hull ``hull`` whose
    expected gain at a prior is ``gain``, which a closed gate never calls."""
    if max(ell - disapprovals, 0) <= 0:
        return SenderAction.NOSEND
    lo, hi = hull
    tau = worldview_prior(lo, mu, tol)
    require_credence(hi, mu, tol)  # every type must be admissible, not only the binding one
    if gain(tau) <= tol:
        return SenderAction.NOSEND
    return SenderAction.SEND
