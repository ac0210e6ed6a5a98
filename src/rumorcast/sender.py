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
from itertools import chain
from typing import Sequence

from .belief import EPS, EvidenceRelation, check_tol, require_credence, worldview_posterior, worldview_prior
from .belief import is_int, is_prior
from .chatroom import TypeSet
from .errors import RangeViolation
from .receiver import BeliefAtom, SecondOrderBelief


class SenderAction(str, Enum):
    SEND = "S"
    NOSEND = "NS"

    def __str__(self) -> str:
        return self.value

    @property
    def word(self) -> str:
        return "send" if self is SenderAction.SEND else "no-send"


def nu_value(x: float, own_prior: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Per-receiver gain contribution at receiver credence ``x``."""
    check_tol(tol)
    if not is_prior(own_prior, tol):
        raise RangeViolation(f"own prior {own_prior!r} outside (0, 1)")
    prior = worldview_prior(x, mu, tol)
    post = worldview_posterior(x, mu, tol)
    return abs(own_prior - prior) - abs(own_prior - post)


def nu_breakpoints(own_prior: float, mu: EvidenceRelation, tol: float = EPS) -> tuple[float, float]:
    """Credences where the gain contribution changes direction.

    Returns ``(lo, hi)`` with ``nu`` increasing on the band below ``lo``,
    decreasing between, and increasing again above ``hi``.
    """
    check_tol(tol)
    if not is_prior(own_prior, tol):
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
    check_tol(tol)
    return belief_gain(own_prior, belief.atoms, mu, tol)


def belief_gain(own_prior: float, atoms: Sequence[BeliefAtom], mu: EvidenceRelation, tol: float) -> float:
    """:func:`expected_send_gain` over belief atoms, for a checked ``tol``:
    after the checks :func:`nu_value` makes, each atom's terms summed by
    ``sum``, weighted and added in atom order."""
    lo, hi = mu.mu_given_not_c + tol, mu.mu_given_c - tol
    if not (is_prior(own_prior, tol) and all(lo < x < hi for atom in atoms for x in atom.profile)):
        for x in chain.from_iterable(atom.profile for atom in atoms):  # nu_value raises for the first failed check
            nu_value(x, own_prior, mu, tol)
    b, c, spread = mu.mu_given_not_c, mu.mu_given_c, mu.spread
    total = 0.0
    for atom in atoms:
        # nu_value's terms: prior (x - b) / spread, posterior c * prior / x
        total += atom.weight * sum(
            abs(own_prior - (x - b) / spread) - abs(own_prior - c * ((x - b) / spread) / x) for x in atom.profile
        )
    return total


def check_count(value: int, what: str) -> None:
    """Thresholds and disapproval counts are ints >= 0, not bools."""
    if not (is_int(value) and value >= 0):
        raise RangeViolation(f"{what} must be an int >= 0, got {value!r}")


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
    ``ell`` and ``disapproval_count`` are checked as ``AgentProfile``
    checks ``ell``.
    """
    check_tol(tol)
    check_count(ell, "disapproval threshold ell")
    check_count(disapproval_count, "disapproval_count")
    return send_rule(type_set.hull, belief.atoms, mu, ell, disapproval_count, tol)


def send_rule(
    hull: tuple[float, float],
    atoms: Sequence[BeliefAtom],
    mu: EvidenceRelation,
    ell: int,
    disapprovals: int,
    tol: float,
) -> SenderAction:
    """:func:`decide_send` for a sender with type hull ``hull`` and sender
    belief ``atoms``, on arguments already checked; a closed gate reads
    neither."""
    if max(ell - disapprovals, 0) <= 0:
        return SenderAction.NOSEND
    lo, hi = hull
    tau = worldview_prior(lo, mu, tol)
    if hi != lo:  # every type must be admissible, not only the binding one
        require_credence(hi, mu, tol)
    if belief_gain(tau, atoms, mu, tol) <= tol:
        return SenderAction.NOSEND
    return SenderAction.SEND
