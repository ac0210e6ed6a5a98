"""Sender side: when is forwarding a message worth it?

A potential sender holds a worldview prior ``tau`` and cares about how close
her receivers' worldviews sit to her own.  Forwarding moves each receiver
from prior to posterior, so the value of sending is the drop in total
distance:

    similarity_status_quo = sum_j |prior_j - tau|
    send_gain             = similarity_status_quo - sum_j |posterior_j - tau|

Peer pressure enters as a hard gate: with disapproval threshold ``ell`` and
``k`` disapprovals in the sender's own receiving chatroom, the realized
payoff is ``max(ell - k, 0) * send_gain``.  She sends only when the gate is
open and the expected gain is strictly positive for every type she might
have; an exact tie stays with the status quo.

The per-receiver contribution ``nu(x) = |tau - prior(x)| - |tau - post(x)|``
is piecewise monotone in the receiver credence ``x``: increasing up to a
first breakpoint, decreasing to a second, then increasing again.
:func:`nu_breakpoints` returns the two credences splitting those regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .belief import EPS, EvidenceRelation, require_credence, worldview_posterior, worldview_prior
from .chatroom import TypeSet
from .errors import EmptyPeers, RangeViolation
from .receiver import SecondOrderBelief


class SenderAction(str, Enum):
    SEND = "S"
    NOSEND = "NS"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SenderContext:
    """Inputs to one sending decision at a fixed own type.

    ``receiver_credences`` are the credences the sender ascribes to her
    audience; ``disapproval_count`` counts reactions of 0 in her own
    receiving chatroom (zero for the root of a cascade, which nobody can
    disapprove of).
    """

    own_prior: float
    receiver_credences: tuple[float, ...]
    mu: EvidenceRelation
    ell: int = 1
    disapproval_count: int = 0

    def __post_init__(self) -> None:
        if not (EPS < self.own_prior < 1.0 - EPS):
            raise RangeViolation(f"own prior {self.own_prior!r} outside (0, 1)")
        if not self.receiver_credences:
            raise EmptyPeers("a potential sender needs at least one receiver")
        for x in self.receiver_credences:
            worldview_prior(x, self.mu)  # validates the credence band
        if not isinstance(self.ell, int) or self.ell < 0:
            raise RangeViolation(f"disapproval threshold must be an int >= 0, got {self.ell!r}")
        if not isinstance(self.disapproval_count, int) or self.disapproval_count < 0:
            raise RangeViolation(
                f"disapproval count must be an int >= 0, got {self.disapproval_count!r}"
            )

    @property
    def gate(self) -> int:
        """Open slots left before disapproval shuts the sender down."""
        return max(self.ell - self.disapproval_count, 0)


def similarity_status_quo(ctx: SenderContext) -> float:
    """Total worldview distance if the message is not sent."""
    return float(
        sum(abs(worldview_prior(x, ctx.mu) - ctx.own_prior) for x in ctx.receiver_credences)
    )


def send_gain(ctx: SenderContext) -> float:
    """Distance saved by sending: status quo minus post-message distance."""
    return expected_send_gain(ctx.own_prior, SecondOrderBelief.dirac(ctx.receiver_credences), ctx.mu)


def send_payoff(ctx: SenderContext) -> float:
    """Gate-scaled gain: ``max(ell - disapprovals, 0) * send_gain``."""
    return ctx.gate * send_gain(ctx)


def nu_value(x, own_prior, mu: EvidenceRelation, tol: float = EPS):
    """Per-receiver gain contribution at receiver credence ``x``.

    Vectorizes over ``x`` (and ``own_prior``, though scalar use is typical).
    """
    if not bool(np.all((own_prior > tol) & (own_prior < 1.0 - tol))):
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
    if max(ell - disapproval_count, 0) <= 0:
        return SenderAction.NOSEND
    lo, hi = type_set.hull
    tau = worldview_prior(lo, mu, tol)
    require_credence(hi, mu, tol)  # every type must be admissible, not only the binding one
    if expected_send_gain(tau, belief, mu, tol) <= tol:
        return SenderAction.NOSEND
    return SenderAction.SEND
