"""Two-layer belief system for message evaluation.

An agent never observes the disputed claim directly.  She holds a credence
``theta`` that a message repeating the claim is true, and the modeller fixes
an evidence relation: the chance of seeing the message when the claim holds
(``mu_given_c``) and when it does not (``mu_given_not_c``).  From these two
rates every credence pins down a worldview, i.e. the probability assigned to
the claim itself before and after the message arrives:

    prior     = (theta - mu_given_not_c) / (mu_given_c - mu_given_not_c)
    posterior = mu_given_c * prior / theta

The message must be informative but not conclusive, so the rates satisfy
``0 < mu_given_not_c < mu_given_c < 1`` and every admissible credence lies
strictly between them.  Boundary inputs within ``EPS`` of an endpoint are
rejected rather than clamped; silent clamping would hide modelling mistakes.

The maps here are deliberately tiny and total on their stated domains; all
heavier machinery (reaction games, sending decisions) builds on them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DomainError, OrderingViolation, RangeViolation

#: Package-wide default numeric tolerance.  Strict inequalities are enforced
#: with this margin, and equality checks accept error up to it.
EPS: float = 1e-9


def check_tol(tol: float) -> None:
    """Tolerances are finite numbers >= 0, as ``--tolerance`` is: ints and
    floats, float subclasses too, not bools; NaN and an int past the float
    range fail."""
    number = type(tol) is float or not isinstance(tol, bool) and isinstance(tol, (int, float))
    if not (number and 0.0 <= tol <= sys.float_info.max):
        raise RangeViolation(f"tol must be finite and >= 0, got {tol!r}")


@dataclass(frozen=True)
class EvidenceRelation:
    """Message emission rates under the claim and its negation.

    Invariant: ``0 < mu_given_not_c < mu_given_c < 1`` with strict margins
    of ``EPS`` at every boundary.
    """

    mu_given_c: float
    mu_given_not_c: float

    def __post_init__(self) -> None:
        a, b = self.mu_given_c, self.mu_given_not_c
        for name, value in (("mu_given_c", a), ("mu_given_not_c", b)):
            if not (EPS < value < 1.0 - EPS):
                raise RangeViolation(
                    f"{name} must lie strictly inside (0, 1), got {value!r}"
                )
        if not (a - b > EPS):
            raise OrderingViolation(
                "message must be more likely under the claim: "
                f"mu_given_c={a!r} <= mu_given_not_c={b!r}"
            )

    @property
    def spread(self) -> float:
        """Width ``mu_given_c - mu_given_not_c`` of the informative band."""
        return self.mu_given_c - self.mu_given_not_c


def validate_evidence(mu_given_c: float, mu_given_not_c: float) -> EvidenceRelation:
    """Build an :class:`EvidenceRelation`, raising on bad rates.

    Raises ``RangeViolation`` when a rate leaves (0, 1) and
    ``OrderingViolation`` when the rates are not strictly ordered.
    """
    return EvidenceRelation(mu_given_c=float(mu_given_c), mu_given_not_c=float(mu_given_not_c))


def require_credence(theta: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Check that ``theta`` is an admissible credence for ``mu``.

    Admissible means strictly inside ``(mu_given_not_c, mu_given_c)`` with an
    ``tol`` margin; the error says so when ``tol`` exceeds the default.
    Returns the input unchanged.
    """
    if not mu.mu_given_not_c + tol < theta < mu.mu_given_c - tol:
        narrowed = f" narrowed by the tolerance {tol!r} at each end" if tol > EPS else ""
        raise DomainError(
            f"credence {theta!r} outside the open interval "
            f"({mu.mu_given_not_c!r}, {mu.mu_given_c!r}){narrowed}"
        )
    return theta


def worldview_prior(theta: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Claim probability before the message, as a function of the credence.

    Raises ``DomainError`` off the admissible credence band.
    """
    require_credence(theta, mu, tol)
    return (theta - mu.mu_given_not_c) / mu.spread


def worldview_posterior(theta: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Claim probability after observing the message.

    Bayes' rule with the message probability equal to the credence itself:
    ``posterior = mu_given_c * prior / theta``.
    """
    prior = worldview_prior(theta, mu, tol)
    return mu.mu_given_c * prior / theta


def credence_from_prior(prior: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Invert :func:`worldview_prior`: the credence whose prior is ``prior``.

    Raises ``RangeViolation`` unless ``prior`` is strictly inside (0, 1);
    the resulting credence then automatically satisfies the admissibility
    band.
    """
    if not tol < prior < 1.0 - tol:
        raise RangeViolation(f"prior {prior!r} outside the open interval (0, 1)")
    return mu.mu_given_not_c + prior * mu.spread

