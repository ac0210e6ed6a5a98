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

import math
import sys
from dataclasses import dataclass
from typing import Any

from .errors import DomainError, OrderingViolation, RangeViolation

#: Package-wide default numeric tolerance.  Strict inequalities are enforced
#: with this margin, and equality checks accept error up to it.
EPS: float = 1e-9

# What a number is, for the whole package: an int or a float, float
# subclasses such as ``numpy.float64`` included, never a bool or a string.
# Each check that asks this also checks a range, and a value failing either
# raises that check's own error; "finite" is ``abs(x) <= FLOAT_MAX``, exactly.
FLOAT_MAX: float = sys.float_info.max
#: the exact types that a pass over a whole column accepts without a walk
NUMBER_TYPES = frozenset({int, float})
#: the unit range [0, 1], an ``EPS`` margin outside: credences, peer means
#: and profile coordinates lie in it (:func:`check_unit` is its check)
UNIT_LO: float = -EPS
UNIT_HI: float = 1.0 + EPS


def is_number(x: Any) -> bool:
    """Whether ``x`` is a number: an int or a float, not a bool."""
    return type(x) is float or isinstance(x, (int, float)) and not isinstance(x, bool)


def is_int(x: Any) -> bool:
    """Whether ``x`` is an int, not a bool: the test for counts and ids."""
    return isinstance(x, int) and not isinstance(x, bool)


def number_types(column: list[Any], lo: float, hi: float) -> set[type] | None:
    """The types of the values in ``column`` when every one is an exact int
    or float in [lo, hi], both finite, else None: ``math.isfinite`` finds a
    NaN, which ``min`` and ``max`` skip unless it comes first, and after the
    range no int is too large for it."""
    types = set(map(type, column))
    if (
        types <= NUMBER_TYPES
        and (not column or lo <= min(column) and max(column) <= hi)
        and all(map(math.isfinite, column))
    ):
        return types
    return None


def numbers_within(column: list[Any], lo: float, hi: float) -> bool:
    """Whether every value in ``column`` is an exact int or float in [lo, hi]
    (:func:`number_types`)."""
    return number_types(column, lo, hi) is not None


def check_unit(x: Any, what: str) -> float:
    """``x`` as a float, or a :class:`RangeViolation` naming it as ``what``
    unless it is a number in [0, 1] (an ``EPS`` margin outside)."""
    if not is_number(x):
        raise RangeViolation(f"{what} must be a number, got {x!r}")
    if not UNIT_LO <= x <= UNIT_HI:  # exact for an int of any size; NaN fails
        raise RangeViolation(f"{what} {x!r} outside [0, 1]")
    return float(x)


def check_finite(x: Any, what: str) -> None:
    """A :class:`RangeViolation` naming ``x`` as ``what`` unless it is a
    finite number."""
    if not (is_number(x) and -FLOAT_MAX <= x <= FLOAT_MAX):  # exact for an int of any size; NaN fails
        raise RangeViolation(f"{what} must be a finite number, got {x!r}")


def check_tol(tol: float) -> None:
    """Tolerances are finite numbers >= 0, as ``--tolerance`` is (the rule
    for numbers above)."""
    if not (is_number(tol) and 0.0 <= tol <= FLOAT_MAX):
        raise RangeViolation(f"tol must be finite and >= 0, got {tol!r}")


def is_prior(p: Any, tol: float) -> bool:
    """Whether ``p`` is a worldview prior: a number strictly inside (0, 1),
    by a ``tol`` margin at each end."""
    return is_number(p) and tol < p < 1.0 - tol


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
            if not (is_number(value) and EPS < value < 1.0 - EPS):
                raise RangeViolation(f"{name} must lie strictly inside (0, 1), got {value!r}")
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
    ``OrderingViolation`` when the rates are not strictly ordered.  A float,
    or an int of size at most ``FLOAT_MAX``, is checked as a float (a bool
    as 1.0 or 0.0, which fail); any other value is checked as it is.
    """
    rates = (mu_given_c, mu_given_not_c)
    a, b = (float(x) if isinstance(x, float) or isinstance(x, int) and abs(x) <= FLOAT_MAX else x for x in rates)
    return EvidenceRelation(mu_given_c=a, mu_given_not_c=b)


def credence_band(mu: EvidenceRelation, tol: float) -> tuple[float, float]:
    """The ends of the admissible credence band for ``mu``: a credence is
    admissible when it lies strictly between them.  The band is
    ``(mu_given_not_c, mu_given_c)``, narrowed by ``tol`` at each end."""
    return mu.mu_given_not_c + tol, mu.mu_given_c - tol


def require_credence(theta: float, mu: EvidenceRelation, tol: float = EPS) -> float:
    """Check that ``theta`` is an admissible credence for ``mu``: a number
    inside :func:`credence_band`.  The error says the band was narrowed
    when ``tol`` exceeds the default.  Returns the input unchanged.
    """
    check_tol(tol)
    lo, hi = credence_band(mu, tol)
    if not ((type(theta) is float or is_number(theta)) and lo < theta < hi):
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
    check_tol(tol)
    if not is_prior(prior, tol):
        raise RangeViolation(f"prior {prior!r} outside the open interval (0, 1)")
    return mu.mu_given_not_c + prior * mu.spread

