"""Receiver reaction game: three actions under conscience and peer pressure.

A receiver with credence ``theta`` reacts to a forwarded message with one of
three actions: disapprove (0), stay silent (0.5), or approve (1).  Her loss
has two terms: distance between the action and her own credence, and distance
between the action and where she expects her audience to stand.  The audience
enters through a second-order belief over the peers' credence profile, which
collapses into one distance number per action:

    utility(a) = -( |a - theta| + lam * d_a ),
    d_a        = E_belief |a - mean(peer profile)|

``lam`` scales conformism.  Everything downstream (support intervals,
sensitivity thresholds) is exact piecewise-linear algebra on this loss.

For a fixed distance profile, the set of credences at which an action is
optimal is a closed interval (possibly empty): each pairwise comparison
``|a - theta| - |a' - theta| <= lam*(d_a' - d_a)`` carves a half-line in
``theta``, and the support set is the intersection.  :func:`support_interval`
computes it in closed form; the grid oracle in :mod:`rumorcast.oracle` checks
it by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .belief import EPS
from .errors import (
    DomainError,
    EmptySupport,
    Infeasible,
    InvariantViolation,
    RangeViolation,
)


class ReceiverAction(float, Enum):
    """Reaction levels; members compare and do arithmetic as their floats."""

    DISAPPROVE = 0.0
    SILENCE = 0.5
    APPROVE = 1.0

    def __str__(self) -> str:  # "0", "0.5", "1"
        return f"{float(self):g}"

    @property
    def word(self) -> str:
        return self.name.lower()


#: All receiver actions in ascending order.
ACTIONS: tuple[ReceiverAction, ...] = (
    ReceiverAction.DISAPPROVE,
    ReceiverAction.SILENCE,
    ReceiverAction.APPROVE,
)


@dataclass(frozen=True)
class BeliefAtom:
    """One support point of a second-order belief: a peer credence profile
    and its probability weight."""

    profile: tuple[float, ...]
    weight: float


@dataclass(frozen=True)
class SecondOrderBelief:
    """Finite-support distribution over peer credence profiles.

    Invariants: at least one atom, finite positive weights summing to one,
    all profiles of equal positive length, coordinates inside [0, 1].

    The weight sum is checked to a fixed ``1e-6``, not to the ``tol`` a
    solver is given: it is an invariant of the belief object, not solver
    slack.  A belief is built once, before and apart from any solve that
    reads it, so the margin only absorbs the rounding of decimal weights.
    """

    atoms: tuple[BeliefAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise EmptySupport("second-order belief needs at least one atom")
        dim = len(self.atoms[0].profile)
        if dim == 0:
            raise InvariantViolation("belief profiles must have at least one peer")
        total = 0.0
        for atom in self.atoms:
            if len(atom.profile) != dim:
                raise InvariantViolation(
                    f"mixed profile lengths: {len(atom.profile)} vs {dim}"
                )
            if not 0.0 < atom.weight < math.inf:
                raise RangeViolation(f"atom weight must be finite and positive, got {atom.weight!r}")
            for x in atom.profile:
                if not (-EPS <= x <= 1.0 + EPS):
                    raise RangeViolation(f"profile coordinate {x!r} outside [0, 1]")
            total += atom.weight
        if abs(total - 1.0) > 1e-6:
            raise InvariantViolation(f"atom weights sum to {total!r}, expected 1")

    @classmethod
    def dirac(cls, profile: Sequence[float]) -> "SecondOrderBelief":
        """Point mass on a single peer profile."""
        return cls(atoms=(BeliefAtom(profile=tuple(float(x) for x in profile), weight=1.0),))

    @classmethod
    def mixture(cls, weighted: Iterable[tuple[Sequence[float], float]]) -> "SecondOrderBelief":
        return cls(
            atoms=tuple(
                BeliefAtom(profile=tuple(float(x) for x in prof), weight=float(w))
                for prof, w in weighted
            )
        )

    @property
    def dim(self) -> int:
        return len(self.atoms[0].profile)


@dataclass(frozen=True)
class PeerDistanceProfile:
    """Expected distances from each action to the peer mean.

    Invariants: every distance finite and nonnegative, and ``d0 + d1 >= 1``
    (triangle inequality through any peer mean located in [0, 1]).  Profiles
    induced by an actual :class:`SecondOrderBelief` satisfy ``d0 + d1 == 1``.

    ``d0 + d1`` is checked to a fixed ``1e-6``, not to the ``tol`` a solver
    is given: like the weight sum of a belief, it is an invariant of the
    object, not solver slack, and the margin only absorbs rounding in the
    distances.
    """

    d0: float
    d05: float
    d1: float

    def __post_init__(self) -> None:
        for name, value in (("d0", self.d0), ("d05", self.d05), ("d1", self.d1)):
            if not -EPS <= value < math.inf:
                raise RangeViolation(f"{name} must be finite and nonnegative, got {value!r}")
        if self.d0 + self.d1 < 1.0 - 1e-6:
            raise InvariantViolation(
                f"d0 + d1 = {self.d0 + self.d1!r} < 1 cannot arise from peers in [0, 1]"
            )

    @classmethod
    def from_dirac(cls, b: float) -> "PeerDistanceProfile":
        """Distances to a point mass at peer mean ``b`` in [0, 1]."""
        if not (-EPS <= b <= 1.0 + EPS):
            raise RangeViolation(f"peer mean {b!r} outside [0, 1]")
        return cls(d0=abs(b), d05=abs(0.5 - b), d1=abs(1.0 - b))

    def get(self, action: ReceiverAction) -> float:
        if action is ReceiverAction.DISAPPROVE:
            return self.d0
        if action is ReceiverAction.SILENCE:
            return self.d05
        return self.d1

    def strict_min_action(self, tol: float = EPS) -> ReceiverAction | None:
        """The unique distance-minimizing action, or None on a tie."""
        best = min(ACTIONS, key=self.get)
        for other in ACTIONS:
            if other is not best and self.get(other) - self.get(best) <= tol:
                return None
        return best


def peer_distance(p: SecondOrderBelief) -> PeerDistanceProfile:
    """Collapse a second-order belief into per-action expected distances."""
    dist = {a: 0.0 for a in ACTIONS}
    for atom in p.atoms:
        mean = math.fsum(atom.profile) / len(atom.profile)
        for a in ACTIONS:
            dist[a] += atom.weight * abs(float(a) - mean)
    return PeerDistanceProfile(
        d0=dist[ReceiverAction.DISAPPROVE],
        d05=dist[ReceiverAction.SILENCE],
        d1=dist[ReceiverAction.APPROVE],
    )


def _check_theta(theta: float) -> None:
    # the range TypeSet accepts; a tolerance slackens utility ties, not credences
    if not (-EPS <= theta <= 1.0 + EPS):
        raise DomainError(f"credence {theta!r} outside [0, 1]")


def check_sensitivity(lam: float) -> None:
    """Sensitivities are finite and nonnegative numbers, not bools; NaN
    fails the comparison."""
    if isinstance(lam, bool):
        raise RangeViolation(f"sensitivity lambda must be a number, got {lam!r}")
    if not 0.0 <= lam < math.inf:
        raise RangeViolation(f"sensitivity must be finite and nonnegative, got {lam!r}")


def utility(
    action: ReceiverAction,
    theta: float,
    d: PeerDistanceProfile,
    lam: float,
) -> float:
    """Receiver loss (negated) for one action."""
    _check_theta(theta)
    check_sensitivity(lam)
    return -(abs(float(action) - theta) + lam * d.get(action))


def best_actions(
    theta: float,
    d: PeerDistanceProfile,
    lam: float,
    tol: float = EPS,
) -> frozenset[ReceiverAction]:
    """Utility-maximizing actions; ties within ``tol`` are all included."""
    values = {a: utility(a, theta, d, lam) for a in ACTIONS}
    top = max(values.values())
    return frozenset(a for a, u in values.items() if u >= top - tol)


@dataclass(frozen=True)
class SupportInterval:
    """Closed credence interval on which ``action`` is optimal.

    ``lo is None`` marks the empty set.
    """

    action: ReceiverAction
    lo: float | None
    hi: float | None

    @property
    def empty(self) -> bool:
        return self.lo is None

    def contains(self, theta: float, tol: float = EPS) -> bool:
        if self.empty:
            return False
        return self.lo - tol <= theta <= self.hi + tol  # type: ignore[operator]



def support_interval(
    action: ReceiverAction,
    d: PeerDistanceProfile,
    lam: float,
) -> SupportInterval:
    """Closed-form support set of ``action`` over credences in [0, 1].

    Intersects, for each competing action ``a'``, the half-line on which
    ``|a - theta| - |a' - theta| <= lam * (d_a' - d_a)``.  The left side is
    monotone in ``theta`` with range ``[-|a - a'|, |a - a'|]``, so each
    constraint is either vacuous, infeasible, or a single cut.  The bounds
    are exact: no tolerance enters, and a nonempty set has ``lo <= hi``.
    """
    check_sensitivity(lam)
    lo, hi = 0.0, 1.0
    a = float(action)
    for other in ACTIONS:
        if other is action:
            continue
        o = float(other)
        c = lam * (d.get(other) - d.get(action))
        gap = abs(a - o)
        if c >= gap:
            continue
        if c < -gap:
            return SupportInterval(action=action, lo=None, hi=None)
        if a < o:
            hi = min(hi, (a + o + c) / 2.0)
        else:
            lo = max(lo, (a + o - c) / 2.0)
    # the bounds cannot cross: as -gap <= c, every upper cut lies at or above
    # a and every lower cut at or below it (a + o is exact and rounding is
    # monotone), so lo <= a <= hi
    return SupportInterval(action=action, lo=lo, hi=hi)


def min_lambda_for_action(
    theta: float,
    d: PeerDistanceProfile,
    target: ReceiverAction,
    tol: float = EPS,
) -> float:
    """Smallest sensitivity at which ``target`` is optimal at ``theta``.

    Requires ``target`` to be the strict distance minimizer; otherwise no
    finite sensitivity makes it optimal for every tie-breaking and the
    request is ``Infeasible``.
    """
    _check_theta(theta)
    m = d.get(target)
    lam = 0.0
    for other in ACTIONS:
        if other is target:
            continue
        margin = d.get(other) - m
        if margin <= tol:
            raise Infeasible(
                f"action {target} does not strictly minimize peer distance "
                f"(blocked by {other})"
            )
        numer = abs(float(target) - theta) - abs(float(other) - theta)
        if numer > 0.0:
            lam = max(lam, numer / margin)
    return lam


def lambda_star(d: PeerDistanceProfile, tol: float = EPS) -> float:
    """Sensitivity beyond which the distance minimizer wins at every credence.

    For ``lam > lambda_star(d)`` the best-action set is the singleton strict
    minimizer of ``d`` for all ``theta`` in [0, 1].  Needs a strict minimizer;
    ties make uniform dominance impossible (``Infeasible``).
    """
    target = d.strict_min_action(tol)
    if target is None:
        raise Infeasible("peer distances admit no strict minimizer")
    m = d.get(target)
    worst = 0.0
    for other in ACTIONS:
        if other is target:
            continue
        worst = max(worst, abs(float(other) - float(target)) / (d.get(other) - m))
    return worst

