"""Local reaction games inside a single chatroom.

A chatroom couples one sender with a nonempty ordered list of receivers.
Each receiver has a set of possible credences (her type set), a conformism
sensitivity, and a second-order belief over the credence profile of her
peers, meaning the sender plus the other receivers.  Because every receiver
reacts against her own belief rather than against realized play, the game
decouples: an action is part of an equilibrium exactly when it is optimal
for every type the receiver might have, independently of what the others
pick.  Solving therefore reduces to per-receiver eligible sets.

Best-response sets are intervals in the credence, so an action serves every
type in a set exactly when it serves the lowest and the highest; the shape of
a type set matters only for selection (centroid) and membership (contains).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping, Sequence

from .belief import EPS
from .errors import InvariantViolation, RangeViolation
from .receiver import (
    ACTIONS,
    PeerDistanceProfile,
    ReceiverAction,
    SecondOrderBelief,
    best_actions,
    check_sensitivity,
    peer_distance,
    support_interval,  # unused here; bench/tracer.py wraps this binding by name
)

Agent = Hashable


@dataclass(frozen=True, slots=True)
class TypeSet:
    """Nonempty set of candidate credences: finite points or an interval.

    Exactly one of ``values`` and ``bounds`` is set.  Finite values are kept
    sorted and deduplicated; interval bounds satisfy ``lo <= hi``.
    """

    values: tuple[float, ...] | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (self.values is None) == (self.bounds is None):
            raise InvariantViolation("a TypeSet is either finite or an interval")
        if self.values is not None:
            if not self.values:
                raise InvariantViolation("finite TypeSet must be nonempty")
            for x in self.values:
                _check_unit(x)
            ordered = tuple(sorted(set(float(x) for x in self.values)))
            object.__setattr__(self, "values", ordered)
        else:
            lo, hi = self.bounds  # type: ignore[misc]
            _check_unit(lo)
            _check_unit(hi)
            if lo > hi:
                raise InvariantViolation(f"interval bounds out of order: {lo!r} > {hi!r}")
            object.__setattr__(self, "bounds", (float(lo), float(hi)))

    @classmethod
    def finite(cls, values: Sequence[float]) -> "TypeSet":
        return cls(values=tuple(values))

    @classmethod
    def singleton(cls, value: float) -> "TypeSet":
        # one point needs only the range check: no sort, no dedupe
        _check_unit(value)
        ts = object.__new__(cls)
        object.__setattr__(ts, "values", (float(value),))
        object.__setattr__(ts, "bounds", None)
        return ts

    @classmethod
    def interval(cls, lo: float, hi: float) -> "TypeSet":
        return cls(bounds=(lo, hi))

    @property
    def is_finite(self) -> bool:
        return self.values is not None

    @property
    def is_singleton(self) -> bool:
        return self.values is not None and len(self.values) == 1

    @property
    def value(self) -> float:
        if not self.is_singleton:
            raise InvariantViolation("TypeSet is not a singleton")
        return self.values[0]  # type: ignore[index]

    @property
    def hull(self) -> tuple[float, float]:
        if self.values is not None:
            return self.values[0], self.values[-1]
        return self.bounds  # type: ignore[return-value]

    @property
    def centroid(self) -> float:
        if self.values is not None:
            return sum(self.values) / len(self.values)
        lo, hi = self.bounds  # type: ignore[misc]
        return (lo + hi) / 2.0

    def contains(self, x: float, tol: float = EPS) -> bool:
        if self.values is not None:
            return any(abs(x - v) <= tol for v in self.values)
        lo, hi = self.bounds  # type: ignore[misc]
        return lo - tol <= x <= hi + tol


def _check_unit(x: float) -> None:
    if not (-EPS <= x <= 1.0 + EPS):
        raise RangeViolation(f"credence {x!r} outside [0, 1]")


@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver's slot in a chatroom game.

    ``belief`` ranges over peer profiles ordered as: sender first, then the
    other receivers in chatroom order.
    """

    agent: Agent
    type_set: TypeSet
    lam: float
    belief: SecondOrderBelief

    def __post_init__(self) -> None:
        check_sensitivity(self.lam)


@dataclass(frozen=True)
class ChatroomGame:
    """A sender, her receivers, and everything they believe.

    Invariants: receivers nonempty with distinct names not including the
    sender; every belief has one coordinate per peer; every belief atom's
    coordinates lie inside the corresponding peer's type set.
    """

    sender: Agent
    sender_types: TypeSet
    receivers: tuple[ReceiverSpec, ...]

    def __post_init__(self) -> None:
        if not self.receivers:
            raise InvariantViolation("a chatroom needs at least one receiver")
        names = [r.agent for r in self.receivers]
        if len(set(names)) != len(names) or self.sender in names:
            raise InvariantViolation(f"agents must be distinct, got sender={self.sender!r}, receivers={names!r}")
        for spec in self.receivers:
            others = [other.type_set for other in self.receivers if other.agent != spec.agent]
            check_receiver_belief(spec.agent, spec.belief, [self.sender_types] + others)


def check_receiver_belief(
    agent: Agent, belief: SecondOrderBelief | None, peer_sets: Sequence[TypeSet]
) -> None:
    """Raise unless ``belief`` is given and every atom has one coordinate per
    peer, inside that peer's type set (``peer_sets`` in belief order).

    Containment is checked to the fixed ``EPS``, not to the ``tol`` a solver
    is given.  A belief is an object, checked once, at entry, before any
    solve, like the weight sum of a :class:`SecondOrderBelief`; ``tol`` is
    slack on utility, not on where a peer's credence may lie.
    """
    if belief is None:
        raise InvariantViolation(f"agent {agent!r} is a receiver but has no receiver belief")
    if belief.dim != len(peer_sets):
        raise InvariantViolation(
            f"receiver {agent!r}: belief covers {belief.dim} peers, "
            f"chatroom has {len(peer_sets)}"
        )
    for atom in belief.atoms:
        for k, (x, ts) in enumerate(zip(atom.profile, peer_sets)):
            if not ts.contains(x):
                raise InvariantViolation(
                    f"receiver {agent!r}: belief support point {x!r} "
                    f"(peer #{k}) outside that peer's type set"
                )


class Multiplicity(Enum):
    UNIQUE = "unique"
    MULTIPLE = "multiple"
    NONE = "none"


@dataclass(frozen=True)
class ChatroomEquilibrium:
    """Solved chatroom: eligible sets, a canonical selection, and whether the
    equilibrium is unique, multiple, or absent."""

    eligible: Mapping[Agent, frozenset[ReceiverAction]]
    actions: Mapping[Agent, ReceiverAction] | None
    multiplicity: Multiplicity


def _eligible(
    type_set: TypeSet, d: PeerDistanceProfile, lam: float, tol: float
) -> frozenset[ReceiverAction]:
    # a singleton's two hull ends coincide, so one best-response set decides
    lo, hi = type_set.hull
    low = best_actions(lo, d, lam, tol)
    return low if lo == hi else low & best_actions(hi, d, lam, tol)


def eligible_actions(
    type_set: TypeSet,
    belief: SecondOrderBelief,
    lam: float,
    tol: float = EPS,
) -> frozenset[ReceiverAction]:
    """Actions optimal at every type in the set.

    Best-response sets are intervals, so the two ends of the hull decide.
    ``tol`` is slack on utility, as in :func:`rumorcast.receiver.best_actions`.
    """
    return _eligible(type_set, peer_distance(belief), lam, tol)


def _select(eligible: frozenset[ReceiverAction], centroid: float) -> ReceiverAction:
    # closest eligible action to the type centroid; ties go to the lower action
    if len(eligible) == 1:
        return next(iter(eligible))
    return min(eligible, key=lambda a: (abs(float(a) - centroid), float(a)))


#: every set of actions, indexed by the bits of the actions it holds, in action order
_SUBSETS = tuple(frozenset(a for i, a in enumerate(ACTIONS) if mask >> i & 1) for mask in range(8))


def known_type_eligible(theta: float, lam: float, b: float, tol: float = EPS) -> frozenset[ReceiverAction]:
    """``best_actions(theta, PeerDistanceProfile.from_dirac(b), lam, tol)``
    for a credence and sensitivity already checked, without the profile: the
    same check of the peer mean ``b``, then the same three utilities,
    compared the same way."""
    if not -EPS <= b <= 1.0 + EPS:
        PeerDistanceProfile.from_dirac(b)  # raises for the peer mean
    u0 = -(abs(theta) + lam * abs(b))
    u05 = -(abs(0.5 - theta) + lam * abs(0.5 - b))
    u1 = -(abs(1.0 - theta) + lam * abs(1.0 - b))
    cut = max(u0, u05, u1) - tol
    return _SUBSETS[(u0 >= cut) | (u05 >= cut) << 1 | (u1 >= cut) << 2]


def fold_room(
    eligible: dict[Agent, frozenset[ReceiverAction]], centroids: Mapping[Agent, float]
) -> ChatroomEquilibrium:
    """The room's equilibrium from each receiver's eligible set: the action
    nearest her type centroid, and whether every set was a singleton."""
    if not all(eligible.values()):
        return ChatroomEquilibrium(eligible=eligible, actions=None, multiplicity=Multiplicity.NONE)
    actions = {agent: _select(e, centroids[agent]) for agent, e in eligible.items()}
    unique = all(len(e) == 1 for e in eligible.values())
    return ChatroomEquilibrium(
        eligible=eligible, actions=actions, multiplicity=Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE
    )


def room_equilibrium(
    receivers: Iterable[tuple[Agent, TypeSet, float, PeerDistanceProfile]],
    tol: float = EPS,
) -> ChatroomEquilibrium:
    """Eligible sets, canonical selection and multiplicity for one room.

    Takes ``(agent, type_set, lam, distances)`` per receiver in room order:
    the receivers' beliefs enter only through their peer distances.
    """
    eligible: dict[Agent, frozenset[ReceiverAction]] = {}
    centroids: dict[Agent, float] = {}
    for agent, type_set, lam, d in receivers:
        eligible[agent] = _eligible(type_set, d, lam, tol)
        centroids[agent] = type_set.centroid
    return fold_room(eligible, centroids)


def solve_chatroom(game: ChatroomGame, tol: float = EPS) -> ChatroomEquilibrium:
    """Per-receiver eligible sets plus a canonical selection.

    Returns multiplicity NONE with ``actions=None`` when some receiver has
    no action that serves all her types; the caller decides whether that is
    fatal.  Any profile drawn coordinatewise from the eligible sets is an
    equilibrium, so the selection rule only fixes a report, not existence.
    """
    return room_equilibrium(
        ((spec.agent, spec.type_set, spec.lam, peer_distance(spec.belief)) for spec in game.receivers),
        tol,
    )

