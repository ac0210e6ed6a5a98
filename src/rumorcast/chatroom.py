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
from typing import Hashable, Mapping, Sequence

from .belief import EPS
from .errors import InvariantViolation, RangeViolation
from .receiver import (
    PeerDistanceProfile,
    ReceiverAction,
    SecondOrderBelief,
    best_actions,
    peer_distance,
    support_interval,  # unused here; bench/tracer.py wraps this binding by name
)

Agent = Hashable


@dataclass(frozen=True)
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
        return cls(values=(value,))

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
        if self.lam < 0.0:
            raise RangeViolation(f"sensitivity must be nonnegative, got {self.lam!r}")


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
            peer_sets = [self.sender_types] + [
                other.type_set for other in self.receivers if other.agent != spec.agent
            ]
            if spec.belief.dim != len(peer_sets):
                raise InvariantViolation(
                    f"receiver {spec.agent!r}: belief covers {spec.belief.dim} peers, "
                    f"chatroom has {len(peer_sets)}"
                )
            for atom in spec.belief.atoms:
                for k, (x, ts) in enumerate(zip(atom.profile, peer_sets)):
                    if not ts.contains(x):
                        raise InvariantViolation(
                            f"receiver {spec.agent!r}: belief support point {x!r} "
                            f"(peer #{k}) outside that peer's type set"
                        )

    def receiver(self, agent: Agent) -> ReceiverSpec:
        for spec in self.receivers:
            if spec.agent == agent:
                return spec
        raise KeyError(agent)


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
    d: PeerDistanceProfile = peer_distance(belief)
    lo, hi = type_set.hull
    return best_actions(lo, d, lam, tol) & best_actions(hi, d, lam, tol)


def _select(eligible: frozenset[ReceiverAction], centroid: float) -> ReceiverAction:
    # closest eligible action to the type centroid; ties go to the lower action
    return min(eligible, key=lambda a: (abs(float(a) - centroid), float(a)))


def solve_chatroom(game: ChatroomGame, tol: float = EPS) -> ChatroomEquilibrium:
    """Per-receiver eligible sets plus a canonical selection.

    Returns multiplicity NONE with ``actions=None`` when some receiver has
    no action that serves all her types; the caller decides whether that is
    fatal.  Any profile drawn coordinatewise from the eligible sets is an
    equilibrium, so the selection rule only fixes a report, not existence.
    """
    eligible: dict[Agent, frozenset[ReceiverAction]] = {}
    for spec in game.receivers:
        eligible[spec.agent] = eligible_actions(spec.type_set, spec.belief, spec.lam, tol)
    if any(not e for e in eligible.values()):
        return ChatroomEquilibrium(eligible=eligible, actions=None, multiplicity=Multiplicity.NONE)
    actions = {
        spec.agent: _select(eligible[spec.agent], spec.type_set.centroid)
        for spec in game.receivers
    }
    multiplicity = (
        Multiplicity.UNIQUE
        if all(len(e) == 1 for e in eligible.values())
        else Multiplicity.MULTIPLE
    )
    return ChatroomEquilibrium(eligible=eligible, actions=actions, multiplicity=multiplicity)


def equilibrium_exists_for_all_types(
    game: ChatroomGame,
    credence_band: tuple[float, float],
    tol: float = EPS,
) -> tuple[bool, ChatroomEquilibrium]:
    """Robustness probe: replace every receiver's type set with the full
    admissible credence band and re-solve.

    Returns (exists, witness equilibrium).  The band is typically the open
    evidence interval; support sets are closed, so checking its closure is
    equivalent.
    """
    lo, hi = credence_band
    widened = ChatroomGame(
        sender=game.sender,
        sender_types=game.sender_types,
        receivers=tuple(
            ReceiverSpec(
                agent=spec.agent,
                type_set=TypeSet.interval(lo, hi),
                lam=spec.lam,
                belief=spec.belief,
            )
            for spec in game.receivers
        ),
    )
    eq = solve_chatroom(widened, tol)
    return eq.multiplicity is not Multiplicity.NONE, eq
