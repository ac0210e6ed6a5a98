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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping, Sequence

from .belief import EPS, check_tol
from .errors import InvariantViolation, RangeViolation
from .receiver import (
    ReceiverAction,
    SecondOrderBelief,
    best_actions,  # unused here; bench/tracer.py wraps this binding by name
    check_sensitivity,
    peer_distance,
    react,
    support_interval,  # unused here; bench/tracer.py wraps this binding by name
)

Agent = Hashable
DISAPPROVE = ReceiverAction.DISAPPROVE


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
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, (int, float))):
        raise RangeViolation(f"credence must be a number, got {x!r}")
    if not (-EPS <= x <= 1.0 + EPS):  # exact for an int of any size
        raise RangeViolation(f"credence {x!r} outside [0, 1]")


def _span(v: float) -> tuple[float, float] | None:
    """The least and the greatest float ``x`` with ``abs(x - v) <= EPS``,
    the test :meth:`TypeSet.contains` makes at a point ``v``: ``x - v``
    rounds monotonically in ``x``, so the floats that pass are exactly
    those between the two.  Each lies within an ulp of ``v - EPS`` or
    ``v + EPS`` when ``x - v`` is exact there, as it is for ``abs(v) >=
    2 * EPS``.  None when an end is not found in a few steps: a point near
    ``EPS`` off zero, where ``x - v`` rounds far coarser than ``x`` steps."""
    ends = []
    for x, inward, outward in ((v - EPS, math.inf, -math.inf), (v + EPS, -math.inf, math.inf)):
        for _ in range(4):
            if abs(x - v) > EPS:
                x = math.nextafter(x, inward)
            elif abs(math.nextafter(x, outward) - v) <= EPS:
                x = math.nextafter(x, outward)
            else:
                ends.append(x)
                break
        else:
            return None
    return ends[0], ends[1]


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
    """Solved chatroom: eligible sets, a canonical selection, whether the
    equilibrium is unique, multiple, or absent, and how many selected
    actions are disapprovals (0 when there is no selection)."""

    eligible: Mapping[Agent, frozenset[ReceiverAction]]
    actions: Mapping[Agent, ReceiverAction] | None
    multiplicity: Multiplicity
    disapprovals: int


#: A receiver as :func:`fold_room` reads her: (agent, index of her
#: sensitivity, type hull ends, peer distances d0, d05, d1, type centroid)
Row = tuple[Agent, int, float, float, float, float, float, float]


def _row(agent: Agent, i: int, type_set: TypeSet, belief: SecondOrderBelief) -> Row:
    d = peer_distance(belief)
    return (agent, i, *type_set.hull, d.d0, d.d05, d.d1, type_set.centroid)


def fold_room(rows: Iterable[Row], lams: Sequence[float], tol: float) -> ChatroomEquilibrium:
    """The room's equilibrium in one pass over its receivers' ``rows``, each
    receiver at her sensitivity in ``lams``: her eligible set, the action in
    it nearest her type centroid (ties to the lower action), whether every
    set was a singleton, and how many selected actions disapprove.  An empty
    set leaves the room without an equilibrium: no actions, a count of 0."""
    eligible: dict[Agent, frozenset[ReceiverAction]] = {}
    actions: dict[Agent, ReceiverAction] = {}
    unique, disapprovals = True, 0
    for agent, i, lo, hi, d0, d05, d1, centroid in rows:
        # the reactions at both ends of her type hull; a point's ends coincide
        e = react(lo, lams[i], d0, d05, d1, tol)
        if lo != hi:
            e &= react(hi, lams[i], d0, d05, d1, tol)
        eligible[agent] = e
        if len(e) > 1:
            unique = False
            e = (min(e, key=lambda x: (abs(x - centroid), x)),)
        for a in e:  # her one action; none when her set is empty
            actions[agent] = a
            disapprovals += a is DISAPPROVE
    if len(actions) < len(eligible):  # some set was empty
        return ChatroomEquilibrium(eligible, None, Multiplicity.NONE, 0)
    return ChatroomEquilibrium(
        eligible, actions, Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE, disapprovals
    )


def eligible_actions(
    type_set: TypeSet,
    belief: SecondOrderBelief,
    lam: float,
    tol: float = EPS,
) -> frozenset[ReceiverAction]:
    """Actions optimal at every type in the set.

    Best-response sets are intervals, so the two ends of the hull decide.
    ``tol`` is slack on utility, as in :func:`rumorcast.receiver.best_actions`.
    The set is a one-receiver room's, as :func:`fold_room` folds it.
    """
    check_tol(tol)
    check_sensitivity(lam)
    return fold_room([_row(None, 0, type_set, belief)], [lam], tol).eligible[None]


def solve_chatroom(game: ChatroomGame, tol: float = EPS) -> ChatroomEquilibrium:
    """Per-receiver eligible sets plus a canonical selection.

    Returns multiplicity NONE with ``actions=None`` when some receiver has
    no action that serves all her types; the caller decides whether that is
    fatal.  Any profile drawn coordinatewise from the eligible sets is an
    equilibrium, so the selection rule only fixes a report, not existence.
    The receivers' beliefs enter only through their peer distances.
    """
    check_tol(tol)
    rows = [_row(spec.agent, i, spec.type_set, spec.belief) for i, spec in enumerate(game.receivers)]
    return fold_room(rows, [spec.lam for spec in game.receivers], tol)
