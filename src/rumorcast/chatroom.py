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

Receivers of one known type each, who share a sensitivity and see their
peer mean fall as their own credence rises, react alike between a few
credence thresholds.  A wide room folds them in credence order, in two
kinds of range (:func:`_segments`): one reaction per stretch between
thresholds, and one per receiver in any other range.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import eq, itemgetter, not_
from typing import Hashable, Iterable, Mapping, Sequence

from .belief import EPS, check_tol, check_unit
from .errors import InvariantViolation
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
            ordered = tuple(sorted(set([check_unit(x, "credence") for x in self.values])))
            object.__setattr__(self, "values", ordered)
        else:
            lo, hi = self.bounds  # type: ignore[misc]
            bounds = (check_unit(lo, "credence"), check_unit(hi, "credence"))
            if lo > hi:
                raise InvariantViolation(f"interval bounds out of order: {lo!r} > {hi!r}")
            object.__setattr__(self, "bounds", bounds)

    @classmethod
    def finite(cls, values: Sequence[float]) -> "TypeSet":
        return cls(values=tuple(values))

    @classmethod
    def singleton(cls, value: float) -> "TypeSet":
        # one point needs only the range check: no sort, no dedupe
        value = check_unit(value, "credence")
        ts = object.__new__(cls)
        object.__setattr__(ts, "values", (value,))
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
        check_tol(tol)
        if self.values is not None:
            return any(abs(x - v) <= tol for v in self.values)
        lo, hi = self.bounds  # type: ignore[misc]
        return lo - tol <= x <= hi + tol


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


#: The most thresholds at which a run's reactions can change (see
#: :func:`_segments`): the kinks of |a - θ| at θ = 0, 0.5, 1 and of
#: |a - b(θ)| at b(θ) = 0, 0.5, 1, and on each of the 7 pieces they leave,
#: each of the 3 action pairs' utility gaps crossing +tol and -tol.  A
#: shorter run folds receiver by receiver.
THRESHOLDS = 6 + 7 * 3 * 2

#: The rounding unit of a float
_ULP = 2.0**-53


class Room(list):
    """A room's rows in child order, as :func:`fold_room` reads them, where
    more than :data:`THRESHOLDS` receivers have one known type each
    (``known`` flags them, in child order).  Those form its run: their
    peer mean is (T - θ)/k for credence θ, T the room's credence total,
    whose floats ``parts`` sum to it exactly, and k = ``len(room)``.  The
    run's ``ranked`` rows, ``credences`` and ``agents`` are in credence
    order, and ``sensitivities`` reads their sensitivities, in that order,
    off a column; ``others`` are the room's other rows, and ``slots`` has
    every receiver, in child order."""

    __slots__ = ("ranked", "credences", "agents", "sensitivities", "parts", "others", "slots")

    def __init__(self, rows: list[Row], known: list[bool], parts: list[float]) -> None:
        super().__init__(rows)
        self.ranked = sorted(compress(rows, known), key=itemgetter(2))
        self.agents, rows_of, self.credences = (list(map(itemgetter(c), self.ranked)) for c in range(3))
        self.sensitivities = itemgetter(*rows_of)
        self.parts = parts
        self.others = list(compress(rows, map(not_, known)))
        self.slots = dict.fromkeys(map(itemgetter(0), rows))


def _fold_rows(rows: Iterable[Row], lams: Sequence[float], tol: float) -> tuple[dict, dict, bool, int]:
    """The receiver-by-receiver fold: every eligible set, the selection of
    every nonempty one, whether all were singletons, and the disapprovals."""
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
    return eligible, actions, unique, disapprovals


def fold_room(rows: Iterable[Row], lams: Sequence[float], tol: float) -> ChatroomEquilibrium:
    """The room's equilibrium over its receivers' ``rows``, each receiver at
    her sensitivity in ``lams``: her eligible set, the action in it nearest
    her type centroid (ties to the lower action), whether every set was a
    singleton, and how many selected actions disapprove.  An empty set
    leaves the room without an equilibrium: no actions, a count of 0.

    A :class:`Room`'s run folds wherever more than :data:`THRESHOLDS` of
    its receivers share a sensitivity: one reaction per stretch of them who
    react alike, and one per receiver in any other range (:func:`_segments`).
    Every other receiver folds one by one.  The answer is the same either
    way."""
    if type(rows) is Room:
        eligible, actions, unique, disapprovals = _fold_run(rows, lams, tol)
    else:
        eligible, actions, unique, disapprovals = _fold_rows(rows, lams, tol)
    if len(actions) < len(eligible):  # some set was empty
        return ChatroomEquilibrium(eligible, None, Multiplicity.NONE, 0)
    return ChatroomEquilibrium(
        eligible, actions, Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE, disapprovals
    )


def _fold_run(room: Room, lams: Sequence[float], tol: float) -> tuple[dict, dict, bool, int]:
    """:func:`_fold_rows` of a :class:`Room`: its run's receivers of each
    sensitivity shared by more than :data:`THRESHOLDS` of them range by
    range, the rest one by one, the sets and actions in child order."""
    values = room.sensitivities(lams)
    run = (room.ranked, room.credences, room.agents)
    # (λ, rows, credences, agents) per sensitivity more than THRESHOLDS share
    groups: list[tuple[float, Sequence[Row], Sequence[float], Sequence[Agent]]] = []
    loose = room.others
    if values.count(values[0]) == len(values):
        groups.append((values[0], *run))
    else:
        shared = {lam for lam, n in Counter(values).items() if n > THRESHOLDS}
        for lam in shared:
            mask = list(map(eq, values, repeat(lam)))
            groups.append((lam, *(list(compress(column, mask)) for column in run)))
        loose = loose + list(compress(room.ranked, map(not_, map(shared.__contains__, values))))
    some_eligible, some_actions, unique, disapprovals = _fold_rows(loose, lams, tol)
    eligible, actions = room.slots.copy(), room.slots.copy()
    for lam, rows, ts, agents in groups:
        for i, j, is_stretch in _segments(rows, ts, lam, room.parts, len(room), tol):
            if not is_stretch:
                e, a, u, n = _fold_rows(rows[i:j], lams, tol)
                eligible.update(e)
                actions.update(a)
                unique, disapprovals = unique and u, disapprovals + n
                continue
            _, _, t, _, d0, d05, d1, _ = rows[i]
            e = react(t, lam, d0, d05, d1, tol)
            eligible.update(zip(agents[i:j], repeat(e)))
            # her credence is her centroid: the action nearest it, ties to the
            # lower one, changes at the midpoints between the set's actions
            acts = sorted(e)
            unique = unique and len(acts) == 1
            for a, mid in zip(acts, [(x + y) / 2.0 for x, y in zip(acts, acts[1:])] + [math.inf]):
                cut = bisect_right(ts, mid, i, j)
                actions.update(zip(agents[i:cut], repeat(a)))
                if a is DISAPPROVE:
                    disapprovals += cut - i
                i = cut
    eligible.update(some_eligible)
    if len(some_actions) < len(some_eligible):  # some set was empty
        return eligible, {}, False, 0
    actions.update(some_actions)
    return eligible, actions, unique, disapprovals


def _segments(
    rows: Sequence[Row], ts: Sequence[float], lam: float, parts: list[float], k: int, tol: float
) -> list[tuple[int, int, bool]]:
    """A run's positions ``0..len(ts)`` cut into consecutive ranges [i, j),
    each with whether it is a stretch, whose receivers all react as its
    first does, or not, to react one by one.

    A receiver at credence θ has peer mean b(θ) = (T - θ)/k.  Her
    reaction compares f_a(θ) = |a - θ| + λ|a - b(θ)| for the three actions
    a: a is eligible when f_a - f_a' <= tol for every other a'.  Each gap
    f_a - f_a' is linear in θ between the kinks of its terms, where θ or
    b(θ) is 0, 0.5 or 1; the kinks in b are placed exactly, from the room
    total's exact parts.  So the run falls into at most 7 pieces, and on
    each a gap crosses ±tol at most once each.  :func:`react` rounds each
    utility by at most about 6·2⁻⁵³(1 + λ), so a receiver whose every gap
    lies more than ``delta`` = 64·2⁻⁵³(1 + λ + tol) from ±tol gets the
    exact answer.  A stretch is a range inside one piece whose first and
    last receivers are that far, on the same sides: every gap is linear on
    it, so every receiver in it is that far on those sides, and they all
    react alike.  The crossings only guide the cuts: receivers within
    4·delta/|slope| of one form a band, as does a whole piece where that
    reach covers it, and any range whose ends fail the test.

    The test holds for every finite λ and tol.  A distance is at most
    1 + EPS, so a utility is finite unless λ(1 + EPS) passes the float
    maximum; one infinite utility makes its gaps infinite on the side
    :func:`react` takes, as rounding is monotone.  A gap of two infinite
    utilities is NaN, and delta is infinite where 1 + λ + tol overflows:
    either reads as near ±tol, so that range folds one by one."""
    n = len(ts)
    delta = 64.0 * _ULP * (1.0 + lam + tol)
    # the kinks in θ, then in b: the first position past each
    kinks = [bisect_right(ts, x) for x in (0.0, 0.5, 1.0)]
    for a in (0.0, 0.5, 1.0):
        # b(θ) >= a exactly when θ <= T - k·a
        at = math.fsum([*parts, -k * a])
        cut = bisect_right(ts, at)
        if cut and ts[cut - 1] == at and math.fsum([*parts, -k * a, -at]) < 0.0:
            cut = bisect_left(ts, at)
        kinks.append(cut)
    cuts = sorted({0, n, *kinks})
    gaps: dict[int, tuple[float, float, float]] = {}

    def gap(p: int) -> tuple[float, float, float]:
        # f0 - f05, f05 - f1 and f0 - f1 at position p, as react rounds them
        if p not in gaps:
            _, _, t, _, d0, d05, d1, _ = rows[p]
            f0, f05, f1 = abs(t) + lam * d0, abs(0.5 - t) + lam * d05, abs(1.0 - t) + lam * d1
            gaps[p] = (f0 - f05, f05 - f1, f0 - f1)
        return gaps[p]

    def sides(p: int) -> tuple[int | None, ...]:
        # per gap: above +tol, below -tol or between, by more than delta; None when nearer
        return tuple(
            1 if g > tol + delta else -1 if g < -tol - delta else 0 if abs(g) < tol - delta else None
            for g in gap(p)
        )

    def alike(i: int, j: int) -> bool:
        first = sides(i)
        return None not in first and first == sides(j - 1)

    out: list[tuple[int, int, bool]] = []
    lam_k = lam / k
    for lo, hi in zip(cuts, cuts[1:]):
        if alike(lo, hi):
            out.append((lo, hi, True))
            continue
        # d/dθ of |a - θ| and |a - b(θ)| on this piece, per action
        dtheta = [1 if lo >= kinks[x] else -1 for x in range(3)]
        db = [-1 if hi <= kinks[3 + x] else 1 for x in range(3)]
        width, first, last = ts[hi - 1] - ts[lo], sides(lo), sides(hi - 1)
        bands: list[tuple[int, int]] = []
        for pair, (a, b) in enumerate(((0, 1), (1, 2), (0, 2))):
            if first[pair] is not None and first[pair] == last[pair]:
                continue  # linear with both ends on one side: no crossing
            slope = (dtheta[a] - dtheta[b]) + lam_k * (db[a] - db[b])
            if abs(slope) * width <= 4.0 * delta:
                bands = [(lo, hi)]  # too flat to bound: one band
                break
            reach = 4.0 * delta / abs(slope) + 8.0 * _ULP
            for level in (tol, -tol):
                at = ts[lo] + (level - gap(lo)[pair]) / slope
                # an empty band still cuts the piece
                bands.append((bisect_left(ts, at - reach, lo, hi), bisect_right(ts, at + reach, lo, hi)))
        pos = lo
        for i, j in sorted(bands):
            if pos < i:
                out.append((pos, i, alike(pos, i)))
                pos = i
            if pos < j:
                out.append((pos, j, False))
                pos = j
        if pos < hi:
            out.append((pos, hi, alike(pos, hi)))
    return out


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
