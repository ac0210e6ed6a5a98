"""Cascades on ordered trees and the social graphs that generate them.

A communication structure is an ordered tree.  Every non-terminal agent,
together with her immediate successors, forms one chatroom: the agent sends
(or withholds) the message there, and the successors react.  A receiver who
is herself non-terminal then faces her own sending decision, gated by the
disapprovals she just witnessed in the chatroom where she received the
message, her own reaction included.  The root's decision is gated by nobody.

Play therefore cascades top-down, and :func:`solve_global` resolves it room
by room: solve the local reaction game, count disapprovals, evaluate each
receiver's sending rule, recurse into the rooms that actually open.  The
result records which agents the message reached, all realized actions, and
equilibrium diagnostics (no equilibrium in some room, or multiple).

Trees may also be derived from an undirected acquaintance graph by choosing
a root and peeling breadth-first layers.  For that to be well defined the
graph must consist of cliques glued at single agents: every circle of
acquaintances is fully introduced (no open circles), and two circles never
share more than one member (no overlapping circles).  :func:`validate_graph`
checks exactly that and reports concrete witnesses.  Such graphs are the
connected block graphs, whose biconnected components are all cliques, so one
linear pass over the blocks (:class:`BlockDecomposition`) both accepts a
graph and roots it, lazily, at any agent; an invalid graph's witnesses are
read off the same blocks.
"""

from __future__ import annotations

import copy
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, filterfalse, groupby
from operator import itemgetter, le
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .belief import EPS, UNIT_HI, UNIT_LO, EvidenceRelation, check_tol, check_unit, require_credence
from .chatroom import (
    ChatroomEquilibrium,
    ChatroomGame,  # unused here; bench/tracer.py wraps this binding by name
    THRESHOLDS,
    Multiplicity,
    Room,
    Row,
    TypeSet,
    _row,
    _span,
    check_receiver_belief,
    fold_room,
    solve_chatroom,  # unused here; bench/tracer.py wraps this binding by name
)
from .errors import DomainError, InvalidGraph, InvariantViolation
from .receiver import (
    BeliefAtom,
    ReceiverAction,
    SecondOrderBelief,
    check_sensitivity,
)
from .sender import SenderAction, check_count, send_rule
from .sender import decide_send  # unused here; bench/tracer.py wraps this binding by name

Agent = Hashable


def natural_key(agent: Agent) -> tuple[int, int, str]:
    """Sort key putting numeric ids in numeric order, then the rest; the
    value is read off the digits, as ``int()`` refuses very long ones."""
    s = str(agent)
    if s.isdecimal():  # not isdigit(): int() rejects digits like "²"
        digits = (s if s.isascii() else "".join(map(str, map(int, s)))).lstrip("0")
        return (0, len(digits), digits)
    return (1, 0, s)


def natural_sorted(agents: Iterable[Agent]) -> list[Agent]:
    """``sorted(agents, key=natural_key)``.  Plain string ids are sorted
    with ``int`` as the key of the decimal ones while it takes them."""
    agents = list(agents)
    if not set(map(type, agents)) <= {str}:
        return sorted(agents, key=natural_key)
    decimal = list(filter(str.isdecimal, agents))
    try:
        numeric = sorted(decimal, key=int)
    except ValueError:  # an id too long for int()
        numeric = sorted(decimal, key=natural_key)
    return numeric + sorted(filterfalse(str.isdecimal, agents))


# ---------------------------------------------------------------------------
# ordered trees and chatroom skeletons


@dataclass(frozen=True)
class OrderedTree:
    """Rooted tree with an explicit order on every child list."""

    root: Agent
    children: Mapping[Agent, tuple[Agent, ...]]
    parent: Mapping[Agent, Agent]
    agents: tuple[Agent, ...]  # breadth-first order

    @classmethod
    def from_edges(cls, root: Agent, edges: Iterable[tuple[Agent, Agent]]) -> "OrderedTree":
        """Build from (parent, child) pairs; child order follows edge order."""
        edges = tuple(edges)
        parent = dict(zip(map(itemgetter(1), edges), map(itemgetter(0), edges)))
        if len(parent) != len(edges) or root in parent:
            _raise_edge_error(root, edges)  # some child has two parents, or the root one
        children: dict[Agent, list[Agent]] = {}
        for p, c in edges:
            if p in children:
                children[p].append(c)
            else:
                children[p] = [c]
        # breadth first, the list growing while it is walked; with one parent
        # per agent and none for the root, every agent is listed at most once
        order = [root]
        for node in order:
            kids = children.get(node)
            if kids is not None:
                order.extend(kids)
        if len(order) != len(parent) + 1:
            _raise_edge_error(root, edges)  # a self-edge, if any
            seen = set(order)
            stranded = natural_sorted(a for a in dict.fromkeys(chain.from_iterable(edges)) if a not in seen)
            raise InvalidGraph(f"agents not reachable from the root: {stranded!r}")
        out = dict.fromkeys(order, ())
        for p, kids in children.items():
            out[p] = tuple(kids)
        return cls(root=root, children=out, parent=parent, agents=tuple(order))

    def children_of(self, agent: Agent) -> tuple[Agent, ...]:
        return self.children[agent]

    def parent_of(self, agent: Agent) -> Agent | None:
        return self.parent.get(agent)

    def is_terminal(self, agent: Agent) -> bool:
        return not self.children[agent]

    @property
    def non_terminals(self) -> tuple[Agent, ...]:
        return tuple(a for a in self.agents if self.children[a])

    def edges(self) -> tuple[tuple[Agent, Agent], ...]:
        return tuple((a, c) for a in self.agents for c in self.children[a])


def _raise_edge_error(root: Agent, edges: Sequence[tuple[Agent, Agent]]) -> None:
    """Raise for the first edge, in order, that no tree under ``root`` has."""
    parent: dict[Agent, Agent] = {}
    for p, c in edges:
        if p == c:
            raise InvalidGraph(f"self-edge at {p!r}")
        if c == root:
            raise InvalidGraph(f"root {root!r} cannot have a parent")
        if c in parent:
            raise InvalidGraph(f"agent {c!r} has two parents: {parent[c]!r} and {p!r}")
        parent[c] = p


@dataclass(frozen=True)
class Chatroom:
    """Skeleton of one room: the sending agent and her audience in order."""

    sender: Agent
    receivers: tuple[Agent, ...]

    @property
    def members(self) -> tuple[Agent, ...]:
        return (self.sender,) + self.receivers


def chatrooms_of(tree: OrderedTree) -> tuple[Chatroom, ...]:
    """One chatroom per non-terminal agent, in breadth-first order."""
    return tuple(
        Chatroom(sender=a, receivers=tree.children_of(a)) for a in tree.non_terminals
    )


# ---------------------------------------------------------------------------
# per-agent data and the global cascade


@dataclass(frozen=True, slots=True)
class AgentProfile:
    """Everything one agent brings to the cascade.

    ``receiver_belief`` ranges over the agent's peers in her receiving room,
    ordered sender-first then the remaining receivers in room order.
    ``sender_belief`` ranges over her own children in tree order.  Either may
    be omitted when the agent never plays that role.
    """

    type_set: TypeSet
    lam: float
    ell: int = 1
    receiver_belief: SecondOrderBelief | None = None
    sender_belief: SecondOrderBelief | None = None

    def __post_init__(self) -> None:
        check_sensitivity(self.lam)
        check_count(self.ell, "disapproval threshold ell")


@dataclass(frozen=True)
class BeliefOverride:
    """Explicit beliefs for one agent; either side may be omitted."""

    receiver: SecondOrderBelief | None = None
    sender: SecondOrderBelief | None = None


class AgentTable(Mapping[Agent, AgentProfile]):
    """Agents' attributes held as columns, the agents in file order.

    ``theta`` holds the credence of every agent whose type set is one point,
    ``type_sets`` the type set of every other agent, and the ``lam`` and
    ``ell`` lists every agent's sensitivity and disapproval threshold, in
    the order of ``ids``, which is the table's order.  Looking an agent up
    builds her :class:`AgentProfile` (no beliefs) and caches it; the
    engine reads the columns instead, a type set through :meth:`type_set`.
    ``repr`` and ``==`` are those of the dict of every profile.  The
    columns are never changed; they are checked when the table is made, by
    the parser or :meth:`of`.
    """

    def __init__(
        self,
        ids: Sequence[Agent],
        theta: dict[Agent, float],
        type_sets: dict[Agent, TypeSet],
        lam: list[float],
        ell: list[int],
    ) -> None:
        self.theta, self.type_sets, self.lam, self.ell = theta, type_sets, lam, ell
        self._index = dict(zip(ids, range(len(ids))))  # agent -> her row
        self._built: dict[Agent, AgentProfile] = {}

    @classmethod
    def of(cls, attrs: Mapping[Agent, AgentProfile]) -> "AgentTable":
        """``attrs`` itself when it is a table, else its columns."""
        if isinstance(attrs, AgentTable):
            return attrs
        theta: dict[Agent, float] = {}
        type_sets: dict[Agent, TypeSet] = {}
        lam: list[float] = []
        ell: list[int] = []
        for agent, prof in attrs.items():
            values = prof.type_set.values
            if values is not None and len(values) == 1:
                theta[agent] = values[0]
            else:
                type_sets[agent] = prof.type_set
            lam.append(prof.lam)
            ell.append(prof.ell)
        return cls(list(attrs), theta, type_sets, lam, ell)

    def __getitem__(self, agent: Agent) -> AgentProfile:
        prof = self._built.get(agent)
        if prof is None:
            k = self._index[agent]
            prof = self._built[agent] = AgentProfile(self.type_set(agent), self.lam[k], self.ell[k])
        return prof

    def type_set(self, agent: Agent) -> TypeSet:
        """``agent``'s type set, read off the columns; no profile is built."""
        theta = self.theta.get(agent)
        return self.type_sets[agent] if theta is None else TypeSet.singleton(theta)

    def __contains__(self, agent: object) -> bool:
        return agent in self._index

    def __iter__(self) -> Iterator[Agent]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def keys(self):  # type: ignore[override]
        return self._index.keys()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _truth_credences(table: AgentTable, agents: Sequence[Agent]) -> dict[Agent, float]:
    """The credence of each of ``agents``, as known-type beliefs read them.
    Raises for the first of them without a profile or without a single
    type, in natural id order with ties in the table's row order, so every
    rooting of one file names the same agent."""
    theta = table.theta
    # the column serves as it is when it holds exactly these agents
    if len(theta) == len(agents) and all(map(theta.__contains__, agents)):
        return theta
    bad = [agent for agent in agents if agent not in theta]
    if bad:
        row = table._index
        agent = min(bad, key=lambda a: (natural_key(a), row.get(a, len(row))))
        if agent in table:
            raise InvariantViolation(f"agent {agent!r}: known-type beliefs need singleton type sets")
        raise InvariantViolation(f"no profile for agent {agent!r}")
    return {agent: theta[agent] for agent in agents}


class TreeProfiles(Mapping[Agent, AgentProfile]):
    """Beliefs on ``tree``, built only when asked for: the explicit
    ``overrides``, and every other belief the known-type one that
    :func:`dirac_truth_profiles` holds with ``truth`` (a file's
    ``"dirac-truth"`` default), or absent without it.

    :func:`solve_global` does not look agents up.  A receiver without an
    explicit belief gets her peer mean from her room's credence total, and a
    sender without one her gain from her audience's credences, read only
    when her gate is open, so agents the message never reaches cost only the
    checks made here.
    """

    def __init__(
        self,
        tree: OrderedTree,
        attrs: Mapping[Agent, AgentProfile],
        overrides: Mapping[Agent, BeliefOverride] | None = None,
        *,
        truth: bool = True,
    ) -> None:
        self.tree = tree
        self.attrs = table = AgentTable.of(attrs)
        agents = tree.agents
        self.theta: dict[Agent, float] | None = _truth_credences(table, agents) if truth else None
        # in tree order, so checks report the first bad agent
        self.overrides: dict[Agent, BeliefOverride] = (
            {a: overrides[a] for a in agents if a in overrides} if overrides else {}
        )

    @classmethod
    def of(cls, tree: OrderedTree, profiles: Mapping[Agent, AgentProfile]) -> "TreeProfiles":
        """``profiles`` itself when it is built on ``tree``; else every
        profile's beliefs become her override, and no belief is known-type."""
        if isinstance(profiles, TreeProfiles) and profiles.tree == tree:
            return profiles
        stated = {a: BeliefOverride(p.receiver_belief, p.sender_belief) for a, p in profiles.items()}
        return cls(tree, profiles, stated, truth=False)

    def _reroot(self, tree: "RootedView") -> "TreeProfiles":
        """The same checked attributes and credences on another rooting.

        Explicit beliefs are shaped by one rooting, so they cannot follow.
        """
        assert not self.overrides and self.theta is not None
        other = copy.copy(self)
        other.tree = tree  # type: ignore[assignment]
        return other

    def _dirac(self, agents: Sequence[Agent]) -> SecondOrderBelief | None:
        return SecondOrderBelief.dirac([self.theta[a] for a in agents]) if agents else None

    def receiver_belief(self, agent: Agent) -> SecondOrderBelief | None:
        """``agent``'s explicit receiver belief, or None."""
        override = self.overrides.get(agent)
        return None if override is None else override.receiver

    def sender_belief(self, agent: Agent) -> SecondOrderBelief | None:
        """``self[agent].sender_belief`` without building her receiver belief."""
        stated = self._stated_sender(agent)
        if stated is None and self.theta is not None:
            return self._dirac(self.tree.children_of(agent))
        return stated

    def _stated_sender(self, agent: Agent) -> SecondOrderBelief | None:
        # her explicit sender belief; without one, a known type pictures her
        # audience at their credences
        override = self.overrides.get(agent)
        return None if override is None else override.sender

    def __getitem__(self, agent: Agent) -> AgentProfile:
        if agent not in self:
            raise KeyError(agent)
        base = self.attrs[agent]
        receiver = self.receiver_belief(agent)
        parent = self.tree.parent_of(agent)
        if receiver is None and self.theta is not None and parent is not None:
            receiver = self._dirac([parent] + [s for s in self.tree.children_of(parent) if s != agent])
        return AgentProfile(base.type_set, base.lam, base.ell, receiver, self.sender_belief(agent))

    def __contains__(self, agent: object) -> bool:
        if self.theta is not None:
            return agent in self.theta
        return agent in self.attrs and (agent == self.tree.root or self.tree.parent_of(agent) is not None)

    def __iter__(self) -> Iterator[Agent]:
        return iter(self.tree.agents)

    def __len__(self) -> int:
        return len(self.tree.agents)


def dirac_truth_profiles(
    tree: OrderedTree,
    attrs: Mapping[Agent, AgentProfile],
) -> dict[Agent, AgentProfile]:
    """Fill in beliefs assuming everyone knows everyone's true type.

    Requires singleton type sets; every belief becomes a point mass on the
    peers' actual credences.  Existing beliefs in ``attrs`` are ignored.
    Every belief is built; :class:`TreeProfiles` builds them on demand.
    """
    return dict(TreeProfiles(tree, attrs))


@dataclass(frozen=True)
class CascadeResult:
    """Realized cascade under the canonical selection rule.

    ``reach`` holds every agent the message arrived at (root included).
    Agents outside ``reach`` have no realized actions and are absent from
    the action maps.  ``exists`` is False when play walked into a room with
    no equilibrium; ``failing_room`` then names its sender.  ``unique`` is
    True when the cascade exists and every solved room was a singleton.
    """

    receiver_actions: Mapping[Agent, ReceiverAction]
    sender_actions: Mapping[Agent, SenderAction]
    reach: frozenset[Agent]
    exists: bool
    unique: bool
    multiple_rooms: tuple[Agent, ...] = ()
    failing_room: Agent | None = None
    room_equilibria: Mapping[Agent, ChatroomEquilibrium] = field(default_factory=dict)

    @property
    def reach_count(self) -> int:
        return len(self.reach)

    def reaction_of(self, agent: Agent) -> ReceiverAction | None:
        return self.receiver_actions.get(agent)

    def send_of(self, agent: Agent) -> SenderAction | None:
        return self.sender_actions.get(agent)


def _check_profiles(profiles: TreeProfiles) -> None:
    """Check every explicit belief against the tree: sender beliefs in tree
    order, then receiver beliefs room by room.  Known-type beliefs fit the
    tree by construction, so with them only the overrides are checked."""
    tree, attrs, truth = profiles.tree, profiles.attrs, profiles.theta is not None
    receiver_beliefs: list[tuple[Agent, SecondOrderBelief | None]] = []
    for agent in profiles.overrides if truth else tree.agents:
        if agent not in attrs:
            raise InvariantViolation(f"no profile for agent {agent!r}")
        kids = tree.children_of(agent)
        sender = profiles._stated_sender(agent)
        if kids:
            if sender is None and not truth:
                raise InvariantViolation(f"agent {agent!r} can send but has no sender belief")
            if sender is not None and sender.dim != len(kids):
                raise InvariantViolation(
                    f"agent {agent!r}: sender belief covers {sender.dim} "
                    f"receivers, has {len(kids)} successors"
                )
        receiver = profiles.receiver_belief(agent)
        if agent != tree.root and (receiver is not None or not truth):
            receiver_beliefs.append((agent, receiver))
    for parent, room in groupby(receiver_beliefs, key=lambda item: tree.parent[item[0]]):
        members = (parent, *tree.children_of(parent))
        slots = dict(zip(members, range(len(members))))
        bounds = _room_bounds(attrs, members)
        # within a room, a missing belief is reported before a malformed one
        for agent, belief in sorted(room, key=lambda item: item[1] is not None):
            i = slots[agent]
            if bounds is None or belief is None or not _fits(belief, bounds, i):
                # the walk names the fault
                peers = members[:i] + members[i + 1 :]
                check_receiver_belief(agent, belief, [attrs.type_set(p) for p in peers])


def _room_bounds(attrs: AgentTable, members: Sequence[Agent]) -> tuple[list[float], list[float]] | None:
    """The least and the greatest credence each member's type set holds,
    as :func:`check_receiver_belief` tests it, read off the table's columns;
    None when some member's type set is not a point or an interval with
    such bounds (several points, or a point near ``EPS`` off zero)."""
    theta, type_sets = attrs.theta, attrs.type_sets
    los: list[float] = []
    his: list[float] = []
    for agent in members:
        if agent in theta:
            span = _span(theta[agent])
        else:
            bounds = type_sets[agent].bounds
            span = None if bounds is None else (bounds[0] - EPS, bounds[1] + EPS)
        if span is None:
            return None
        los.append(span[0])
        his.append(span[1])
    return los, his


def _fits(belief: SecondOrderBelief, bounds: tuple[list[float], list[float]], i: int) -> bool:
    """Whether ``belief`` has one coordinate per member of a room but the
    ``i``-th, each inside that member's ``bounds``, in passes over whole
    profiles; NaN fails them."""
    los, his = bounds
    los, his = los[:i] + los[i + 1 :], his[:i] + his[i + 1 :]
    return belief.dim == len(los) and all(
        all(map(le, los, atom.profile)) and all(map(le, atom.profile, his)) for atom in belief.atoms
    )


def credence_errors(
    profiles: TreeProfiles, rooms: Iterable[Chatroom], mu: EvidenceRelation, tol: float
) -> Iterator[str]:
    """The text of every distinct off-band credence in the send decisions
    of ``rooms``, room by room, each in the order :func:`decide_send` reads
    them: the sender's type hull, then her sender-belief coordinates (from
    ``profiles``) in atom order; a known type's are her audience's
    credences, read from ``profiles.theta``."""
    for room in rooms:
        sender = room.sender
        checked = [("types", x) for x in dict.fromkeys(profiles.attrs.type_set(sender).hull)]
        belief = profiles._stated_sender(sender)
        if belief is not None:
            coords: Iterable[float] = chain.from_iterable(atom.profile for atom in belief.atoms)
        else:
            coords = () if profiles.theta is None else map(profiles.theta.__getitem__, room.receivers)
        checked += [("sender belief", x) for x in dict.fromkeys(coords)]
        for where, x in checked:
            try:
                require_credence(x, mu, tol)
            except DomainError as exc:
                yield f"agent {sender!r}: {where}: {exc}"


def _exact_parts(xs: Iterable[float]) -> list[float]:
    """Floats whose exact sum is that of ``xs``, so ``fsum([*parts, -x])``
    is ``fsum`` of ``xs`` without ``x``, the peer sum ``peer_distance`` takes."""
    xs, parts = list(xs), []
    while s := math.fsum(xs):
        parts.append(s)
        xs.append(-s)
    return parts


def _room_peers(profiles: TreeProfiles, sender: Agent, receivers: tuple[Agent, ...]) -> list[Row]:
    """``sender``'s room as :func:`fold_room` reads it, with nothing a
    sensitivity changes: per receiver her agent, table row, type hull ends,
    peer distances d0, d05, d1 and type centroid.  A receiver with an
    explicit belief gets her peer distances from it and her types from the
    table's columns, any other one her peer distances from her peer mean,
    read off the room's credence total.  A :class:`Room` when more than
    :data:`THRESHOLDS` are of that kind: they fold as a run."""
    attrs, theta, row = profiles.attrs, profiles.theta, profiles.attrs._index
    beliefs = list(map(profiles.receiver_belief, receivers)) if profiles.overrides else [None] * len(receivers)
    if None in beliefs:
        # known-type peers are the sender and the other receivers, at their credences
        parts, k = _exact_parts([theta[sender], *(theta[r] for r in receivers)]), len(receivers)
    rows: list[Row] = []
    for r, belief in zip(receivers, beliefs):
        if belief is None:
            t = theta[r]
            b = math.fsum([*parts, -t]) / k
            if not UNIT_LO <= b <= UNIT_HI:
                check_unit(b, "peer mean")  # raises
            rows.append((r, row[r], t, t, abs(b), abs(0.5 - b), abs(1.0 - b), t))
        else:
            rows.append(_row(r, row[r], attrs.type_set(r), belief))
    if beliefs.count(None) > THRESHOLDS:
        return Room(rows, [belief is None for belief in beliefs], parts)
    return rows


def _decide(
    profiles: TreeProfiles,
    agent: Agent,
    kids: tuple[Agent, ...],
    mu: EvidenceRelation,
    ell: int,
    disapprovals: int,
    tol: float,
) -> SenderAction:
    """``agent``'s send decision to ``kids``, her gate ``ell`` against
    ``disapprovals``: a known type pictures her audience at their credences,
    one atom of weight 1.  A closed gate reads no belief and no credence.
    An off-band credence raises naming the agent and where it sits."""
    theta = profiles.theta
    belief = profiles._stated_sender(agent) if ell > disapprovals else None
    hull = profiles.attrs.type_set(agent).hull if theta is None else (theta[agent], theta[agent])
    atoms = belief.atoms if belief is not None else (
        # a closed gate comes with no kids, so only an open one reads their credences
        BeliefAtom(tuple([theta[kid] for kid in kids]), 1.0),  # type: ignore[index]
    )
    try:
        return send_rule(hull, atoms, mu, ell, disapprovals, tol)
    except DomainError as exc:
        raise DomainError(next(credence_errors(profiles, [Chatroom(agent, kids)], mu, tol))) from exc


def _cascades(
    tree: OrderedTree,
    profiles: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    tol: float,
    columns: Callable[[AgentTable], Iterable[list[float]]],
) -> Iterator[CascadeResult]:
    """:func:`solve_global`'s cascade once per column of sensitivities, one
    per table row, that ``columns`` lists off the table; see :func:`sweep_lambda`."""
    check_tol(tol)
    profiles = TreeProfiles.of(tree, profiles)
    _check_profiles(profiles)
    attrs = profiles.attrs
    row, ells = attrs._index, attrs.ell
    rooms: dict[Agent, tuple[list[Row], Callable[[list[float]], Any]]] = {}  # by sender, with her sensitivities' reader
    folds: dict[Agent, tuple[Any, ChatroomEquilibrium]] = {}  # by sender: her receivers' sensitivities, and the fold
    decided: dict[tuple[Agent, bool], tuple[SenderAction, tuple[Agent, ...]]] = {}  # and her receivers
    previous: CascadeResult | None = None

    def fold(sender: Agent, lams: list[float]) -> ChatroomEquilibrium:
        # a room folds again only when some receiver's sensitivity changed,
        # and keeps its last fold when the new one equals it
        rows, sensitivities = rooms[sender]
        key, last = sensitivities(lams), folds.get(sender)
        if last is None or last[0] != key:
            eq = fold_room(rows, lams, tol)
            last = folds[sender] = key, eq if last is None or eq != last[1] else last[1]
        return last[1]

    for lams in columns(attrs):
        # the cascade is the last one when every room it opened keeps its
        # fold.  They are checked in opening order up to the first that does
        # not, and no room opened before a checked one changed, so each
        # checked room opens again: no fold here is one the walk would skip
        if previous is not None and all(
            fold(sender, lams) is eq for sender, eq in previous.room_equilibria.items()
        ):
            yield previous
            continue
        receiver_actions: dict[Agent, ReceiverAction] = {}
        sender_actions: dict[Agent, SenderAction] = {}
        room_eqs: dict[Agent, ChatroomEquilibrium] = {}
        multiple: list[Agent] = []
        failing: Agent | None = None
        queue: deque[tuple[Agent, tuple[Agent, ...]]] = deque()  # senders with their receivers

        def decide(agent: Agent, ell: int, disapprovals: int) -> None:
            key = (agent, ell > disapprovals)
            if key not in decided:
                kids = tree.children_of(agent) if key[1] else ()
                decided[key] = _decide(profiles, agent, kids, mu, ell, disapprovals, tol), kids
            sender_actions[agent], kids = decided[key]
            if sender_actions[agent] is SenderAction.SEND:
                queue.append((agent, kids))

        if not tree.is_terminal(tree.root):
            # nobody gates the root: threshold 1 against zero disapprovals
            decide(tree.root, 1, 0)

        while queue:
            sender, receivers = queue.popleft()
            if sender not in rooms:
                rows = _room_peers(profiles, sender, receivers)
                rooms[sender] = rows, itemgetter(*(r[1] for r in rows))
            eq = room_eqs[sender] = fold(sender, lams)
            if eq.multiplicity is Multiplicity.NONE:
                failing = sender
                break
            if eq.multiplicity is Multiplicity.MULTIPLE:
                multiple.append(sender)
            assert eq.actions is not None
            receiver_actions.update(eq.actions)
            for agent in receivers:
                if not tree.is_terminal(agent):
                    decide(agent, ells[row[agent]], eq.disapprovals)

        previous = CascadeResult(
            receiver_actions=receiver_actions,
            sender_actions=sender_actions,
            reach=frozenset(chain((tree.root,), receiver_actions)),  # a failing room adds nobody
            exists=failing is None,
            unique=failing is None and not multiple,
            multiple_rooms=tuple(multiple),
            failing_room=failing,
            room_equilibria=room_eqs,
        )
        yield previous


def solve_global(
    tree: OrderedTree,
    profiles: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    tol: float = EPS,
) -> CascadeResult:
    """Resolve the whole cascade top-down.

    Every receiver chooses an action serving all her types (the canonical
    selection among them when several do), senders apply the gated
    positive-gain rule, and the message spreads until every open room is
    resolved.  Returns diagnostics instead of raising when some reached room
    has no equilibrium; malformed explicit beliefs raise at entry, and an
    off-band credence a send decision reads raises naming the agent and
    whether it sits in her types or her sender belief.

    ``profiles`` is read through :meth:`TreeProfiles.of`, so any mapping
    of profiles, every belief in it explicit, serves as well.  Receivers'
    beliefs enter only through peer distances: from an explicit belief when
    she has one, otherwise from her room's credence total.  A known type is
    read from the attribute columns, checked when the table was made, into
    the reaction and gain kernels an explicit belief feeds, and no belief is
    built for her, so a room of known types with k receivers costs O(k).  A
    sender's belief is looked up only when her gate is open.

    A :class:`RootedView` may stand in for ``tree`` when ``profiles`` are
    override-free known-type :class:`TreeProfiles` on it: then only
    ``root``, ``children_of``, ``is_terminal`` and ``agents`` are read, and
    only for the root and the agents the cascade has reached.
    """
    return next(_cascades(tree, profiles, mu, tol, lambda table: [table.lam]))


def sweep_lambda(
    tree: OrderedTree,
    profiles: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    lams: Iterable[float],
    agent: Agent | None = None,
    tol: float = EPS,
) -> Iterator[CascadeResult]:
    """:func:`solve_global` once per sensitivity in ``lams``, given to
    ``agent``, or to every agent when None, each result yielded as its
    cascade ends.  Peer means, peer distances and send decisions read no
    sensitivity, so the cascades share each room's peers and each (sender,
    gate open) decision: a sensitivity costs the folds of the rooms its
    cascade opens whose receivers' sensitivities changed since their last
    fold.  A fold equal to the room's last keeps the last one's object, and
    when every room the last cascade opened keeps it, that cascade is the
    result again: one result object may be yielded more than once, for
    consecutive sensitivities.  The beliefs and ``agent`` are checked once,
    each sensitivity as its cascade starts, and a cascade raises what
    :func:`solve_global` raises.
    """

    def columns(table: AgentTable) -> Iterator[list[float]]:
        if agent is not None and agent not in table:
            raise InvariantViolation(f"no profile for agent {agent!r}")
        for lam in lams:
            check_sensitivity(lam)
            if agent is None:
                yield [lam] * len(table)
            else:
                column = table.lam.copy()
                column[table._index[agent]] = lam
                yield column

    return _cascades(tree, profiles, mu, tol, columns)


# ---------------------------------------------------------------------------
# undirected acquaintance graphs


@dataclass(frozen=True)
class SocialGraph:
    """Undirected graph over agents; may be structurally invalid until
    checked by :func:`validate_graph`.

    ``nodes`` holds every agent once, in natural id order; agents whose ids
    share a natural key ("1", "01") keep the order in which they first
    appear, among ``nodes`` and then in the edges.  Every neighbour list
    holds each neighbour once, in that same order, so everything read off
    the graph (edges, witnesses, rootings) follows one agent order.
    """

    nodes: tuple[Agent, ...]
    adjacency: Mapping[Agent, tuple[Agent, ...]]
    loops: tuple[Agent, ...] = ()

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Agent, Agent]],
        nodes: Iterable[Agent] = (),
    ) -> "SocialGraph":
        # neighbour sets as dicts, in first-appearance order; (a, b) and (b, a) are one edge
        adjacency: dict[Agent, dict[Agent, None]] = {a: {} for a in nodes}
        loops: dict[Agent, None] = {}
        for a, b in edges:
            nbrs_a = adjacency.setdefault(a, {})
            nbrs_b = adjacency.setdefault(b, {})
            if a == b:
                loops[a] = None
            else:
                nbrs_a[b] = nbrs_b[a] = None
        order = natural_sorted(adjacency)  # stable: ties keep first appearance
        # walking the agents in order lists every agent's neighbours in order
        held: dict[Agent, list[Agent]] = {a: [] for a in order}
        for a in order:
            for b in adjacency[a]:
                held[b].append(a)
        return cls(
            nodes=tuple(order),
            adjacency={a: tuple(nbrs) for a, nbrs in held.items()},
            loops=tuple(loops),
        )

    def neighbors(self, agent: Agent) -> tuple[Agent, ...]:
        return self.adjacency[agent]

    def adjacent(self, a: Agent, b: Agent) -> bool:
        return b in self.adjacency[a]

    def edges(self) -> tuple[tuple[Agent, Agent], ...]:
        """Every edge once, as ``(a, b)`` with ``a`` before ``b`` in node
        order, sorted by ``a`` and then ``b``."""
        rank = dict(zip(self.nodes, range(len(self.nodes))))
        return tuple((a, b) for a in self.nodes for b in self.adjacency[a] if rank[a] < rank[b])


@dataclass(frozen=True)
class GraphViolation:
    """One structural defect with a concrete witness tuple."""

    kind: str  # "self-loop" | "disconnected" | "overlapping-circles" | "open-circle"
    witness: tuple[Agent, ...]


@dataclass(frozen=True)
class GraphReport:
    violations: tuple[GraphViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: SocialGraph) -> GraphReport:
    """Structural check for tree-generating acquaintance graphs.

    Valid graphs are connected, loop-free, and consist of cliques overlapping
    in at most one agent.  Violations come with witnesses:

    - ``self-loop``: ``(i,)`` an agent acquainted with herself.
    - ``disconnected``: ``(a, b)`` two agents with no connecting path.
    - ``overlapping-circles``: ``(i, j, j', k)`` where ``i`` and ``k`` are
      strangers sharing the two distinct mutual acquaintances ``j, j'``.
    - ``open-circle``: ``(i, j, j')`` where ``j, j'`` are acquaintances of
      ``i`` who are strangers to each other yet linked by a path that avoids
      ``i`` (so they sit in one circle around ``i`` without being
      introduced).

    A valid graph is accepted by its block decomposition in O(n + m).  An
    invalid one has its witnesses read off that same decomposition: two
    acquaintances of ``i`` are linked avoiding ``i`` exactly when their
    edges to her lie in one block, and strangers sharing two acquaintances
    are two steps apart inside one block.  The scan stays inside blocks, so
    it costs Σ deg² only where blocks are as large as the agents' degrees.
    """
    blocks = BlockDecomposition(g)
    if blocks.valid:
        return GraphReport(violations=())
    return GraphReport(violations=tuple(_graph_violations(g, blocks)))


def _graph_violations(g: SocialGraph, blocks: BlockDecomposition) -> Iterator[GraphViolation]:
    # every witness of every kind, in report order, each as soon as it is found
    for agent in g.loops:
        yield GraphViolation(kind="self-loop", witness=(agent,))
    if blocks.stranded is not None:
        yield GraphViolation(kind="disconnected", witness=(g.nodes[0], blocks.stranded))

    # every edge lies in one block, so blocks.block_of[x] has x's acquaintances as keys
    adjacency = g.adjacency
    rank = dict(zip(g.nodes, range(len(g.nodes))))
    # every agent's acquaintances by the block of their edge, in neighbour order
    groups: dict[Agent, dict[int, list[Agent]]] = {}
    for a, nbrs in adjacency.items():
        block_of, by_block = blocks.block_of[a], groups.setdefault(a, {})
        for b in nbrs:
            by_block.setdefault(block_of[b], []).append(b)

    # strangers i, k with shared acquaintances j, j' close the circle i-j-k-j'-i,
    # so all four edges lie in one block: both steps stay inside it
    for i, r in rank.items():
        around, block_of = adjacency[i], blocks.block_of[i]
        steps = Counter(chain.from_iterable(groups[j][block_of[j]] for j in around))
        far = [k for k, paths in steps.items() if paths > 1 and rank[k] > r and k not in block_of]
        for k in sorted(far, key=rank.__getitem__):
            common = [j for j in around if j in blocks.block_of[k]]
            yield GraphViolation(kind="overlapping-circles", witness=(i, common[0], common[1], k))

    # unintroduced members of one circle: one block around i, yet strangers
    for i in g.nodes:
        block_of, by_block = blocks.block_of[i], groups[i]
        place = dict.fromkeys(by_block, 0)  # j's position among her block's members
        for j in adjacency[i]:
            block, theirs = block_of[j], blocks.block_of[j]
            x = place[block] = place[block] + 1
            for jp in by_block[block][x:]:
                if jp not in theirs:
                    yield GraphViolation(kind="open-circle", witness=(i, j, jp))


class BlockDecomposition:
    """The blocks (biconnected components) of an acquaintance graph.

    One iterative Hopcroft-Tarjan depth-first pass, O(n + m) and free of
    recursion, assigns every edge to its block.  A block of b agents holds at
    most C(b, 2) edges, so the blocks are all cliques exactly when those
    bounds add up to m; ``valid`` adds no loops and one connected component,
    which is the structure :func:`validate_graph` accepts.  Components are
    entered in node order, so ``stranded``, the agent that starts the second
    one (None if there is none), is the first agent in node order that the
    first agent cannot reach.  With ``block_of``, which holds every edge's
    block, it is what :func:`validate_graph` reads an invalid graph's
    witnesses from.

    On a valid graph, :meth:`children` lists an agent's children in any
    rooting: the root's are her neighbours, and an agent entered through
    block B gets the members of her other blocks, in the graph's node order
    either way.  The list is filtered from her neighbours whenever it is
    asked for, and not kept.
    """

    def __init__(self, g: SocialGraph) -> None:
        self.agents = g.nodes  # natural id order
        self._adjacency = adjacency = g.adjacency
        # per agent: neighbour -> index of the block holding their edge
        self.block_of: dict[Agent, dict[Agent, int]] = {a: {} for a in g.nodes}
        self.block_count: dict[Agent, int] = dict.fromkeys(g.nodes, 0)
        index: dict[Agent, int] = {}  # depth-first discovery order
        low: dict[Agent, int] = {}
        block_of, block_count = self.block_of, self.block_count
        self.stranded: Agent | None = None
        blocks = pairs = 0
        for start in g.nodes:
            if start in index:
                continue
            if index and self.stranded is None:
                self.stranded = start
            index[start] = low[start] = len(index)
            stack: list[tuple[Agent, Agent | None, Iterator[Agent]]] = [
                (start, None, iter(adjacency[start]))
            ]
            edges: list[tuple[Agent, Agent]] = []
            while stack:
                v, parent, nbrs = stack[-1]
                at = index[v]
                for w in nbrs:
                    if w not in index:
                        index[w] = low[w] = len(index)
                        edges.append((v, w))
                        stack.append((w, v, iter(adjacency[w])))
                        break
                    if w != parent and index[w] < at:  # back edge to an ancestor
                        edges.append((v, w))
                        if index[w] < low[v]:
                            low[v] = index[w]
                else:
                    stack.pop()
                    if parent is None:
                        continue
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] < index[parent]:
                        continue
                    # parent cuts v's subtree off: its edges since (parent, v) form a block
                    members: set[Agent] = set()
                    while True:
                        a, b = edges.pop()
                        block_of[a][b] = block_of[b][a] = blocks
                        members.update((a, b))
                        if a == parent and b == v:
                            break
                    for a in members:
                        block_count[a] += 1
                    pairs += len(members) * (len(members) - 1) // 2
                    blocks += 1
        edge_count = sum(len(nbrs) for nbrs in adjacency.values()) // 2
        self.valid = not g.loops and self.stranded is None and pairs == edge_count

    def children(self, agent: Agent, entry: int) -> tuple[Agent, ...]:
        """``agent``'s children when she is entered through block ``entry``;
        -1 for the root."""
        # no block but the one she was entered through.  The bench's sweeps do
        # not gain by this, but root_tree walks every agent: without it each of
        # the k receivers in a star's clique closure would scan k acquaintances
        if self.block_count[agent] == (entry != -1):
            return ()
        block_of = self.block_of[agent]
        return tuple(u for u in self._adjacency[agent] if block_of[u] != entry)


class RootedView:
    """A valid graph oriented away from ``root``, built only as far as it is walked.

    Offers what :func:`solve_global` and :class:`TreeProfiles` read of
    an :class:`OrderedTree`: ``root``, ``children_of``, ``is_terminal``,
    ``parent_of`` and ``agents``, which holds every agent in natural order
    rather than breadth-first.  A cascade walks top-down, so it only asks
    about agents already listed: the root, and the children of agents it has
    asked about.  ``children_of`` and ``parent_of`` raise ``KeyError`` for an
    agent not listed yet.
    """

    def __init__(self, blocks: BlockDecomposition, root: Agent) -> None:
        if root not in blocks.block_of:
            raise InvalidGraph(f"unknown root {root!r}")
        self.root = root
        self.agents = blocks.agents
        self._blocks = blocks
        self._entry: dict[Agent, int] = {root: -1}
        self._parent: dict[Agent, Agent] = {}

    def children_of(self, agent: Agent) -> tuple[Agent, ...]:
        kids = self._blocks.children(agent, self._entry[agent])
        block_of = self._blocks.block_of[agent]
        for kid in kids:
            self._parent[kid] = agent
            self._entry[kid] = block_of[kid]
        return kids

    def parent_of(self, agent: Agent) -> Agent | None:
        return None if agent == self.root else self._parent[agent]

    def is_terminal(self, agent: Agent) -> bool:
        # no block but the one she was entered through (the root: none at all)
        return self._blocks.block_count[agent] == (agent != self.root)


def _valid_blocks(g: SocialGraph) -> BlockDecomposition:
    # the decomposition of a valid graph; else the first witness, as validate_graph lists them
    blocks = BlockDecomposition(g)
    if not blocks.valid:
        first = next(_graph_violations(g, blocks))
        raise InvalidGraph(f"graph cannot generate a tree: {first.kind} witness {first.witness!r}")
    return blocks


def root_tree(g: SocialGraph, root: Agent) -> OrderedTree:
    """Orient a valid acquaintance graph away from ``root``: the whole
    :class:`RootedView`, walked breadth-first."""
    if root not in g.adjacency:
        raise InvalidGraph(f"unknown root {root!r}")
    view = RootedView(_valid_blocks(g), root)
    children: dict[Agent, tuple[Agent, ...]] = {}
    order = [root]
    for agent in order:  # the list grows while it is walked
        children[agent] = kids = view.children_of(agent)
        order.extend(kids)
    return OrderedTree(root=root, children=children, parent=view._parent, agents=tuple(order))


def undirected_closure(tree: OrderedTree) -> SocialGraph:
    """Acquaintance graph generated by the tree's chatrooms: each room
    becomes a clique."""
    edges: list[tuple[Agent, Agent]] = []
    for room in chatrooms_of(tree):
        members = room.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.append((members[i], members[j]))
    return SocialGraph.from_edges(edges, nodes=tree.agents)


def reach_by_root(
    graph: SocialGraph,
    attrs: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    tol: float = EPS,
) -> dict[Agent, CascadeResult]:
    """Re-root the graph at every agent and resolve each cascade.

    Beliefs follow each rooting (:class:`TreeProfiles`), so the
    agents' type sets must be singletons.  Returns results keyed by root in
    natural id order.

    One block decomposition validates the graph and serves every rooting as
    a :class:`RootedView`, and the attributes are checked once, so each root
    costs what its cascade reaches.
    """
    check_tol(tol)
    blocks = _valid_blocks(graph)
    if not blocks.agents:
        return {}
    truth = TreeProfiles(RootedView(blocks, blocks.agents[0]), attrs)  # type: ignore[arg-type]
    out: dict[Agent, CascadeResult] = {}
    for root in blocks.agents:
        view = RootedView(blocks, root)
        out[root] = solve_global(view, truth._reroot(view), mu, tol)  # type: ignore[arg-type]
    return out


class RootSummary(NamedTuple):
    """What ``sweep-root`` reports of one root's cascade, which under known
    types always exists and fails no room: how many agents it reaches,
    whether every room it opened had one equilibrium, and the agents who
    held the message, had someone to send it to and did not, in natural id
    order."""

    reach_count: int
    unique: bool
    no_send_at: list[Agent]


class _Below(NamedTuple):
    # the sub-cascade below a sender, memoized by her (agent, entry block)
    reach: int  # agents reached below her
    multiple: bool  # some room there is MULTIPLE
    no_sends: int  # agents there who do not send
    here: list[Agent]  # her receivers who do not send
    busy: list[tuple[Agent, int]]  # her sending receivers' keys, those with no-sends below them


def root_summaries(
    graph: SocialGraph,
    attrs: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    tol: float = EPS,
) -> dict[Agent, RootSummary]:
    """:func:`reach_by_root`'s cascades, summarized, each sub-cascade solved once.

    Under known types, what happens below an agent who sends after being
    entered through block B is the same whoever the root: her room holds
    the members of her other blocks, and each non-terminal receiver's
    decision depends only on its disapprovals and on her own room, entered
    through the block she shares with the sender.  So each (agent, entry
    block) room is folded once and each open-gate decision evaluated once.
    Each sub-cascade keeps its reach, whether some room in it is MULTIPLE,
    and the no-send agents among its sender's receivers; a root's no-send
    agents are gathered by walking only the sub-cascades that hold some,
    breadth first as the cascade decides, so ids that tie in natural order
    ("1", "01") keep :func:`reach_by_root`'s order.

    Raises what :func:`reach_by_root` raises.
    """
    check_tol(tol)
    blocks = _valid_blocks(graph)
    if not blocks.agents:
        return {}
    profiles = TreeProfiles(RootedView(blocks, blocks.agents[0]), attrs)  # type: ignore[arg-type]
    row, ells, lams = profiles.attrs._index, profiles.attrs.ell, profiles.attrs.lam
    block_of, block_count = blocks.block_of, blocks.block_count

    def sends(agent: Agent, kids: tuple[Agent, ...]) -> bool:
        return _decide(profiles, agent, kids, mu, 1, 0, tol) is SenderAction.SEND  # an open gate

    decided: dict[tuple[Agent, int], bool] = {}  # whether she sends through an open gate
    below: dict[tuple[Agent, int], _Below] = {}  # for the keys that send

    out: dict[Agent, RootSummary] = {}
    for root in blocks.agents:
        if not block_count[root]:  # a lone agent has nobody to send to
            out[root] = RootSummary(1, True, [])
            continue
        top, kids = (root, -1), blocks.children(root, -1)
        if not sends(root, kids):  # nobody gates the root
            out[root] = RootSummary(1, True, [root])
            continue
        # her rooms not solved yet, breadth first as solve_global opens them:
        # a memoized sub-cascade raised nothing, so the first decision that
        # raises here is the one her cascade raises at
        opened, rooms = [(top, kids)], []
        for key, kids in opened:  # the list grows while it is walked
            eq = fold_room(_room_peers(profiles, key[0], kids), lams, tol)
            assert eq.actions is not None  # one-type eligible sets are never empty
            disapprovals, entries = eq.disapprovals, block_of[key[0]]
            here, sent = [], []
            for r in kids:
                if block_count[r] == 1:  # terminal
                    continue
                child = (r, entries[r])
                if ells[row[r]] <= disapprovals:  # her gate is closed
                    here.append(r)
                    continue
                if child not in decided:
                    theirs = blocks.children(*child)
                    decided[child] = sends(r, theirs)
                    if decided[child]:
                        opened.append((child, theirs))
                if decided[child]:
                    sent.append(child)
                else:
                    here.append(r)
            rooms.append((key, len(kids), eq.multiplicity is Multiplicity.MULTIPLE, here, sent))
        # bottom up: a sender's sub-cascade is summed up once her receivers' are
        for key, reach, multiple, here, sent in reversed(rooms):
            subs = [below[child] for child in sent]
            below[key] = _Below(
                reach + sum(sub.reach for sub in subs),
                multiple or any(sub.multiple for sub in subs),
                len(here) + sum(sub.no_sends for sub in subs),
                here,
                [child for child, sub in zip(sent, subs) if sub.no_sends],
            )
        no_send, walk = [], [top]
        for key in walk:  # the list grows while it is walked: breadth first
            no_send += below[key].here
            walk += below[key].busy
        sub = below.pop(top)  # only this root's cascade starts at (root, -1)
        out[root] = RootSummary(1 + sub.reach, not sub.multiple, natural_sorted(no_send))
    return out
