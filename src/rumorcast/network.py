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
from dataclasses import dataclass, field, replace
from itertools import chain, filterfalse, groupby
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .belief import EPS, EvidenceRelation, require_credence
from .chatroom import (
    ChatroomEquilibrium,
    ChatroomGame,  # unused here; bench/tracer.py wraps this binding by name
    Multiplicity,
    TypeSet,
    _eligible,
    check_receiver_belief,
    fold_room,
    known_type_eligible,
    solve_chatroom,  # unused here; bench/tracer.py wraps this binding by name
)
from .errors import DomainError, InvalidGraph, InvariantViolation, RangeViolation
from .receiver import (
    ReceiverAction,
    SecondOrderBelief,
    check_sensitivity,
    peer_distance,
)
from .sender import SenderAction, decide_send, known_type_gain, send_rule

Agent = Hashable


def natural_key(agent: Agent) -> tuple[int, int, str]:
    """Sort key putting numeric ids in numeric order, then the rest."""
    s = str(agent)
    if s.isdecimal():  # not isdigit(): int() rejects digits like "²"
        return (0, int(s), "")
    return (1, 0, s)


def natural_sorted(agents: Iterable[Agent]) -> list[Agent]:
    """``sorted(agents, key=natural_key)``.  Plain string ids are sorted
    without a key per id: the decimal ones by value, then the rest as text."""
    agents = list(agents)
    if not set(map(type, agents)) <= {str}:
        return sorted(agents, key=natural_key)
    numeric = sorted(filter(str.isdecimal, agents), key=int)
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
        if isinstance(self.ell, bool) or not isinstance(self.ell, int) or self.ell < 0:
            raise RangeViolation(f"disapproval threshold ell must be an int >= 0, got {self.ell!r}")


@dataclass(frozen=True)
class BeliefOverride:
    """Explicit beliefs for one agent; either side may be omitted."""

    receiver: SecondOrderBelief | None = None
    sender: SecondOrderBelief | None = None

    def apply(self, prof: AgentProfile) -> AgentProfile:
        """``prof`` with the given sides replaced and the omitted ones kept."""
        return replace(
            prof,
            receiver_belief=self.receiver if self.receiver is not None else prof.receiver_belief,
            sender_belief=self.sender if self.sender is not None else prof.sender_belief,
        )


class AgentTable(Mapping[Agent, AgentProfile]):
    """Agents' attributes held as columns, the agents in file order.

    ``theta`` holds the credence of every agent whose type set is one point,
    ``type_sets`` the type set of every other agent, and the ``lam`` and
    ``ell`` lists every agent's sensitivity and disapproval threshold, in
    the order of ``ids``, which is the table's order.  Looking an agent up
    builds her :class:`AgentProfile` (no beliefs) and caches it, so a
    cascade that reads a few agents of a large file builds a few profiles.
    ``repr`` and ``==`` are those of the dict of every profile.  Tables
    share columns, so the columns are never changed; they are checked when
    the table is made, by the parser, :meth:`of` or :meth:`with_lam`.
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

    def with_lam(self, lam: float, agent: Agent | None = None) -> "AgentTable":
        """This table with sensitivity ``lam`` for ``agent``, or for every
        agent when None; the other columns are shared."""
        check_sensitivity(lam)
        other = copy.copy(self)
        if agent is None:
            other.lam = [lam] * len(self.lam)
        else:
            other.lam = self.lam.copy()
            other.lam[self._index[agent]] = lam
        other._built = {}
        return other

    def __getitem__(self, agent: Agent) -> AgentProfile:
        prof = self._built.get(agent)
        if prof is None:
            k = self._index[agent]
            theta = self.theta.get(agent)
            type_set = self.type_sets[agent] if theta is None else TypeSet.singleton(theta)
            prof = self._built[agent] = AgentProfile(type_set, self.lam[k], self.ell[k])
        return prof

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


def _check_tol(tol: float) -> None:
    # the rule the CLI applies to --tolerance; NaN fails the comparison
    if not 0.0 <= tol < math.inf:
        raise RangeViolation(f"tol must be finite and >= 0, got {tol!r}")


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
        # within a room, a missing belief is reported before a malformed one
        for agent, belief in sorted(room, key=lambda item: item[1] is not None):
            peers = [parent] + [sib for sib in tree.children_of(parent) if sib != agent]
            check_receiver_belief(agent, belief, [attrs[p].type_set for p in peers])


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
        checked = [("types", x) for x in dict.fromkeys(profiles.attrs[sender].type_set.hull)]
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
    read from the attribute columns, checked when the table was made, through
    the same arithmetic as the general path, and no belief is built for her,
    so a room of known types with k receivers costs O(k).  A sender's
    belief is looked up only when her gate is open.

    A :class:`RootedView` may stand in for ``tree`` when ``profiles`` are
    override-free known-type :class:`TreeProfiles` on it: then only
    ``root``, ``children_of``, ``is_terminal`` and ``agents`` are read, and
    only for the root and the agents the cascade has reached.
    """
    _check_tol(tol)
    profiles = TreeProfiles.of(tree, profiles)
    _check_profiles(profiles)
    attrs, theta = profiles.attrs, profiles.theta
    row, lams, ells = attrs._index, attrs.lam, attrs.ell

    def solve_room(sender: Agent, receivers: tuple[Agent, ...]) -> ChatroomEquilibrium:
        beliefs = list(map(profiles.receiver_belief, receivers)) if profiles.overrides else [None] * len(receivers)
        if None in beliefs:
            # known-type peers are the sender and the other receivers, at their credences
            parts, k = _exact_parts([theta[sender], *(theta[r] for r in receivers)]), len(receivers)
        eligible: dict[Agent, frozenset[ReceiverAction]] = {}
        centroids: dict[Agent, float] = {}
        for r, belief in zip(receivers, beliefs):
            if belief is None:
                t = centroids[r] = theta[r]
                eligible[r] = known_type_eligible(t, lams[row[r]], math.fsum([*parts, -t]) / k, tol)
            else:
                prof = attrs[r]
                eligible[r] = _eligible(prof.type_set, peer_distance(belief), prof.lam, tol)
                centroids[r] = prof.type_set.centroid
        return fold_room(eligible, centroids)

    receiver_actions: dict[Agent, ReceiverAction] = {}
    sender_actions: dict[Agent, SenderAction] = {}
    room_eqs: dict[Agent, ChatroomEquilibrium] = {}
    multiple: list[Agent] = []
    failing: Agent | None = None

    queue: deque[tuple[Agent, tuple[Agent, ...]]] = deque()  # senders with their receivers

    def decide(agent: Agent, ell: int, disapprovals: int) -> None:
        # a closed gate decides without reading the belief, so none is read for it
        belief, kids = None, ()
        if ell > disapprovals:
            kids = tree.children_of(agent)
            belief = profiles._stated_sender(agent)
        try:
            if belief is None and theta is not None:
                # a known type gains from her audience at their credences
                credences = [theta[kid] for kid in kids]
                gain = lambda tau: known_type_gain(tau, credences, mu, tol)
                decision = send_rule((theta[agent], theta[agent]), gain, mu, ell, disapprovals, tol)
            else:
                type_set = attrs[agent].type_set
                decision = decide_send(type_set, belief, mu, ell, disapprovals, tol)  # type: ignore[arg-type]
        except DomainError as exc:
            room = Chatroom(agent, kids)  # only an open gate reads credences
            raise DomainError(next(credence_errors(profiles, [room], mu, tol))) from exc
        sender_actions[agent] = decision
        if decision is SenderAction.SEND:
            queue.append((agent, kids))

    if not tree.is_terminal(tree.root):
        # nobody gates the root: threshold 1 against zero disapprovals
        decide(tree.root, 1, 0)

    while queue and failing is None:
        sender, receivers = queue.popleft()
        eq = room_eqs[sender] = solve_room(sender, receivers)
        if eq.multiplicity is Multiplicity.NONE:
            failing = sender
            break
        if eq.multiplicity is Multiplicity.MULTIPLE:
            multiple.append(sender)
        assert eq.actions is not None
        receiver_actions.update(eq.actions)
        disapprovals = sum(
            1 for agent in receivers
            if eq.actions[agent] is ReceiverAction.DISAPPROVE
        )
        for agent in receivers:
            if not tree.is_terminal(agent):
                decide(agent, ells[row[agent]], disapprovals)

    exists = failing is None
    return CascadeResult(
        receiver_actions=receiver_actions,
        sender_actions=sender_actions,
        reach=frozenset(chain((tree.root,), receiver_actions)),  # a failing room adds nobody
        exists=exists,
        unique=exists and not multiple,
        multiple_rooms=tuple(multiple),
        failing_room=failing,
        room_equilibria=room_eqs,
    )


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
    _check_tol(tol)
    blocks = _valid_blocks(graph)
    if not blocks.agents:
        return {}
    truth = TreeProfiles(RootedView(blocks, blocks.agents[0]), attrs)  # type: ignore[arg-type]
    out: dict[Agent, CascadeResult] = {}
    for root in blocks.agents:
        view = RootedView(blocks, root)
        out[root] = solve_global(view, truth._reroot(view), mu, tol)  # type: ignore[arg-type]
    return out
