"""Brute-force reference implementations for cross-checking the engine.

Everything here trades speed for directness: best responses are recomputed
from the raw loss formula, support sets are swept on a dense credence grid,
and global equilibria are found by enumerating every assignment of actions
and send decisions and filtering by the defining conditions.  Tests compare
these answers against the closed-form engine; the two sides share only leaf
arithmetic (losses, worldview maps), never search logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Mapping

from .belief import EPS, FLOAT_MAX, EvidenceRelation, check_tol, is_number, worldview_prior
from .chatroom import ChatroomGame
from .errors import InstanceTooLarge, InvariantViolation, RangeViolation
from .network import AgentProfile, CascadeResult, OrderedTree, chatrooms_of
from .receiver import ACTIONS, PeerDistanceProfile, ReceiverAction, check_sensitivity, peer_distance
from .sender import SenderAction, nu_value

Agent = Hashable

#: Canonical assignment: per agent in tree order, (agent, reaction, send),
#: with None for roles the agent never played or parts the message missed.
Assignment = tuple[tuple[Agent, ReceiverAction | None, SenderAction | None], ...]


def _check_step(step: float, what: str) -> None:
    """Grid steps are finite numbers > 0."""
    if not (is_number(step) and 0.0 < step <= FLOAT_MAX):
        raise RangeViolation(f"{what} must be finite and > 0, got {step!r}")


@dataclass(frozen=True)
class GridSpec:
    """Credence grid for sweep-based checks."""

    step: float = 1e-3
    tol: float = EPS

    def __post_init__(self) -> None:
        _check_step(self.step, "step")
        check_tol(self.tol)

    def points(self, lo: float = 0.0, hi: float = 1.0) -> list[float]:
        n = int(round((hi - lo) / self.step))
        return [lo + k * self.step for k in range(n + 1)]


def oracle_best_actions(
    theta: float,
    d: PeerDistanceProfile,
    lam: float,
    tol: float = EPS,
) -> frozenset[ReceiverAction]:
    """Three-way loss comparison straight from the definition."""
    check_tol(tol)
    u = {
        ReceiverAction.DISAPPROVE: -(abs(0.0 - theta) + lam * d.d0),
        ReceiverAction.SILENCE: -(abs(0.5 - theta) + lam * d.d05),
        ReceiverAction.APPROVE: -(abs(1.0 - theta) + lam * d.d1),
    }
    top = max(u.values())
    return frozenset(a for a in ACTIONS if u[a] >= top - tol)


def oracle_support_points(
    action: ReceiverAction,
    d: PeerDistanceProfile,
    lam: float,
    grid: GridSpec = GridSpec(),
) -> tuple[float, ...]:
    """All grid credences at which ``action`` is optimal."""
    return tuple(
        theta
        for theta in grid.points()
        if action in oracle_best_actions(theta, d, lam, grid.tol)
    )


def oracle_min_lambda(
    theta: float,
    d: PeerDistanceProfile,
    target: ReceiverAction,
    lam_hi: float = 20.0,
    step: float = 1e-4,
    tol: float = EPS,
) -> float | None:
    """Smallest grid sensitivity making ``target`` optimal at ``theta``;
    None if none up to ``lam_hi``."""
    try:
        check_sensitivity(lam_hi)
    except RangeViolation:
        raise RangeViolation(f"lam_hi must be finite and >= 0, got {lam_hi!r}") from None
    _check_step(step, "step")
    check_tol(tol)
    steps = int(round(lam_hi / step))
    for k in range(steps + 1):
        lam = k * step
        if target in oracle_best_actions(theta, d, lam, tol):
            return lam
    return None


def oracle_chatroom_profiles(
    game: ChatroomGame,
    tol: float = EPS,
    max_receivers: int = 3,
    max_types: int = 3,
) -> frozenset[tuple[ReceiverAction, ...]]:
    """Every equilibrium action profile, by enumeration.

    A profile (one action per receiver, aligned with ``game.receivers``)
    passes when each receiver's action is a best response at each of her
    types.  Finite type sets only.
    """
    check_tol(tol)
    if len(game.receivers) > max_receivers:
        raise InstanceTooLarge(f"{len(game.receivers)} receivers > {max_receivers}")
    for spec in game.receivers:
        if not spec.type_set.is_finite:
            raise InstanceTooLarge("enumeration needs finite type sets")
        if len(spec.type_set.values) > max_types:  # type: ignore[arg-type]
            raise InstanceTooLarge(f"{len(spec.type_set.values)} types > {max_types}")  # type: ignore[arg-type]

    per_receiver = []
    for spec in game.receivers:
        d = peer_distance(spec.belief)
        per_receiver.append(
            [oracle_best_actions(t, d, spec.lam, tol) for t in spec.type_set.values]  # type: ignore[union-attr]
        )
    out = set()
    for profile in product(ACTIONS, repeat=len(game.receivers)):
        if all(
            all(profile[i] in best for best in bests)
            for i, bests in enumerate(per_receiver)
        ):
            out.add(profile)
    return frozenset(out)


def canonicalize_result(tree: OrderedTree, result: CascadeResult) -> Assignment:
    """Encode a cascade the way :func:`oracle_global` encodes assignments."""
    rows = []
    for agent in tree.agents:
        rows.append(
            (agent, result.receiver_actions.get(agent), result.sender_actions.get(agent))
        )
    return tuple(rows)


def oracle_global(
    tree: OrderedTree,
    profiles: Mapping[Agent, AgentProfile],
    mu: EvidenceRelation,
    tol: float = EPS,
    max_agents: int = 6,
) -> frozenset[Assignment]:
    """All global equilibria of a small cascade, by definition.

    Enumerates every full assignment (a reaction for each non-root, a send
    decision for each non-terminal) and keeps those satisfying, in every
    chatroom: the root sends exactly when her expected gain is positive; a
    non-terminal receiver sends exactly when her disapproval gate is open
    and her expected gain is positive; and wherever the sender sends, each
    receiver's reaction is a best response for each of her types.  Kept
    assignments are reported up to reachability: actions on branches the
    message never enters are blanked, then deduplicated.

    Needs singleton type sets and at most ``max_agents`` agents.
    """
    check_tol(tol)
    agents = tree.agents
    if len(agents) > max_agents:
        raise InstanceTooLarge(f"{len(agents)} agents > {max_agents}")
    for agent in agents:
        if not profiles[agent].type_set.is_singleton:
            raise InvariantViolation("oracle_global needs singleton type sets")

    rooms = chatrooms_of(tree)
    room_of_sender = {room.sender: room for room in rooms}
    non_roots = tuple(a for a in agents if a != tree.root)
    non_terminals = tree.non_terminals
    theta = {a: profiles[a].type_set.value for a in agents}

    best: dict[Agent, frozenset[ReceiverAction]] = {}
    for agent in non_roots:
        prof = profiles[agent]
        if prof.receiver_belief is None:
            raise InvariantViolation(f"agent {agent!r} has no receiver belief")
        d = peer_distance(prof.receiver_belief)
        best[agent] = oracle_best_actions(theta[agent], d, prof.lam, tol)

    gain: dict[Agent, float] = {}
    for agent in non_terminals:
        prof = profiles[agent]
        if prof.sender_belief is None:
            raise InvariantViolation(f"agent {agent!r} has no sender belief")
        tau = worldview_prior(theta[agent], mu, tol)
        atoms = prof.sender_belief.atoms  # the expected gain by its definition, not by the engine's kernel
        gain[agent] = sum(a.weight * sum(nu_value(x, tau, mu, tol) for x in a.profile) for a in atoms)

    found: set[Assignment] = set()
    for reactions in product(ACTIONS, repeat=len(non_roots)):
        r_of = dict(zip(non_roots, reactions))
        for sends in product((SenderAction.SEND, SenderAction.NOSEND), repeat=len(non_terminals)):
            s_of = dict(zip(non_terminals, sends))

            ok = True
            for agent in non_terminals:
                if agent == tree.root:
                    should = gain[agent] > tol
                else:
                    siblings = room_of_sender[tree.parent_of(agent)].receivers
                    disapprovals = sum(
                        1 for s in siblings if r_of[s] is ReceiverAction.DISAPPROVE
                    )
                    gate = profiles[agent].ell - disapprovals
                    should = gate > 0 and gain[agent] > tol
                if (s_of[agent] is SenderAction.SEND) != should:
                    ok = False
                    break
            if not ok:
                continue

            for room in rooms:
                if s_of[room.sender] is SenderAction.SEND:
                    if any(r_of[a] not in best[a] for a in room.receivers):
                        ok = False
                        break
            if not ok:
                continue

            reached = {tree.root}
            frontier = [tree.root]
            while frontier:
                node = frontier.pop()
                if node in s_of and s_of[node] is SenderAction.SEND:
                    for child in tree.children_of(node):
                        reached.add(child)
                        frontier.append(child)

            rows = []
            for agent in agents:
                reaction = r_of[agent] if (agent in reached and agent != tree.root) else None
                send = s_of[agent] if (agent in reached and agent in s_of) else None
                rows.append((agent, reaction, send))
            found.add(tuple(rows))
    return frozenset(found)
