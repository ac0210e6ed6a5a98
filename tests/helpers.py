"""Shared builders for randomized and canonical test instances."""

from __future__ import annotations

import numpy as np

from rumorcast import (
    AgentProfile,
    EvidenceRelation,
    OrderedTree,
    SecondOrderBelief,
    TypeSet,
    dirac_truth_profiles,
    validate_evidence,
)
from rumorcast.chatroom import ChatroomGame, ReceiverSpec

CANONICAL_THETA = {
    "1": 0.5,
    "2": 0.26,
    "3": 0.26,
    "4": 0.74,
    "5": 0.14,
    "6": 0.14,
    "7": 0.14,
    "8": 0.14,
    "9": 0.30,
    "10": 0.30,
}

CANONICAL_EDGES = [
    ("1", "2"),
    ("1", "3"),
    ("1", "4"),
    ("2", "5"),
    ("2", "6"),
    ("3", "7"),
    ("3", "8"),
    ("4", "9"),
    ("4", "10"),
]


def canonical_mu() -> EvidenceRelation:
    return validate_evidence(0.9, 0.1)


def canonical_tree() -> OrderedTree:
    return OrderedTree.from_edges("1", CANONICAL_EDGES)


def canonical_attrs(lam: float = 1.0, ell: int = 1) -> dict:
    return {
        a: AgentProfile(type_set=TypeSet.singleton(t), lam=lam, ell=ell)
        for a, t in CANONICAL_THETA.items()
    }


def canonical_profiles() -> dict:
    return dirac_truth_profiles(canonical_tree(), canonical_attrs())


def random_evidence(rng: np.random.Generator) -> EvidenceRelation:
    lo = rng.uniform(0.02, 0.45)
    hi = rng.uniform(lo + 0.1, 0.98)
    return validate_evidence(hi, lo)


def random_belief(rng: np.random.Generator, dim: int, lo: float = 0.0, hi: float = 1.0) -> SecondOrderBelief:
    """Random finite-support belief with profile coordinates in [lo, hi]."""
    n_atoms = int(rng.integers(1, 4))
    weights = rng.uniform(0.1, 1.0, size=n_atoms)
    weights = weights / weights.sum()
    atoms = [
        (rng.uniform(lo, hi, size=dim).tolist(), float(w))
        for w in weights
    ]
    return SecondOrderBelief.mixture(atoms)


def random_tree(rng: np.random.Generator, n: int) -> OrderedTree:
    """Uniform random parent assignment: agent k attaches to some earlier one."""
    names = [str(i + 1) for i in range(n)]
    edges = []
    for k in range(1, n):
        parent = names[int(rng.integers(0, k))]
        edges.append((parent, names[k]))
    return OrderedTree.from_edges(names[0], edges)


def random_wide_tree(rng: np.random.Generator, n: int, wide: int) -> OrderedTree:
    """``random_tree(rng, n)`` with ``wide`` more receivers in one random
    agent's room, ids shuffled so that their order says nothing of the shape."""
    base = random_tree(rng, n)
    hub = base.agents[int(rng.integers(0, n))]
    edges = list(base.edges()) + [(hub, str(n + 1 + i)) for i in range(wide)]
    label = {str(i + 1): str(int(j) + 1) for i, j in enumerate(rng.permutation(n + wide))}
    return OrderedTree.from_edges(label[base.root], [(label[p], label[c]) for p, c in edges])


def random_dirac_instance(
    rng: np.random.Generator,
    n_min: int = 3,
    n_max: int = 6,
    theta_lo: float | None = None,
    theta_hi: float | None = None,
    lam_hi: float = 4.0,
    ell_choices: tuple[int, ...] = (0, 1, 2, 3),
):
    """Random small cascade instance with singleton types and truth beliefs.

    Returns (tree, profiles, mu).  Credences keep a safety margin inside the
    evidence band so no draw sits on a domain boundary.
    """
    mu = random_evidence(rng)
    n = int(rng.integers(n_min, n_max + 1))
    tree = random_tree(rng, n)
    lo = mu.mu_given_not_c + 0.02 if theta_lo is None else theta_lo
    hi = mu.mu_given_c - 0.02 if theta_hi is None else theta_hi
    attrs = {}
    for agent in tree.agents:
        attrs[agent] = AgentProfile(
            type_set=TypeSet.singleton(float(rng.uniform(lo, hi))),
            lam=float(rng.uniform(0.0, lam_hi)),
            ell=int(rng.choice(ell_choices)),
        )
    return tree, dirac_truth_profiles(tree, attrs), mu


def random_chatroom_game(rng: np.random.Generator) -> ChatroomGame:
    """Random finite-type chatroom within the oracle's enumeration caps."""
    n_recv = int(rng.integers(1, 4))
    sender_types = TypeSet.finite(sorted(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 4)))))
    type_sets = [
        TypeSet.finite(sorted(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 4)))))
        for _ in range(n_recv)
    ]
    names = [f"r{i}" for i in range(n_recv)]
    specs = []
    for i in range(n_recv):
        peer_sets = [sender_types] + [type_sets[j] for j in range(n_recv) if j != i]
        n_atoms = int(rng.integers(1, 4))
        weights = rng.uniform(0.1, 1.0, size=n_atoms)
        weights = weights / weights.sum()
        atoms = []
        for w in weights:
            profile = [float(rng.choice(ts.values)) for ts in peer_sets]
            atoms.append((profile, float(w)))
        specs.append(
            ReceiverSpec(
                agent=names[i],
                type_set=type_sets[i],
                lam=float(rng.uniform(0.0, 5.0)),
                belief=SecondOrderBelief.mixture(atoms),
            )
        )
    return ChatroomGame(sender="s", sender_types=sender_types, receivers=tuple(specs))


# Scenario files that hold no JSON value Python can build: not UTF-8 text,
# nested past the interpreter's recursion limit, and an integer past its
# int-string digit limit.  Every command must refuse each as a parse error.
UNREADABLE_DOCUMENTS = {
    "not-utf-8": b'{"name": "caf\xe9"}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "integer-of-5000-digits": b'{"name": ' + b"7" * 5000 + b"}",
}


# A graph scenario: root 1 does not send; from root 2 the message reaches
# agents 3 and 4, whose receivers 5 and 6 each send to an agent off the band.
# Breadth first, agent 5 decides before agent 6.
DEEP_OFF_BAND = {
    "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
    "topology": {
        "kind": "graph",
        "edges": [["1", "2"], ["2", "3"], ["2", "4"], ["3", "5"], ["4", "6"], ["5", "7"], ["6", "8"]],
    },
    "agents": {
        a: {"types": t, "lambda": 1.0, "ell": 3}
        for a, t in zip("12345678", (0.8, 0.85, 0.5, 0.5, 0.2, 0.2, 0.05, 0.05))
    },
    "beliefs": "dirac-truth",
}
