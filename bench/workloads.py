"""Seeded scenario generators for the four benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns a plain
scenario document (the JSON shape ``rumorcast.scenario`` parses), so the
program under test sees nothing but the written file.  The same seed gives
byte-identical files.  Each workload also has a toy size (at most six
agents) built by the same generator, small enough for
``rumorcast.oracle.oracle_global``.

Credence bands pin each workload's mechanism:

- ``deep_tree``: the root's credence sits just under ``mu_given_c``, where
  her send gain is positive against any admissible child, so the root sends;
  agents below the fourth level never send, so the message reaches well
  under 1% of the tree.
- ``wide_sweep``: the root is pinned the same way and both hubs at ``HUB``,
  and the hubs' thresholds exceed the root room's size, so both hub rooms
  open at every swept sensitivity.
- ``interval_senders``: every sender's interval sits above her audience's
  credences and no receiver in the root's room disapproves, so every sender
  sends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

MU_C, MU_NOT_C = 0.9, 0.1
#: Admissible credences drawn for ordinary agents: the open evidence band
#: shrunk by 0.02 at each end, as in the repository's test helpers.
BAND = (0.12, 0.88)
#: A sender at this credence gains from sending to any agent in ``BAND``.
HIGH = 0.895
#: A sender here gains from sending to a typical audience drawn from ``BAND``,
#: and a sender at ``HIGH`` gains from sending to her.
HUB = 0.85
SWEEP_LAMBDAS = "0.5,1,1.5,2"


def _num(x: float) -> float:
    return round(float(x), 6)


def _document(name: str, edges, agents: dict, beliefs: Any, kind: str = "tree") -> dict:
    topology: dict[str, Any] = {"kind": kind}
    if kind == "tree":
        topology["root"] = "1"
    topology["edges"] = [[p, c] for p, c in edges]
    return {
        "name": name,
        "evidence": {"mu_given_c": MU_C, "mu_given_not_c": MU_NOT_C},
        "topology": topology,
        "agents": agents,
        "beliefs": beliefs,
    }


def _plain_agent(rng: np.random.Generator) -> dict:
    return {
        "types": _num(rng.uniform(*BAND)),
        "lambda": _num(rng.uniform(0.0, 2.0)),
        "ell": int(rng.choice((1, 2, 3))),
    }


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[str, str]]:
    """Random recursive tree: agent k attaches to a uniform earlier agent."""
    return [(str(int(rng.integers(0, k)) + 1), str(k + 1)) for k in range(1, n)]


def deep_tree(rng: np.random.Generator, n: int = 50_000, arity: int = 4, send_depth: int = 3) -> dict:
    """Complete ``arity``-ary tree on ``n`` agents with dirac-truth beliefs.

    Agents deeper than ``send_depth`` have threshold 0, so they never send:
    the message reaches at most the top ``send_depth + 1`` levels below the
    root (341 agents for the defaults), whatever the seed.
    """
    edges = [(str((k - 1) // arity + 1), str(k + 1)) for k in range(1, n)]
    agents = {str(k + 1): _plain_agent(rng) for k in range(n)}
    agents["1"]["types"] = HIGH
    may_send = sum(arity**d for d in range(send_depth + 1))
    for k in range(may_send, n):
        agents[str(k + 1)]["ell"] = 0
    return _document("deep-tree", edges, agents, "dirac-truth")


def wide_sweep(rng: np.random.Generator, hubs: int = 2, leaves: int = 400) -> dict:
    """Root -> ``hubs`` hubs -> ``leaves`` receivers each, dirac-truth."""
    edges = []
    agents = {"1": {"types": HIGH, "lambda": _num(rng.uniform(0.0, 2.0)), "ell": 1}}
    next_id = hubs + 2
    for h in range(2, hubs + 2):
        edges.append(("1", str(h)))
        agents[str(h)] = {"types": HUB, "lambda": _num(rng.uniform(0.0, 2.0)), "ell": hubs + 1}
    for h in range(2, hubs + 2):
        for _ in range(leaves):
            edges.append((str(h), str(next_id)))
            agents[str(next_id)] = _plain_agent(rng)
            next_id += 1
    return _document("wide-sweep", edges, agents, "dirac-truth")


def block_sweep(rng: np.random.Generator, n: int = 300, shape_seed: int = 0) -> dict:
    """Acquaintance graph: the clique closure of a random recursive tree.

    Every room (an agent and her children) becomes a clique, so the graph is
    a block graph and every agent is a valid root.  The sweep's cost grows
    with the sum of squared block sizes, which varies widely between random
    trees, so the tree is drawn once from ``shape_seed``; ``rng`` relabels
    its agents and draws their attributes.
    """
    label = [str(k + 1) for k in rng.permutation(n)]
    children: dict[str, list[str]] = {}
    for p, c in random_tree_edges(np.random.default_rng(shape_seed), n):
        children.setdefault(label[int(p) - 1], []).append(label[int(c) - 1])
    edges = []
    for sender, kids in children.items():
        members = [sender] + kids
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.append((members[i], members[j]))
    agents = {str(k + 1): _plain_agent(rng) for k in range(n)}
    return _document("block-sweep", edges, agents, "dirac-truth", kind="graph")


def _interval(rng: np.random.Generator, lo: float, hi: float, width: float):
    start = _num(rng.uniform(lo, hi - width))
    return {"interval": [start, _num(start + width)]} if width > 0 else start


def _bounds(types) -> tuple[float, float]:
    if isinstance(types, dict):
        return tuple(types["interval"])  # type: ignore[return-value]
    return types, types


def _atoms(rng: np.random.Generator, peer_bounds, n_atoms: int) -> dict:
    weights = rng.uniform(0.1, 1.0, size=n_atoms)
    weights = weights / weights.sum()
    atoms = []
    for w in weights:
        profile = [_num(lo + (hi - lo) * rng.uniform()) if hi > lo else lo for lo, hi in peer_bounds]
        atoms.append({"profile": profile, "weight": float(w)})
    # the last weight absorbs the rounding, so the weights sum to 1
    atoms[-1]["weight"] = float(1.0 - sum(a["weight"] for a in atoms[:-1]))
    return {"atoms": atoms}


def interval_senders(
    rng: np.random.Generator,
    receivers: int = 60,
    grandkids: int = 4,
    root_atoms: int = 5,
    width: float = 0.05,
) -> dict:
    """Interval-type senders with explicit multi-atom beliefs.

    The root (types in [0.80, 0.895]) sends to ``receivers`` agents with
    credences in [0.45, 0.75]; each of them sends to ``grandkids`` agents
    with credences in [0.12, 0.20].  Senders sit above their audiences, so
    every sender's gain is positive.  Root-room receivers are strongly
    peer-pressured (sensitivity 4 to 6) and their peers average near 0.6, so
    silence is optimal across each whole type interval; grandchildren are
    barely pressured and sit below 0.22, so disapproval is.  No room fails.
    With ``width == 0`` every type set is a singleton, which is how the toy
    size stays within the oracle's reach.
    """
    agents: dict[str, dict] = {
        "1": {"types": _interval(rng, 0.80, HIGH, HIGH - 0.80 if width > 0 else 0.0),
              "lambda": 1.0, "ell": 1},
    }
    edges = []
    kids = [str(k + 2) for k in range(receivers)]
    families: dict[str, list[str]] = {}
    next_id = receivers + 2
    for agent in kids:
        edges.append(("1", agent))
        agents[agent] = {
            "types": _interval(rng, 0.45, 0.75, width),
            "lambda": _num(rng.uniform(4.0, 6.0)),
            "ell": 1,
        }
        families[agent] = [str(next_id + g) for g in range(grandkids)]
        next_id += grandkids
    for agent in kids:
        for leaf in families[agent]:
            edges.append((agent, leaf))
            agents[leaf] = {
                "types": _interval(rng, BAND[0], 0.20, width / 2),
                "lambda": _num(rng.uniform(0.0, 0.2)),
                "ell": 1,
            }

    bounds = {a: _bounds(spec["types"]) for a, spec in agents.items()}
    beliefs: dict[str, dict] = {"1": {"sender": _atoms(rng, [bounds[k] for k in kids], root_atoms)}}
    for agent in kids:
        peers = ["1"] + [k for k in kids if k != agent]
        family = families[agent]
        beliefs[agent] = {
            "receiver": _atoms(rng, [bounds[p] for p in peers], 2),
            "sender": _atoms(rng, [bounds[g] for g in family], 3),
        }
        for leaf in family:
            peers = [agent] + [g for g in family if g != leaf]
            beliefs[leaf] = {"receiver": _atoms(rng, [bounds[p] for p in peers], 2)}
    return _document("interval-senders", edges, agents, {"default": "none", "agents": beliefs})


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its generators and its CLI command.

    Sizes and the reason for each workload are in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    build: Callable[[np.random.Generator], dict]
    build_toy: Callable[[np.random.Generator], dict]
    argv: Callable[[str], list[str]]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="deep_tree",
            build=deep_tree,
            build_toy=lambda rng: deep_tree(rng, n=6),
            argv=lambda path: ["solve", path, "--format", "json-lines"],
        ),
        Workload(
            name="wide_sweep",
            build=wide_sweep,
            build_toy=lambda rng: wide_sweep(rng, hubs=2, leaves=1),
            argv=lambda path: [
                "sweep-lambda", path, "--agent", "all", "--lambdas", SWEEP_LAMBDAS,
                "--format", "json-lines",
            ],
        ),
        Workload(
            name="block_sweep",
            build=block_sweep,
            build_toy=lambda rng: block_sweep(rng, n=6),
            argv=lambda path: ["sweep-root", path, "--format", "json-lines"],
        ),
        Workload(
            name="interval_senders",
            build=interval_senders,
            build_toy=lambda rng: interval_senders(rng, receivers=2, grandkids=1, width=0.0),
            argv=lambda path: ["solve", path, "--format", "json-lines"],
        ),
    )
}


def scenario_text(workload: Workload, seed: int, toy: int | None = None) -> str:
    """The scenario file for ``workload`` at ``seed``, as byte-stable text.

    ``toy`` selects the toy-size instance with that index instead.
    """
    if toy is None:
        doc = workload.build(np.random.default_rng(seed))
    else:
        doc = workload.build_toy(np.random.default_rng([seed, toy]))
    return json.dumps(doc) + "\n"
