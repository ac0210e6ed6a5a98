"""Block decompositions: the fast accept, lazy rootings and their cost.

``validate_graph`` accepts a graph when its block decomposition shows a
connected, loop-free block graph, and otherwise reads every witness off that
decomposition; ``reach_by_root`` roots the one decomposition lazily at every
agent, and ``root_summaries`` solves each (agent, entry block) room once for
all of them.  These tests check the accept and the witnesses against an
exhaustive enumerator that searches a path per pair of acquaintances, every
lazy rooting and every ``root_tree`` against an independent depth-map walk,
every summary row and every error against the cascades ``reach_by_root``
solves, and count the work a large sweep does.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, deque

import numpy as np
import pytest

from rumorcast import (
    EPS,
    AgentProfile,
    DomainError,
    InvalidGraph,
    InvariantViolation,
    OrderedTree,
    RangeViolation,
    RumorcastError,
    SenderAction,
    SocialGraph,
    TreeProfiles,
    TypeSet,
    reach_by_root,
    root_tree,
    parse_scenario,
    scenario_diagnostics,
    solve_global,
    undirected_closure,
    validate_graph,
)
from rumorcast import network
from rumorcast.cli import main
from rumorcast.network import (
    BlockDecomposition,
    GraphReport,
    GraphViolation,
    RootedView,
    RootSummary,
    natural_sorted,
    root_summaries,
)

from helpers import (
    DEEP_OFF_BAND,
    canonical_attrs,
    canonical_mu,
    canonical_profiles,
    canonical_tree,
    random_tree,
    random_wide_tree,
)


def _closure(rng: np.random.Generator, n_max: int) -> SocialGraph:
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.3:
        return undirected_closure(random_wide_tree(rng, n, int(rng.integers(3, 12))))
    return undirected_closure(random_tree(rng, n))


def _mutate(rng: np.random.Generator, g: SocialGraph) -> SocialGraph:
    """``g`` with one edge dropped inside a block of 3 or more, a chord added
    between two strangers, an isolated agent added, or a self-loop added."""
    edges = list(g.edges())
    blocks = BlockDecomposition(g)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        inner = [(a, b) for a, b in edges if _block_size(blocks, a, b) >= 3]
        if inner:
            edges.pop(edges.index(inner[int(rng.integers(0, len(inner)))]))
    elif kind == 1:
        strangers = [(a, b) for a in g.nodes for b in g.nodes if a < b and not g.adjacent(a, b)]
        if strangers:
            edges.append(strangers[int(rng.integers(0, len(strangers)))])
    elif kind == 2:
        return SocialGraph.from_edges(edges, nodes=g.nodes + ("x",))
    else:
        loop = g.nodes[int(rng.integers(0, len(g.nodes)))]
        edges.append((loop, loop))
    return SocialGraph.from_edges(edges, nodes=g.nodes)


def _tied(rng: np.random.Generator, g: SocialGraph) -> SocialGraph:
    """``g`` relabelled so that ids share natural keys ("1", "01", "001", ...;
    still distinct strings), its agents named in a random order, every edge
    listed in a random orientation and half of them listed again reversed.
    Only the order in which tied ids first appear tells them apart."""
    n = len(g.nodes)
    keys = max(1, n // 3)
    label: dict = {}
    zeros: dict[str, int] = {}
    for i in rng.permutation(n):
        key = str(int(rng.integers(1, keys + 1)))
        zeros[key] = zeros.get(key, -1) + 1
        label[g.nodes[int(i)]] = "0" * zeros[key] + key
    edges = [(label[a], label[b])[:: int(rng.choice([1, -1]))] for a, b in g.edges()]
    again = [(b, a) for a, b in edges if rng.random() < 0.5]
    nodes = [label[g.nodes[int(i)]] for i in rng.permutation(n)]
    return SocialGraph.from_edges(edges + again, nodes=nodes)


def _scatter(rng: np.random.Generator, g: SocialGraph) -> SocialGraph:
    """``g`` beside one to three more small closures, every agent relabelled
    at random so that the components interleave in node order."""
    parts = [g] + [_closure(rng, 6) for _ in range(int(rng.integers(1, 4)))]
    agents = [(p, a) for p, part in enumerate(parts) for a in part.nodes]
    label = dict(zip(agents, (str(int(k) + 1) for k in rng.permutation(len(agents)))))
    edges = [(label[p, a], label[p, b]) for p, part in enumerate(parts) for a, b in part.edges()]
    return SocialGraph.from_edges(edges, nodes=label.values())


def _looped(rng: np.random.Generator, g: SocialGraph) -> SocialGraph:
    """``g`` with self-loops at two or three of its agents."""
    picked = rng.choice(len(g.nodes), min(len(g.nodes), int(rng.integers(2, 4))), replace=False)
    loops = [(g.nodes[int(k)],) * 2 for k in picked]
    return SocialGraph.from_edges(list(g.edges()) + loops, nodes=g.nodes)


def _windmill(rng: np.random.Generator, triangles: int, chords: int) -> SocialGraph:
    """``triangles`` triangles sharing agent "0", and ``chords`` edges
    between agents of two different triangles."""
    edges = []
    for k in range(triangles):
        a, b = str(2 * k + 1), str(2 * k + 2)
        edges += [("0", a), ("0", b), (a, b)]
    while chords:
        a, b = (int(x) for x in rng.integers(1, 2 * triangles + 1, size=2))
        if (a + 1) // 2 != (b + 1) // 2:
            edges.append((str(a), str(b)))
            chords -= 1
    return SocialGraph.from_edges(edges)


def _block_size(blocks: BlockDecomposition, a, b) -> int:
    block = blocks.block_of[a][b]
    return len({x for x, nbrs in blocks.block_of.items() if block in nbrs.values()})


def _connected_avoiding(g: SocialGraph, start, goal, banned) -> bool:
    # path existence in the graph with one agent removed
    if start == banned or goal == banned:
        return False
    queue = deque([start])
    seen = {start, banned}
    while queue:
        node = queue.popleft()
        if node == goal:
            return True
        for nxt in g.adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def _graph_violations(g: SocialGraph) -> tuple[GraphViolation, ...]:
    """Every witness of every kind, in report order, without the blocks: a
    breadth-first search for connectivity, every pair of agents tried for
    shared acquaintances, and a path search around each agent for every
    pair of her acquaintances who are strangers."""
    violations: list[GraphViolation] = []
    for agent in g.loops:
        violations.append(GraphViolation(kind="self-loop", witness=(agent,)))

    nodes = g.nodes
    if nodes:
        start = nodes[0]
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in g.adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        for node in nodes:
            if node not in seen:
                violations.append(GraphViolation(kind="disconnected", witness=(start, node)))
                break

    # strangers with two shared acquaintances
    for idx, i in enumerate(nodes):
        for k in nodes[idx + 1 :]:
            if g.adjacent(i, k):
                continue
            shared = set(g.adjacency[k]) - {i, k}
            common = [j for j in g.adjacency[i] if j in shared]
            if len(common) >= 2:
                violations.append(
                    GraphViolation(kind="overlapping-circles", witness=(i, common[0], common[1], k))
                )

    # unintroduced members of one circle
    for i in nodes:
        nbrs = g.adjacency[i]
        for x, j in enumerate(nbrs):
            for jp in nbrs[x + 1 :]:
                if g.adjacent(j, jp):
                    continue
                if _connected_avoiding(g, j, jp, i):
                    violations.append(GraphViolation(kind="open-circle", witness=(i, j, jp)))

    return tuple(violations)


def test_fast_accept_matches_the_enumerator():
    rng, ties = np.random.default_rng(5005), np.random.default_rng(5105)
    accepted = rejected = 0
    for draw in range(2400):
        g = _closure(rng, 14)
        if draw % 4 == 1:
            g = _tied(ties, g)
        if draw % 3:
            g = _mutate(rng, g)
        witnesses = _graph_violations(g)
        assert BlockDecomposition(g).valid == (not witnesses), (draw, g.edges(), g.loops)
        assert validate_graph(g) == GraphReport(violations=witnesses)
        if not draw % 3:  # a closure is a valid graph, whatever its ids
            assert not witnesses, (draw, witnesses)
        accepted += not witnesses
        rejected += bool(witnesses)
    print(f"2400 graphs: {accepted} accepted, {rejected} rejected alike")
    assert accepted >= 900 and rejected >= 900
    # several components and several self-loops in one graph
    kinds: dict[str, int] = {}
    for draw in range(600):
        g = _scatter(rng, _closure(rng, 12))
        if draw % 2:
            g = _tied(ties, g)
        if draw % 3:
            g = _mutate(rng, g)
        g = _looped(rng, g)
        witnesses = _graph_violations(g)
        assert validate_graph(g) == GraphReport(violations=witnesses), (draw, g.edges(), g.loops)
        for violation in witnesses:
            kinds[violation.kind] = kinds.get(violation.kind, 0) + 1
    print(f"600 scattered graphs: {kinds}")
    assert kinds["disconnected"] >= 500 and kinds["self-loop"] >= 1200  # a chord may join two parts
    assert kinds["open-circle"] >= 100 and kinds["overlapping-circles"] >= 100
    # dense random graphs: many witnesses of each kind around one agent
    for draw in range(300):
        n, p = int(rng.integers(2, 16)), rng.uniform(0.1, 0.6)
        edges = [(str(a), str(b)) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = SocialGraph.from_edges(edges, nodes=[str(a) for a in rng.permutation(n)])
        if draw % 2:
            g = _tied(ties, g)
        assert validate_graph(g) == GraphReport(violations=_graph_violations(g)), (draw, g.edges())
    # windmills with chords: one agent in many blocks, a few of them merged
    mills = np.random.default_rng(5205)
    for draw in range(300):
        g = _windmill(mills, int(mills.integers(2, 12)), int(mills.integers(1, 4)))
        if draw % 2:
            g = _tied(ties, g)
        witnesses = _graph_violations(g)
        assert witnesses and validate_graph(g) == GraphReport(violations=witnesses), (draw, g.edges())


def test_decomposition_needs_no_recursion():
    # a path of 5,000 agents: depth-first search 5,000 deep
    n = 5000
    g = SocialGraph.from_edges([(str(i), str(i + 1)) for i in range(1, n)])
    blocks = BlockDecomposition(g)
    assert blocks.valid
    assert max(blocks.block_count.values()) == 2


def _walk(view) -> list:
    """Agents of ``view`` breadth-first, listing each one's children once."""
    order, frontier = [view.root], [view.root]
    while frontier:
        frontier = [kid for agent in frontier for kid in view.children_of(agent)]
        order += frontier
    return order


def _depth_walk(g: SocialGraph, root) -> OrderedTree:
    """``g`` oriented away from ``root`` without its blocks: each agent's
    parent is her unique acquaintance one layer closer to the root, children
    in the graph's node order.  Valid graphs only."""
    depth, parent, edges = {root: 0}, {}, []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nxt in g.adjacency[node]:
            if nxt not in depth:
                depth[nxt] = depth[node] + 1
                parent[nxt] = node
                edges.append((node, nxt))
                queue.append(nxt)
            else:  # a second acquaintance one layer up would mean overlapping circles
                assert depth[nxt] != depth[node] - 1 or parent[node] == nxt, (root, node)
    return OrderedTree.from_edges(root, edges)


def test_lazy_rootings_match_root_tree():
    rng, ties = np.random.default_rng(5006), np.random.default_rng(5106)
    checked = 0
    for draw in range(30):
        n = int(rng.integers(2, 45))
        tree = random_wide_tree(rng, n, int(rng.integers(0, 16))) if draw % 2 else random_tree(rng, n)
        g = undirected_closure(tree)
        if draw % 3 == 2:
            g = _tied(ties, g)
        blocks = BlockDecomposition(g)
        for root in g.nodes:
            want = _depth_walk(g, root)
            assert root_tree(g, root) == want, (draw, root)
            view = RootedView(blocks, root)
            assert _walk(view) == list(want.agents), (draw, root)
            for agent in want.agents:
                assert view.children_of(agent) == want.children_of(agent), (draw, root, agent)
                assert view.parent_of(agent) == want.parent_of(agent), (draw, root, agent)
                assert view.is_terminal(agent) == want.is_terminal(agent), (draw, root, agent)
                checked += 1
    print(f"{checked} rooted agents checked")
    assert checked >= 10_000


def test_rooted_view_refuses_strangers():
    blocks = BlockDecomposition(undirected_closure(canonical_tree()))
    with pytest.raises(InvalidGraph):
        RootedView(blocks, "99")
    with pytest.raises(KeyError):
        RootedView(blocks, "1").children_of("99")


def test_large_sweep_never_enumerates_and_roots_once(monkeypatch, tmp_path, capsys):
    rng = np.random.default_rng(5007)
    g = undirected_closure(random_tree(rng, 2000))
    path = tmp_path / "closure.json"
    path.write_text(json.dumps({
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "graph", "edges": [list(e) for e in g.edges()]},
        "agents": {a: {"types": float(rng.uniform(0.12, 0.88)), "lambda": 1.0} for a in g.nodes},
        "beliefs": "dirac-truth",
    }), encoding="utf-8")
    enumerations, decompositions = [], []
    enumerate_all = network._graph_violations
    monkeypatch.setattr(
        network, "_graph_violations", lambda g, blocks: enumerations.append(g) or enumerate_all(g, blocks)
    )

    class Counted(BlockDecomposition):
        def __init__(self, g: SocialGraph) -> None:
            decompositions.append(g)
            super().__init__(g)

    monkeypatch.setattr(network, "BlockDecomposition", Counted)
    assert validate_graph(g).ok
    for argv, rows in ((["sweep-root"], 2000), (["solve", "--root", "1"], 2001)):
        decompositions.clear()
        assert main([argv[0], str(path), *argv[1:], "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == rows + 1  # and a header
        assert len(decompositions) == 1, argv  # one decomposition roots every rooting
    assert enumerations == []
    # a graph that fails the fast accept is enumerated, for its witnesses
    bad = SocialGraph.from_edges(list(undirected_closure(canonical_tree()).edges()) + [("1", "1")])
    with pytest.raises(InvalidGraph, match="self-loop witness"):
        reach_by_root(bad, canonical_attrs(), canonical_mu())
    assert len(enumerations) == 1


def test_large_invalid_graph_is_refused_in_seconds(tmp_path, capsys):
    # the closure of a 20,000-agent tree with three chords between strangers,
    # each closing circles that no room introduces
    rng = np.random.default_rng(5008)
    g = undirected_closure(random_tree(rng, 20_000))
    chords = []
    while len(chords) < 3:
        a, b = (str(int(k)) for k in rng.integers(1, 20_001, size=2))
        if a != b and not g.adjacent(a, b):
            chords.append([a, b])
    path = tmp_path / "chords.json"
    path.write_text(json.dumps({
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "graph", "edges": [list(e) for e in g.edges()] + chords},
        "agents": {a: {"types": 0.5, "lambda": 1.0} for a in g.nodes},
        "beliefs": "dirac-truth",
    }), encoding="utf-8")
    for argv in (["validate"], ["solve", "--root", "1"]):
        start = time.perf_counter()
        assert main([argv[0], str(path), *argv[1:]]) == 1, argv
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, (argv, elapsed)
    witnesses = capsys.readouterr()
    assert "open-circle" in witnesses.out
    assert witnesses.err.startswith("error: graph cannot generate a tree: ")


def test_windmill_with_a_chord_is_validated_in_seconds(tmp_path, capsys):
    # 8,000 triangles at one centre and one chord between two of them: the
    # centre has 16,000 acquaintances, all but four in blocks of three.
    # Scanning every acquaintance's acquaintances took 32 s on a 2-vCPU
    # Xeon; the scan inside blocks takes well under a second.
    g = _windmill(np.random.default_rng(5209), 8000, 1)
    path = tmp_path / "windmill.json"
    path.write_text(json.dumps({
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "graph", "edges": [list(e) for e in g.edges()]},
        "agents": {a: {"types": 0.5, "lambda": 1.0} for a in g.nodes},
        "beliefs": "dirac-truth",
    }), encoding="utf-8")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7 and all(" witness (" in row for row in rows), rows


def test_sweep_reports_the_first_bad_agent_in_node_order():
    # from root 1 the breadth-first order is 1, 10, 2; node order puts 2 first,
    # and validate names the first bad agent in node order too
    g = SocialGraph.from_edges([("1", "10"), ("10", "2")])
    attrs = {a: AgentProfile(type_set=TypeSet.finite([0.3, 0.4]), lam=1.0) for a in ("10", "2")}
    attrs["1"] = AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0)
    with pytest.raises(InvariantViolation, match="agent '2'"):
        reach_by_root(g, attrs, canonical_mu())
    del attrs["10"]
    attrs["2"] = attrs["1"]
    with pytest.raises(InvariantViolation, match="no profile for agent '10'"):
        reach_by_root(g, attrs, canonical_mu())


@pytest.mark.parametrize("tol", [math.nan, -5.0, math.inf])
def test_tolerance_checked_at_entry(tol):
    with pytest.raises(RangeViolation, match="tol"):
        solve_global(canonical_tree(), canonical_profiles(), canonical_mu(), tol)
    with pytest.raises(RangeViolation, match="tol"):
        reach_by_root(undirected_closure(canonical_tree()), canonical_attrs(), canonical_mu(), tol)
    with pytest.raises(RangeViolation, match="tol"):
        scenario_diagnostics("{}", tol)


def test_each_sender_is_asked_for_her_children_once(monkeypatch):
    asked = []
    children_of = RootedView.children_of
    monkeypatch.setattr(
        RootedView, "children_of", lambda view, agent: asked.append((view.root, agent)) or children_of(view, agent)
    )
    sweep = reach_by_root(undirected_closure(canonical_tree()), canonical_attrs(), canonical_mu())
    assert sweep["1"].reach_count == 10
    assert max(Counter(asked).values()) == 1


def test_rooted_view_answers_only_for_listed_agents():
    # canonical tree: 1 -> 2, 3, 4; 2 -> 5, 6; 3 -> 7, 8; 4 -> 9, 10
    view = RootedView(BlockDecomposition(undirected_closure(canonical_tree())), "1")
    assert view.parent_of("1") is None
    with pytest.raises(KeyError):
        view.parent_of("5")
    with pytest.raises(KeyError):
        view.children_of("2")
    assert view.children_of("1") == ("2", "3", "4")
    assert (view.parent_of("2"), view.children_of("2")) == ("1", ("5", "6"))
    assert view.parent_of("5") == "2"


def _summary(result) -> RootSummary:
    """The row ``sweep-root`` reports of one cascade, read off the cascade."""
    no_send = [a for a in natural_sorted(result.sender_actions) if result.send_of(a) is SenderAction.NOSEND]
    return RootSummary(result.reach_count, result.unique, no_send)


def _open_windmill(rng: np.random.Generator, dyadic: bool) -> tuple[SocialGraph, dict]:
    """A windmill whose centre, at a high credence with threshold 3, sends
    into rooms that hold every other triangle: her rooms open."""
    g = _windmill(rng, int(rng.integers(2, 40)), 0)
    grid = [0.625, 0.75, 0.875]
    attrs = {
        a: AgentProfile(
            type_set=TypeSet.singleton(float(rng.choice(grid)) if dyadic else float(rng.uniform(0.6, 0.85))),
            lam=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            ell=2,
        )
        for a in g.nodes
    }
    attrs["0"] = AgentProfile(type_set=TypeSet.singleton(0.88), lam=1.0, ell=3)
    return g, attrs


def _known_types(rng: np.random.Generator, g: SocialGraph, dyadic: bool) -> dict:
    grid = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]  # dyadic credences, for exact ties
    return {
        a: AgentProfile(
            type_set=TypeSet.singleton(float(rng.choice(grid)) if dyadic else float(rng.uniform(0.12, 0.88))),
            lam=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0, float(rng.uniform(0.0, 8.0))])),
            ell=int(rng.integers(0, 3)),
        )
        for a in g.nodes
    }


def test_known_type_sweeps_never_fail_a_room():
    # a receiver with one type always has a best response, so under known-type
    # beliefs no room of any rooting lacks an equilibrium; sweep-root reports
    # every cascade as existing, with no failing room, on the strength of this
    rng = np.random.default_rng(5015)
    mu, roots = canonical_mu(), 0
    for draw in range(240):
        g = _closure(rng, 30)
        attrs = _known_types(rng, g, dyadic=bool(draw % 2))
        sweep = reach_by_root(g, attrs, mu)
        for root, result in sweep.items():
            assert result.exists and result.failing_room is None, (draw, root)
            roots += 1
        assert list(root_summaries(g, attrs, mu).items()) == [(r, _summary(c)) for r, c in sweep.items()], draw
    assert roots >= 2_000
    assert reach_by_root(SocialGraph.from_edges([]), {}, mu) == {}
    assert root_summaries(SocialGraph.from_edges([]), {}, mu) == {}


def test_root_summaries_match_the_cascades_of_reach_by_root():
    # random closures and open windmills, half on dyadic credences for exact
    # ties, some closures with ids that tie in natural order, at two tolerances
    rng, ties = np.random.default_rng(5321), np.random.default_rng(5331)
    mu = canonical_mu()
    roots = multiple = 0
    for draw in range(180):
        dyadic = bool(draw % 2)
        if draw % 3 == 2:
            g, attrs = _open_windmill(rng, dyadic)
        else:
            g = _closure(rng, 30)
            if draw % 4 == 3:
                g = _tied(ties, g)
            attrs = _known_types(rng, g, dyadic)
        for tol in (0.0, EPS):
            expected = [(root, _summary(result)) for root, result in reach_by_root(g, attrs, mu, tol).items()]
            assert list(root_summaries(g, attrs, mu, tol).items()) == expected, (draw, tol)
            roots += len(expected)
            multiple += sum(not row.unique for _, row in expected)
    assert roots >= 2_000 and multiple >= 500, (roots, multiple)


def _glued_cliques(rng: np.random.Generator) -> SocialGraph:
    """A chain of cliques of 2 to 6 agents, each sharing one of its new agents with the next."""
    edges, glued, fresh = [], 1, 2
    for _ in range(int(rng.integers(1, 8))):
        members = [glued] + list(range(fresh, fresh + int(rng.integers(1, 6))))
        edges += [(str(a), str(b)) for i, a in enumerate(members) for b in members[i + 1:]]
        glued, fresh = members[int(rng.integers(1, len(members)))], members[-1] + 1
    return SocialGraph.from_edges(edges)


def _rarely_off_band(rng: np.random.Generator, g: SocialGraph) -> dict:
    """Known types in the band at every tolerance tried, save about 2/n agents
    (never the first) off it, some of them only once it narrows by 0.05."""
    n = len(g.nodes)
    off = {a for a in g.nodes[1:] if rng.random() < 2 / n}
    return {
        a: AgentProfile(
            type_set=TypeSet.singleton(
                float(rng.choice([0.02, 0.05, 0.12, 0.88, 0.95])) if a in off else float(rng.uniform(0.16, 0.84))
            ),
            lam=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
            ell=int(rng.choice([1, 2, 3, 5, 9])),
        )
        for a in g.nodes
    }


def _outcome(sweep):
    try:
        return sweep()
    except RumorcastError as exc:
        return type(exc), str(exc)


def test_root_summaries_raise_what_reach_by_root_raises():
    # rare off-band credences sit deep in some cascade: the sweep names the one
    # the first failing root's cascade reads first, breadth first
    rng, mu = np.random.default_rng(5351), canonical_mu()
    raised = 0
    for draw in range(900):
        kind = draw % 3
        if kind == 0:
            g = _closure(rng, 30)
        elif kind == 1:
            g = _windmill(rng, int(rng.integers(2, 12)), 0)
        else:
            g = _glued_cliques(rng)
        attrs = _rarely_off_band(rng, g)
        for tol in (0.0, EPS, 0.05):
            expected = _outcome(
                lambda: [(root, _summary(result)) for root, result in reach_by_root(g, attrs, mu, tol).items()]
            )
            assert _outcome(lambda: list(root_summaries(g, attrs, mu, tol).items())) == expected, (draw, tol)
            raised += isinstance(expected, tuple)
    assert raised >= 1_000, raised


def test_a_sweep_names_the_off_band_credence_its_first_failing_root_reads_first():
    scenario = parse_scenario(json.dumps(DEEP_OFF_BAND))
    said = "agent '5': sender belief: credence 0.05 outside the open interval (0.1, 0.9)"
    for sweep in (reach_by_root, root_summaries):
        with pytest.raises(DomainError) as exc:
            sweep(scenario.graph(), scenario.attrs, scenario.evidence)
        assert str(exc.value) == said, sweep


def test_a_sweep_folds_each_room_and_makes_each_open_gate_decision_once(monkeypatch):
    folded: Counter = Counter()
    decided: Counter = Counter()
    room_peers, decide = network._room_peers, network._decide
    monkeypatch.setattr(
        network, "_room_peers",
        lambda profiles, sender, receivers: folded.update([(sender, receivers)])
        or room_peers(profiles, sender, receivers),
    )
    monkeypatch.setattr(
        network, "_decide",
        lambda profiles, agent, kids, mu, ell, disapprovals, tol: decided.update([(agent, kids, ell > disapprovals)])
        or decide(profiles, agent, kids, mu, ell, disapprovals, tol),
    )
    rng, mu = np.random.default_rng(5341), canonical_mu()
    ours = theirs = 0
    for draw in range(60):
        if draw % 2:
            g, attrs = _open_windmill(rng, dyadic=False)
        else:
            g = _closure(rng, 30)
            attrs = _known_types(rng, g, dyadic=False)
        folded.clear()
        decided.clear()
        root_summaries(g, attrs, mu)
        # an (agent, entry block) pair has one audience, so these keys are those pairs
        assert max(folded.values(), default=1) == 1, draw
        assert max(decided.values(), default=1) == 1, draw
        assert all(is_open for _, _, is_open in decided), draw
        ours += folded.total()
        folded.clear()
        reach_by_root(g, attrs, mu)
        theirs += folded.total()
    assert ours < theirs, (ours, theirs)  # the per-root cascades fold some rooms again


def test_a_cascade_deeper_than_the_recursion_limit():
    # a path with one pendant agent at each of its agents: from every agent of
    # the path, the message runs its whole length.  Each room of the path holds
    # the next agent of the path and a pendant agent far below in credence, whom
    # a sender gains more by reaching than she loses on her like-minded peer
    # (a bare path carries no message both ways: a known type sends to one
    # receiver only when the receiver's credence is well below her own)
    n = sys.getrecursionlimit() + 200
    path = [str(k) for k in range(1, n + 1)]
    pendant = [str(n + k) for k in range(1, n + 1)]
    g = SocialGraph.from_edges(list(zip(path, path[1:])) + list(zip(path, pendant)))
    attrs = {a: AgentProfile(type_set=TypeSet.singleton(0.7), lam=1.0, ell=4) for a in path}
    attrs.update({a: AgentProfile(type_set=TypeSet.singleton(0.3), lam=1.0) for a in pendant})
    mu = canonical_mu()
    rows = root_summaries(g, attrs, mu)
    assert [rows[a].reach_count for a in path] == [2 * n] * n
    for root in (path[0], path[n // 2], path[-1]):
        tree = root_tree(g, root)
        assert rows[root] == _summary(solve_global(tree, TreeProfiles(tree, attrs), mu)), root
