"""Scenario entry against the code it replaced, on fuzzed input.

The parser builds no field path on its success path, ``OrderedTree`` checks
its edges in bulk and looks for the offending edge only on failure, and
``natural_sorted`` sorts string ids without a key per id.  Each is compared
here with a copy of the code it replaced (the ``_ref_*`` functions below,
kept as they were): both must give equal results, or raise the same
exception type with the same message.

The agents' table and the explicit beliefs are checked in passes over the
whole file, and the per-agent path runs only to name the first bad entry.
Whole files of up to 8 agents (points, intervals and lists of credences;
dirac and atoms beliefs on both sides), clean or with one odd value planted
anywhere, hold both passes to the references.
"""

from __future__ import annotations

import math
from collections import deque
from decimal import Decimal
from typing import Any, Mapping

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorcast.chatroom import TypeSet
from rumorcast.errors import InvalidGraph, RumorcastError, SchemaError
from rumorcast.network import (
    AgentProfile,
    BeliefOverride,
    OrderedTree,
    SocialGraph,
    natural_key,
    natural_sorted,
)
from rumorcast.receiver import SecondOrderBelief
from rumorcast.scenario import (
    DIRAC_TRUTH,
    Topology,
    _at,
    _check_ids,
    _parse_agents,
    _parse_beliefs,
    _parse_topology,
)

_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the replaced code


def _ref_need(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return obj[key]


def _ref_as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return number


def _ref_as_id(value: Any, path: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise SchemaError(f"{path}: agent id must be a string or integer, got {value!r}")


def _ref_parse_topology(raw: Any, path: str = "topology") -> Topology:
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = _ref_need(raw, "kind", path)
    if kind not in ("tree", "graph"):
        raise SchemaError(f"{path}.kind: expected 'tree' or 'graph', got {kind!r}")
    edges_raw = _ref_need(raw, "edges", path)
    if not isinstance(edges_raw, list):
        raise SchemaError(f"{path}.edges: expected an array of pairs")
    edges = []
    for k, pair in enumerate(edges_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.edges[{k}]: expected a two-element array")
        edges.append(
            (_ref_as_id(pair[0], f"{path}.edges[{k}][0]"), _ref_as_id(pair[1], f"{path}.edges[{k}][1]"))
        )
    allowed = {"kind", "edges", "root", "check_structure"}
    extra = set(raw) - allowed
    if extra:
        raise SchemaError(f"{path}: unknown fields {sorted(extra)!r}")
    root = None
    if kind == "tree":
        root = _ref_as_id(_ref_need(raw, "root", path), f"{path}.root")
    elif "root" in raw:
        raise SchemaError(f"{path}.root: only tree topologies carry a root")
    if kind == "tree" and "check_structure" in raw:
        raise SchemaError(f"{path}.check_structure: only graph topologies carry this flag")
    # a graph is always checked: only the value true is accepted, for older files
    if "check_structure" in raw and raw["check_structure"] is not True:
        raise SchemaError(
            f"{path}.check_structure: graphs are always checked: "
            f"expected true, got {raw['check_structure']!r}"
        )
    return Topology(kind=kind, edges=tuple(edges), root=root)


def _ref_parse_type_set(raw: Any, path: str) -> TypeSet:
    try:
        if isinstance(raw, bool):
            raise SchemaError(f"{path}: expected a credence, list, or interval")
        if isinstance(raw, (int, float)):
            return TypeSet(values=(raw,))  # what TypeSet.singleton(raw) was
        if isinstance(raw, list):
            return TypeSet.finite([_ref_as_number(v, f"{path}[{k}]") for k, v in enumerate(raw)])
        if isinstance(raw, dict) and set(raw) == {"interval"}:
            pair = raw["interval"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{path}.interval: expected [lo, hi]")
            return TypeSet.interval(
                _ref_as_number(pair[0], f"{path}.interval[0]"),
                _ref_as_number(pair[1], f"{path}.interval[1]"),
            )
    except SchemaError:
        raise
    except RumorcastError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}: expected a credence, list, or {{'interval': [lo, hi]}}")


def _ref_parse_agents(raw: Any, path: str = "agents") -> dict[str, AgentProfile]:
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"{path}: expected a nonempty object keyed by agent id")
    out: dict[str, AgentProfile] = {}
    for agent, spec in raw.items():
        apath = f"{path}.{agent}"
        if not isinstance(spec, dict):
            raise SchemaError(f"{apath}: expected an object")
        extra = set(spec) - {"types", "lambda", "ell"}
        if extra:
            raise SchemaError(f"{apath}: unknown fields {sorted(extra)!r}")
        type_set = _ref_parse_type_set(_ref_need(spec, "types", apath), f"{apath}.types")
        lam = _ref_as_number(_ref_need(spec, "lambda", apath), f"{apath}.lambda")
        ell_raw = spec.get("ell", 1)
        if isinstance(ell_raw, bool) or not isinstance(ell_raw, int):
            raise SchemaError(f"{apath}.ell: expected an integer")
        try:
            out[str(agent)] = AgentProfile(type_set=type_set, lam=lam, ell=ell_raw)
        except RumorcastError as exc:
            raise SchemaError(f"{apath}: {exc}") from exc
    return out


def _ref_parse_belief(raw: Any, path: str) -> SecondOrderBelief:
    try:
        if isinstance(raw, dict) and set(raw) == {"dirac"}:
            profile = raw["dirac"]
            if not isinstance(profile, list):
                raise SchemaError(f"{path}.dirac: expected an array of credences")
            return SecondOrderBelief.dirac(
                [_ref_as_number(v, f"{path}.dirac[{k}]") for k, v in enumerate(profile)]
            )
        if isinstance(raw, dict) and set(raw) == {"atoms"}:
            atoms_raw = raw["atoms"]
            if not isinstance(atoms_raw, list):
                raise SchemaError(f"{path}.atoms: expected an array")
            atoms = []
            for k, atom in enumerate(atoms_raw):
                kpath = f"{path}.atoms[{k}]"
                if not isinstance(atom, dict) or set(atom) != {"profile", "weight"}:
                    raise SchemaError(f"{kpath}: expected {{'profile': [...], 'weight': w}}")
                profile = atom["profile"]
                if not isinstance(profile, list):
                    raise SchemaError(f"{kpath}.profile: expected an array of credences")
                atoms.append(
                    (
                        [_ref_as_number(v, f"{kpath}.profile[{j}]") for j, v in enumerate(profile)],
                        _ref_as_number(atom["weight"], f"{kpath}.weight"),
                    )
                )
            return SecondOrderBelief.mixture(atoms)
    except SchemaError:
        raise
    except RumorcastError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}: expected {{'dirac': [...]}} or {{'atoms': [...]}}")


def _ref_parse_beliefs(
    raw: Any, agents: Mapping[str, AgentProfile], path: str = "beliefs"
) -> tuple[str | None, dict[str, BeliefOverride]]:
    if raw is None:
        return DIRAC_TRUTH, {}
    if raw == DIRAC_TRUTH:
        return DIRAC_TRUTH, {}
    if raw == "none":
        return None, {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected '{DIRAC_TRUTH}', 'none', or an object")
    extra = set(raw) - {"default", "agents"}
    if extra:
        raise SchemaError(f"{path}: unknown fields {sorted(extra)!r}")
    default_raw = raw.get("default", "none")
    if default_raw == DIRAC_TRUTH:
        default = DIRAC_TRUTH
    elif default_raw == "none":
        default = None
    else:
        raise SchemaError(f"{path}.default: expected '{DIRAC_TRUTH}' or 'none'")
    agents_raw = raw.get("agents", {})
    if not isinstance(agents_raw, dict):
        raise SchemaError(f"{path}.agents: expected an object keyed by agent id")
    overrides: dict[str, BeliefOverride] = {}
    for agent, spec in agents_raw.items():
        apath = f"{path}.agents.{agent}"
        if str(agent) not in agents:
            raise SchemaError(f"{apath}: unknown agent id")
        if not isinstance(spec, dict) or not set(spec) <= {"receiver", "sender"} or not spec:
            raise SchemaError(f"{apath}: expected 'receiver' and/or 'sender' beliefs")
        overrides[str(agent)] = BeliefOverride(
            receiver=_ref_parse_belief(spec["receiver"], f"{apath}.receiver") if "receiver" in spec else None,
            sender=_ref_parse_belief(spec["sender"], f"{apath}.sender") if "sender" in spec else None,
        )
    return default, overrides


def _ref_check_ids(topology: Topology, agents: Mapping[str, AgentProfile]) -> None:
    mentioned = set()
    for p, c in topology.edges:
        mentioned.update((p, c))
    if topology.root is not None:
        mentioned.add(topology.root)
    unknown = sorted(mentioned - set(agents), key=natural_key)
    if unknown:
        raise SchemaError(f"topology: edges mention agents without profiles: {unknown!r}")
    if topology.edges or topology.root is not None:
        silent = sorted(set(agents) - mentioned, key=natural_key)
        if silent and topology.kind == "tree":
            raise SchemaError(f"agents: not placed in the topology: {silent!r}")


def _ref_tree(root, edges) -> OrderedTree:
    children: dict = {root: []}
    parent: dict = {}
    for p, c in edges:
        if p == c:
            raise InvalidGraph(f"self-edge at {p!r}")
        if c == root:
            raise InvalidGraph(f"root {root!r} cannot have a parent")
        if c in parent:
            raise InvalidGraph(f"agent {c!r} has two parents: {parent[c]!r} and {p!r}")
        parent[c] = p
        children.setdefault(p, []).append(c)
        children.setdefault(c, [])
    order: list = []
    queue: deque = deque([root])
    seen = {root}
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in children[node]:
            seen.add(child)
            queue.append(child)
    if len(order) != len(children):
        stranded = sorted((a for a in children if a not in seen), key=natural_key)
        raise InvalidGraph(f"agents not reachable from the root: {stranded!r}")
    return OrderedTree(
        root=root,
        children={a: tuple(children[a]) for a in order},
        parent=parent,
        agents=tuple(order),
    )


# ---------------------------------------------------------------------------
# comparison


def _outcome(parse, *args) -> tuple:
    """What ``parse(*args)`` gives: its result and that result's repr (which
    tells -0.0 from 0.0 and 1 from 1.0), or its exception's type and text."""
    try:
        result = parse(*args)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return ("raised", type(exc), str(exc))
    return ("returned", result, repr(result))


def _same(new, ref, *args) -> None:
    assert _outcome(new, *args) == _outcome(ref, *args)


# ---------------------------------------------------------------------------
# fuzzed input: each field right, wrong in type or value, or missing


_IDS = st.sampled_from(["1", "2", "3", "10", "01", "x", "²"])
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**64]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-7, 5e-324, 0.1 + 0.2, 1 + 1e-12, 1 + 1e-6, -1e-12, math.nan, math.inf]),
    st.text(max_size=2),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["interval", "x"]), st.none(), max_size=1),
)
_CREDENCES = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, 0.5, True, 1.5, -0.0, 10**400, math.nan]))
_NUMBER_LISTS = st.one_of(st.lists(st.one_of(_CREDENCES, _ODD), max_size=4), _ODD)
_TYPES = st.one_of(
    _CREDENCES,
    _NUMBER_LISTS,
    st.builds(lambda pair: {"interval": pair}, _NUMBER_LISTS),
    _ODD,
)


def _field(draw, obj: dict, key: str, good) -> None:
    """Set ``obj[key]`` to a good value, a bad one, or nothing."""
    how = draw(st.sampled_from(["good", "good", "good", "bad", "missing"]))
    if how != "missing":
        obj[key] = draw(good if how == "good" else _ODD)


@st.composite
def _agents(draw) -> Any:
    if draw(st.integers(0, 20)) == 0:
        return draw(st.one_of(_ODD, st.just({})))
    raw = {}
    for agent in draw(st.lists(_IDS, min_size=1, max_size=4, unique=True)):
        spec: dict = {}
        _field(draw, spec, "types", _TYPES)
        _field(draw, spec, "lambda", st.one_of(st.floats(0.0, 3.0), st.integers(0, 3), st.just(-1.0)))
        if draw(st.booleans()):
            _field(draw, spec, "ell", st.integers(-1, 3))
        if draw(st.integers(0, 10)) == 0:
            spec[draw(st.sampled_from(["x", "Types", "beliefs"]))] = draw(_ODD)
        raw[agent] = spec if draw(st.integers(0, 15)) else draw(_ODD)
    return raw


_ID_VALUES = st.one_of(_IDS, st.integers(-2, 12), _ODD)


@st.composite
def _topologies(draw) -> Any:
    if draw(st.integers(0, 20)) == 0:
        return draw(_ODD)
    raw: dict = {}
    _field(draw, raw, "kind", st.sampled_from(["tree", "graph"]))
    pairs = st.one_of(
        st.lists(_IDS, min_size=2, max_size=2),
        st.lists(_ID_VALUES, min_size=2, max_size=2),
        st.lists(_IDS, max_size=3),
        _ODD,
    )
    _field(draw, raw, "edges", st.lists(pairs, max_size=5))
    if draw(st.booleans()):
        _field(draw, raw, "root", _ID_VALUES)
    if draw(st.integers(0, 3)) == 0:
        _field(draw, raw, "check_structure", st.booleans())
    if draw(st.integers(0, 10)) == 0:
        raw[draw(st.sampled_from(["x", "nodes"]))] = draw(_ODD)
    return raw


# the odd values a list of credences may hold at any index
_ODD_NUMBERS = st.one_of(st.sampled_from([True, False, math.nan, math.inf, -math.inf, 10**400, "0.5", None]), _ODD)


def _planted(values: list, at: int, odd: Any) -> list:
    """``values`` with ``odd`` inserted at index ``at`` (or at the end)."""
    return values[:at] + [odd] + values[at:]


# clean lists of credences, which the passes over whole lists accept, and the
# same with one odd value at any index, which the per-value check must name
_CREDENCE_LISTS = st.lists(st.floats(0.0, 1.0), max_size=12)
_PROFILES = st.one_of(
    _CREDENCE_LISTS,
    st.builds(_planted, _CREDENCE_LISTS, st.integers(0, 12), _ODD_NUMBERS),
    st.lists(st.one_of(st.floats(0.0, 1.0), _ODD), max_size=3),
    _ODD,
)


@st.composite
def _even_atoms(draw) -> dict:
    """Up to 3 atoms of one width up to 12 and weights summing to 1: a clean
    belief, or one with a single odd value in place of a credence, a weight
    or a whole profile."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    profiles: list[Any] = [draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)) for _ in range(k)]
    weights: list[Any] = [1.0 / k] * k
    if draw(st.booleans()):
        odd, at = draw(_ODD_NUMBERS), draw(st.integers(0, k * (n + 2) - 1))
        atom, place = divmod(at, n + 2)
        if place == n:
            weights[atom] = odd
        elif place == n + 1:
            profiles[atom] = odd
        else:
            profiles[atom][place] = odd
    return {"atoms": [{"profile": p, "weight": w} for p, w in zip(profiles, weights)]}


# one atom of weight 1, or two of weight 1/2, is a clean belief when its profiles are
_WEIGHTS = st.one_of(st.just(1.0), st.just(0.5), st.floats(0.0, 1.0), _ODD)
_BELIEF = st.one_of(
    st.builds(lambda p: {"dirac": p}, _PROFILES),
    _even_atoms(),
    st.builds(
        lambda atoms: {"atoms": atoms},
        st.one_of(
            st.lists(
                st.one_of(st.fixed_dictionaries({"profile": _PROFILES, "weight": _WEIGHTS}), _ODD),
                max_size=3,
            ),
            _ODD,
        ),
    ),
    _ODD,
)


@st.composite
def _beliefs(draw) -> Any:
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(st.one_of(st.sampled_from([None, DIRAC_TRUTH, "none"]), _ODD))
    raw: dict = {}
    if draw(st.booleans()):
        _field(draw, raw, "default", st.sampled_from([DIRAC_TRUTH, "none"]))
    side = st.dictionaries(st.sampled_from(["receiver", "sender", "x"]), _BELIEF, max_size=2)
    _field(draw, raw, "agents", st.dictionaries(_IDS, st.one_of(side, _ODD), max_size=3))
    if draw(st.integers(0, 10)) == 0:
        raw["x"] = draw(_ODD)
    return raw


def _places(obj: Any, depth: int = 0) -> list[tuple[int, Any, Any]]:
    """Every place in a nest of dicts and lists, as (depth, container, key)."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    return [place for key, value in items for place in [(depth, obj, key), *_places(value, depth + 1)]]


def _plant(draw, obj: Any) -> None:
    """Put one odd value at a place in ``obj``, drawn at a depth drawn
    first: in place of a value or of a dict key, or beside the others; or
    take one value out, or empty a list."""
    how = draw(st.sampled_from(["value", "value", "key", "extra", "drop", "empty"]))
    places = _places(obj)
    if how == "key":
        places = [place for place in places if isinstance(place[1], dict)]
    elif how == "empty":
        places = [place for place in places if type(place[1][place[2]]) is list] or places
    depth = draw(st.sampled_from(sorted({place[0] for place in places})))
    _, container, key = draw(st.sampled_from([place for place in places if place[0] == depth]))
    if how == "drop":
        del container[key]
    elif how == "empty":
        container[key] = []
    elif how == "extra" and isinstance(container, list):
        container.append(draw(_ODD_NUMBERS))
    elif how == "value":
        container[key] = draw(_ODD_NUMBERS)
    else:  # a new key, or an old one renamed
        odd_key = draw(st.sampled_from(["x", "11", "", "weight", "profile", "dirac", "atoms", "receiver", "interval"]))
        container[odd_key] = container.pop(key) if how == "key" else draw(_ODD_NUMBERS)


# credences in the unit range as a file may write them: ints, -0.0, and
# values within the EPS margin outside [0, 1]
_UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, -1e-10, 1 + 1e-10, 0.5]))


@st.composite
def _weights(draw, k: int) -> list:
    """``k`` weights that sum to 1 within the belief's margin."""
    how = draw(st.sampled_from(["even", "drawn", "near", "zero"]))
    if how == "even":
        return [1 if k == 1 and draw(st.booleans()) else 1.0 / k] * k
    if how == "zero" and k > 1:  # the rest sum to 1
        return [1.0 / (k - 1)] * (k - 1) + [draw(st.sampled_from([0, 0.0, -0.0, 5e-324]))]
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    weights = [w / math.fsum(raw) for w in raw]
    if how == "near":  # off by less than the margin, or by a little more
        weights[-1] += draw(st.sampled_from([4e-7, -4e-7, 2e-6, -2e-6]))
    return weights


@st.composite
def _whole_belief_files(draw) -> tuple[dict, dict]:
    """Beliefs of up to 8 agents, each side absent, a dirac belief or up to
    3 atoms, clean or with one odd value planted; with the agents known."""
    ids = [str(k) for k in range(1, draw(st.integers(1, 8)) + 1)]
    entries: dict = {}
    for agent in ids:
        entry = {}
        for side in draw(st.sampled_from([["receiver"], ["sender"], ["receiver", "sender"]])):
            width = draw(st.integers(1, 5))
            if draw(st.booleans()):
                entry[side] = {"dirac": draw(st.lists(_UNIT, min_size=width, max_size=width))}
            else:
                k = draw(st.integers(1, 3))
                profiles = [draw(st.lists(_UNIT, min_size=width, max_size=width)) for _ in range(k)]
                atoms = [{"profile": p, "weight": w} for p, w in zip(profiles, draw(_weights(k)))]
                entry[side] = {"atoms": atoms}
        entries[agent] = entry
    if draw(st.booleans()):
        _plant(draw, entries)
    return {"default": "none", "agents": entries}, dict.fromkeys(ids)


@st.composite
def _whole_agent_tables(draw) -> dict:
    """Up to 8 agents whose types mix credences, intervals and lists, clean
    or with one odd value planted."""
    raw = {}
    for agent in map(str, range(1, draw(st.integers(1, 8)) + 1)):
        kind = draw(st.sampled_from(["point", "interval", "interval", "list"]))
        if kind == "point":
            types: Any = draw(_UNIT)
        elif kind == "interval":
            pair = draw(st.lists(_UNIT, min_size=2, max_size=2))
            types = {"interval": sorted(pair) if draw(st.sampled_from([True, True, False])) else pair}
        else:
            types = draw(st.lists(_UNIT, min_size=1, max_size=3))
        spec = {"types": types, "lambda": draw(st.one_of(st.floats(0.0, 3.0), st.integers(0, 3)))}
        if draw(st.booleans()):
            spec["ell"] = draw(st.integers(0, 3))
        raw[agent] = spec
    if draw(st.booleans()):
        _plant(draw, raw)
    return raw


# ---------------------------------------------------------------------------
# the tests


@_SETTINGS
@given(raw=_agents())
def test_agents_parse_as_before(raw):
    _same(lambda raw: _at("agents", _parse_agents, raw), _ref_parse_agents, raw)


@_SETTINGS
@given(raw=_topologies())
def test_topology_parses_as_before(raw):
    _same(lambda raw: _at("topology", _parse_topology, raw), _ref_parse_topology, raw)


@_SETTINGS
@given(raw=_beliefs(), known=st.sets(_IDS))
def test_beliefs_parse_as_before(raw, known):
    agents = dict.fromkeys(known)
    _same(lambda *args: _at("beliefs", _parse_beliefs, *args), _ref_parse_beliefs, raw, agents)


@_SETTINGS
@given(belief=_BELIEF, side=st.sampled_from(["receiver", "sender"]))
def test_one_belief_parses_as_before(belief, side):
    # every draw reaches the belief's own parse
    raw, agents = {"agents": {"1": {side: belief}}}, {"1": None}
    _same(lambda *args: _at("beliefs", _parse_beliefs, *args), _ref_parse_beliefs, raw, agents)


def _file(*entries: dict) -> tuple[dict, dict]:
    """A belief file with these entries, for agents "1", "2", ..., and
    those agents known."""
    ids = [str(k) for k in range(1, len(entries) + 1)]
    return {"agents": dict(zip(ids, entries))}, dict.fromkeys(ids)


_DIRAC = {"receiver": {"dirac": [0.5, 0.25]}}
_ATOMS = {"sender": {"atoms": [{"profile": [0.5], "weight": 0.5}, {"profile": [1], "weight": 0.5}]}}


# a bad entry after a good one, of each kind the passes refuse; some are
# only refused by a check that another one also makes
@_SETTINGS
@given(file=_whole_belief_files())
@example(file=_file(_DIRAC, _ATOMS))  # an int coordinate, in a clean file
@example(file=_file({"receiver": {"dirac": [0, 0.5]}}))
@example(file=_file(_DIRAC, {"receiver": {"atoms": []}}, _ATOMS))
@example(file=_file(_DIRAC, {"receiver": {"atoms": []}}))
@example(file=_file(_DIRAC, {"receiver": {"dirac": []}}, _ATOMS))
@example(file=_file(_DIRAC, {"receiver": {"x": [0.5]}}))
@example(file=_file(_DIRAC, {}))
@example(file=(_file(_DIRAC, _ATOMS)[0], {"1": None}))
@example(file=_file(_ATOMS, {"sender": {"atoms": [{"profile": [0.5], "weight": 0.5}, {"profile": [0.5, 0.5], "weight": 0.5}]}}))
@example(file=_file(_ATOMS, {"sender": {"atoms": [{"profile": [0.5], "weight": 1.0}, {"profile": [0.5], "weight": 0.0}]}}))
@example(file=_file(_ATOMS, {"sender": {"atoms": [{"profile": [0.5], "weight": 1e308}, {"profile": [0.5], "weight": 1e308}]}}))
def test_whole_belief_files_parse_as_before(file):
    raw, agents = file
    _same(lambda *args: _at("beliefs", _parse_beliefs, *args), _ref_parse_beliefs, raw, agents)


@_SETTINGS
@given(raw=_whole_agent_tables())
@example(raw={"1": {"types": 0.5, "lambda": 1}, "2": {"types": {"interval": [0.5, 0.25]}, "lambda": 1}})
@example(raw={"1": {"types": 0.5, "lambda": 1}, "2": {"types": {"interval": [0.25, 0.5], "x": 1}, "lambda": 1}})
@example(raw={"1": {"types": [0.5, 0.5], "lambda": 1}, "2": {"types": {"interval": [0.5, 0.5]}, "lambda": 1}})
def test_whole_agent_tables_parse_as_before(raw):
    _same(lambda raw: _at("agents", _parse_agents, raw), _ref_parse_agents, raw)


# no two of these share a natural key: the ids listed in an error come out
# of a set, so ids that do ("1" and "01") are listed in an order of their hashes
_UNTIED_IDS = st.sampled_from(["1", "2", "3", "10", "x", "²"])


@_SETTINGS
@given(
    kind=st.sampled_from(["tree", "graph"]),
    edges=st.lists(st.tuples(_UNTIED_IDS, _UNTIED_IDS), max_size=6),
    root=st.one_of(st.none(), _UNTIED_IDS),
    known=st.sets(_UNTIED_IDS, min_size=1),
)
def test_ids_check_as_before(kind, edges, root, known):
    topology = Topology(kind=kind, edges=tuple(edges), root=root)
    _same(_check_ids, _ref_check_ids, topology, dict.fromkeys(known))


@_SETTINGS
@given(root=_IDS, edges=st.lists(st.tuples(_IDS, _IDS), max_size=7))
def test_trees_build_as_before(root, edges):
    _same(OrderedTree.from_edges, _ref_tree, root, edges)


@_SETTINGS
@given(
    agents=st.one_of(
        st.lists(st.one_of(_IDS, st.text(st.sampled_from("019²٣x "), max_size=3))),
        st.lists(st.one_of(st.integers(-20, 20), _IDS)),
    )
)
def test_natural_sorted_sorts_as_natural_key(agents):
    _same(natural_sorted, lambda a: sorted(a, key=natural_key), agents)


# decimal ids with more digits than int() converts (4,300 by default), some of
# them in Arabic-Indic digits, some with leading zeros that tie them to others
_LONG_IDS = st.builds(
    lambda zeros, digits: "0" * zeros + digits,
    st.integers(0, 2),
    st.sampled_from(["1" * 5000, "2" + "1" * 4999, "1" * 5001, "٣" * 4400, "3" * 4400]),
)


@_SETTINGS
@given(agents=st.lists(st.one_of(_IDS, _LONG_IDS)))
def test_overlong_decimal_ids_sort_by_value(agents):
    # Decimal reads a decimal id of any length; ties keep their input order
    want = sorted(agents, key=lambda a: (0, Decimal(a), "") if a.isdecimal() else (1, 0, a))
    assert natural_sorted(agents) == want
    assert sorted(agents, key=natural_key) == want


def test_a_graph_with_an_overlong_decimal_id():
    assert SocialGraph.from_edges([("1" * 5000, "2")]).nodes == ("2", "1" * 5000)
