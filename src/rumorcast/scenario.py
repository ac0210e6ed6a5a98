"""Scenario files: parsing, checking, and canonical re-emission.

A scenario is one JSON document holding the evidence relation, a topology
(rooted tree, or an undirected acquaintance graph), per-agent attributes,
and beliefs.  Beliefs are either the string ``"dirac-truth"`` (everyone
knows everyone's true singleton credence) or a mapping with a default plus
explicit per-agent entries; explicit entries always win.

Two entry points matter to callers: :func:`load_scenario` raises typed
errors with field context and is what the solving commands use, while
:func:`scenario_diagnostics` never raises, collecting every problem it can
find so a validation command can report them all.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, TypeVar

from .belief import EPS, EvidenceRelation, check_tol, validate_evidence
from .belief import FLOAT_MAX, NUMBER_TYPES, UNIT_HI, UNIT_LO, is_int, is_number, numbers_within
from .chatroom import TypeSet
from .errors import ParseError, RumorcastError, SchemaError
from .network import (
    AgentProfile,
    AgentTable,
    BeliefOverride,
    BlockDecomposition,
    Chatroom,
    OrderedTree,
    RootedView,
    SocialGraph,
    TreeProfiles,
    _check_profiles,
    _graph_violations,
    chatrooms_of,
    credence_errors,
    dirac_truth_profiles,  # unused here; bench/tracer.py wraps this binding by name
    natural_sorted,
)
from .receiver import LAMBDA_HI, LAMBDA_LO, SecondOrderBelief

DIRAC_TRUTH = "dirac-truth"

_TOP_KEYS = {"name", "evidence", "topology", "agents", "beliefs"}

_T = TypeVar("_T")


@dataclass(frozen=True)
class Topology:
    kind: str  # "tree" | "graph"
    edges: tuple[tuple[str, str], ...]
    root: str | None = None


@dataclass(frozen=True)
class Scenario:
    evidence: EvidenceRelation
    topology: Topology
    attrs: AgentTable  # types, lambda, ell; beliefs live apart
    belief_default: str | None  # DIRAC_TRUTH or None
    belief_overrides: Mapping[str, BeliefOverride]
    name: str | None = None

    def __post_init__(self) -> None:
        # a plain mapping of profiles (``dataclasses.replace(..., attrs=...)``) becomes a table
        object.__setattr__(self, "attrs", AgentTable.of(self.attrs))

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(natural_sorted(self.attrs))

    def tree(self) -> OrderedTree:
        if self.topology.kind != "tree":
            raise SchemaError("topology: not a tree scenario")
        assert self.topology.root is not None
        return OrderedTree.from_edges(self.topology.root, self.topology.edges)

    def graph(self) -> SocialGraph:
        if self.topology.kind != "graph":
            raise SchemaError("topology: not a graph scenario")
        return SocialGraph.from_edges(self.topology.edges, nodes=self.attrs)

    def profiles_for(self, tree: OrderedTree) -> TreeProfiles:
        """Attach beliefs to the bare attributes, given a concrete rooting.

        Explicit beliefs are the overrides; under a ``"dirac-truth"`` default
        the others are known-type beliefs, built on demand, and otherwise
        they are absent.
        """
        truth = self.belief_default == DIRAC_TRUTH
        return TreeProfiles(tree, self.attrs, self.belief_overrides, truth=truth)


# ---------------------------------------------------------------------------
# parsing
#
# The checks below run once per agent and per edge, so their success path
# builds no strings.  A bad value raises :class:`_Bad`, which says what is
# wrong and where the value sits below the one being checked.  Each level
# that knows more of the path prepends its part, and the level that knows
# all of it turns the error into a :class:`SchemaError`.


class _Bad(Exception):
    """A bad value: ``text`` says what is wrong, ``where`` locates it below
    the value being checked (``""`` for that value itself)."""

    def __init__(self, text: str, where: str = "") -> None:
        super().__init__(text)
        self.text, self.where = text, where

    def within(self, where: str) -> "_Bad":
        self.where = where + self.where
        return self


def _at(path: str, check: Callable[..., _T], *args: Any) -> _T:
    """``check(*args)``, reporting a bad value as a :class:`SchemaError`
    under ``path``."""
    try:
        return check(*args)
    except _Bad as bad:
        raise SchemaError(f"{path}{bad.where}: {bad.text}") from bad.__cause__


def _need(obj: Mapping[str, Any], key: str) -> Any:
    if key not in obj:
        raise _Bad(f"missing required field {key!r}")
    return obj[key]


def _number(value: Any, where: str = "") -> float:
    if not is_number(value):
        raise _Bad(f"expected a number, got {value!r}", where)
    if not -FLOAT_MAX <= value <= FLOAT_MAX:  # NaN fails too
        raise _Bad(f"expected a finite number, got {value!r}", where)
    return float(value)


def _numbers(raw: list[Any], where: str = "") -> list[float]:
    if not numbers_within(raw, -FLOAT_MAX, FLOAT_MAX):
        # some value is bad: the per-value check names the first
        for k, value in enumerate(raw):
            _number(value, f"{where}[{k}]")
    return list(map(float, raw))


def _is_text(s: str) -> bool:
    """Whether ``s`` is valid Unicode text: JSON's ``\\u`` escapes can write a
    lone surrogate, which no report could encode."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _as_id(value: Any, where: str = "") -> str:
    if isinstance(value, str) or is_int(value):
        return str(value)
    raise _Bad(f"agent id must be a string or integer, got {value!r}", where)


def _overlong(ids: Iterable[str]) -> str | None:
    # the first decimal id with more digits than int() reads, so natural id order cannot sort it
    limit = sys.get_int_max_str_digits()
    return next((s for s in ids if 0 < limit < len(s) and s.isdecimal()), None)


_TOPOLOGY_KEYS = frozenset({"kind", "edges", "root", "check_structure"})


def _parse_topology(raw: Any) -> Topology:
    if not isinstance(raw, dict):
        raise _Bad("expected an object")
    kind = _need(raw, "kind")
    if kind not in ("tree", "graph"):
        raise _Bad(f"expected 'tree' or 'graph', got {kind!r}", ".kind")
    edges_raw = _need(raw, "edges")
    if not isinstance(edges_raw, list):
        raise _Bad("expected an array of pairs", ".edges")
    edges = []
    for pair in edges_raw:
        try:
            if not isinstance(pair, list) or len(pair) != 2:
                raise _Bad("expected a two-element array")
            edges.append((_as_id(pair[0], "[0]"), _as_id(pair[1], "[1]")))
        except _Bad as bad:
            raise bad.within(f".edges[{len(edges)}]")
    extra = raw.keys() - _TOPOLOGY_KEYS
    if extra:
        raise _Bad(f"unknown fields {sorted(extra)!r}")
    root = None
    if kind == "tree":
        root = _as_id(_need(raw, "root"), ".root")
    elif "root" in raw:
        raise _Bad("only tree topologies carry a root", ".root")
    if kind == "tree" and "check_structure" in raw:
        raise _Bad("only graph topologies carry this flag", ".check_structure")
    check = raw.get("check_structure", True)  # older files say true; a graph is always checked
    if check is not True:
        raise _Bad(f"graphs are always checked: expected true, got {check!r}", ".check_structure")
    return Topology(kind=kind, edges=tuple(edges), root=root)


def _type_set(raw: Any) -> TypeSet:
    try:
        if isinstance(raw, bool):
            raise _Bad("expected a credence, list, or interval")
        if is_number(raw):
            return TypeSet.singleton(raw)  # range-checked before float(), so huge ints fail cleanly
        if isinstance(raw, list):
            return TypeSet.finite(_numbers(raw))
        if isinstance(raw, dict) and set(raw) == {"interval"}:
            pair = raw["interval"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise _Bad("expected [lo, hi]", ".interval")
            lo = _number(pair[0], ".interval[0]")
            return TypeSet.interval(lo, _number(pair[1], ".interval[1]"))
    except RumorcastError as exc:
        raise _Bad(str(exc)) from exc
    raise _Bad("expected a credence, list, or {'interval': [lo, hi]}")


_AGENT_KEYS = frozenset({"types", "lambda", "ell"})
_types_of, _lambda_of = itemgetter("types"), itemgetter("lambda")


class _Unclear(Exception):
    """The passes over whole columns found a bad agent."""


def _parse_agents(raw: Any) -> AgentTable:
    if not isinstance(raw, dict) or not raw:
        raise _Bad("expected a nonempty object keyed by agent id")
    if not _is_text("".join(raw)):  # every id at once
        bad = next(filterfalse(_is_text, raw))
        raise _Bad(f"agent id {bad!r} is not valid Unicode text")
    if 0 < sys.get_int_max_str_digits() < max(map(len, raw)) and _overlong(raw) is not None:
        raise _Bad(f"agent id has more than {sys.get_int_max_str_digits():,} digits")
    try:
        return _agent_table(raw)
    except _Unclear:
        pass
    # some agent is bad: the per-agent check reports the first one in file order
    for agent, spec in raw.items():
        try:
            _agent(spec)
        except _Bad as bad:
            raise bad.within(f".{agent}")
    raise AssertionError("the column checks refused agents that each pass alone")


def _agent_table(raw: dict[Any, Any]) -> AgentTable:
    """The agents' columns.  Passes over whole columns check every value
    first and raise :class:`_Unclear` exactly when some agent is bad."""
    specs = list(raw.values())
    if set(map(type, specs)) != {dict} or not all(map(_AGENT_KEYS.issuperset, specs)):
        raise _Unclear
    try:
        types = list(map(_types_of, specs))
        lams = list(map(_lambda_of, specs))
    except KeyError:  # a required field is missing
        raise _Unclear from None
    ells = list(map(dict.get, specs, repeat("ell"), repeat(1)))
    if not (numbers_within(lams, LAMBDA_LO, LAMBDA_HI) and set(map(type, ells)) == {int} and min(ells) >= 0):
        raise _Unclear
    ids = list(map(str, raw))
    type_sets: dict[str, TypeSet] = {}
    if set(map(type, types)) <= NUMBER_TYPES:  # plain credences only
        singles, credences = ids, types
    else:
        singles, credences = [], []
        for agent, value in zip(ids, types):
            if type(value) not in NUMBER_TYPES:
                try:
                    type_set = _type_set(value)
                except _Bad:
                    raise _Unclear from None
                if not type_set.is_singleton:
                    type_sets[agent] = type_set
                    continue
                value = type_set.value
            singles.append(agent)
            credences.append(value)
    if not numbers_within(credences, UNIT_LO, UNIT_HI):
        raise _Unclear
    return AgentTable(
        ids, dict(zip(singles, map(float, credences))), type_sets, list(map(float, lams)), ells
    )


def _agent(spec: Any) -> AgentProfile:
    if not isinstance(spec, dict):
        raise _Bad("expected an object")
    if not spec.keys() <= _AGENT_KEYS:
        raise _Bad(f"unknown fields {sorted(spec.keys() - _AGENT_KEYS)!r}")
    types = _need(spec, "types")
    try:
        type_set = _type_set(types)
    except _Bad as bad:
        raise bad.within(".types")
    lam = _number(_need(spec, "lambda"), ".lambda")
    ell = spec.get("ell", 1)
    if not is_int(ell):
        raise _Bad("expected an integer", ".ell")
    try:
        return AgentProfile(type_set, lam, ell)
    except RumorcastError as exc:
        raise _Bad(str(exc)) from exc


def _belief(raw: Any) -> SecondOrderBelief:
    try:
        if isinstance(raw, dict) and set(raw) == {"dirac"}:
            profile = raw["dirac"]
            if not isinstance(profile, list):
                raise _Bad("expected an array of credences", ".dirac")
            return SecondOrderBelief.dirac(_numbers(profile, ".dirac"))
        if isinstance(raw, dict) and set(raw) == {"atoms"}:
            atoms_raw = raw["atoms"]
            if not isinstance(atoms_raw, list):
                raise _Bad("expected an array", ".atoms")
            if _atoms_shaped(atoms_raw):
                try:
                    return SecondOrderBelief.mixture(zip(map(_profile_of, atoms_raw), map(_weight_of, atoms_raw)))
                except RumorcastError:
                    pass
            # the per-atom check names the first bad atom, else the belief's own fault shows
            atoms: list[tuple[list[float], float]] = []
            for atom in atoms_raw:
                try:
                    atoms.append(_atom(atom))
                except _Bad as bad:
                    raise bad.within(f".atoms[{len(atoms)}]")
            return SecondOrderBelief.mixture(atoms)
    except RumorcastError as exc:
        raise _Bad(str(exc)) from exc
    raise _Bad("expected {'dirac': [...]} or {'atoms': [...]}")


_ATOM_KEYS = frozenset({"profile", "weight"})
_profile_of, _weight_of = itemgetter("profile"), itemgetter("weight")


def _atoms_shaped(raw: list[Any]) -> bool:
    """Whether every atom is ``{'profile': [...], 'weight': w}``, in passes
    over all of them; :meth:`SecondOrderBelief.mixture` checks the numbers."""
    return (
        set(map(type, raw)) == {dict}
        and set(map(len, raw)) == {2}
        and all(map(_ATOM_KEYS.issuperset, raw))
        and set(map(type, map(_profile_of, raw))) == {list}
    )


def _atom(raw: Any) -> tuple[list[float], float]:
    if not isinstance(raw, dict) or set(raw) != {"profile", "weight"}:
        raise _Bad("expected {'profile': [...], 'weight': w}")
    profile = raw["profile"]
    if not isinstance(profile, list):
        raise _Bad("expected an array of credences", ".profile")
    return _numbers(profile, ".profile"), _number(raw["weight"], ".weight")


def _parse_beliefs(
    raw: Any, agents: Mapping[str, AgentProfile]
) -> tuple[str | None, dict[str, BeliefOverride]]:
    if raw is None:
        return DIRAC_TRUTH, {}
    if raw == DIRAC_TRUTH:
        return DIRAC_TRUTH, {}
    if raw == "none":
        return None, {}
    if not isinstance(raw, dict):
        raise _Bad(f"expected '{DIRAC_TRUTH}', 'none', or an object")
    extra = raw.keys() - {"default", "agents"}
    if extra:
        raise _Bad(f"unknown fields {sorted(extra)!r}")
    default_raw = raw.get("default", "none")
    if default_raw == DIRAC_TRUTH:
        default = DIRAC_TRUTH
    elif default_raw == "none":
        default = None
    else:
        raise _Bad(f"expected '{DIRAC_TRUTH}' or 'none'", ".default")
    agents_raw = raw.get("agents", {})
    if not isinstance(agents_raw, dict):
        raise _Bad("expected an object keyed by agent id", ".agents")
    overrides: dict[str, BeliefOverride] = {}
    for agent, spec in agents_raw.items():
        try:
            if str(agent) not in agents:
                raise _Bad("unknown agent id")
            overrides[str(agent)] = _override(spec)
        except _Bad as bad:
            # a key that is no text shows escaped, as a refused agent id does
            raise bad.within(f".agents.{agent if _is_text(agent) else repr(agent)}")
    return default, overrides


def _override(spec: Any) -> BeliefOverride:
    if not isinstance(spec, dict) or not set(spec) <= {"receiver", "sender"} or not spec:
        raise _Bad("expected 'receiver' and/or 'sender' beliefs")
    sides: dict[str, SecondOrderBelief] = {}
    for side in ("receiver", "sender"):
        if side in spec:
            try:
                sides[side] = _belief(spec[side])
            except _Bad as bad:
                raise bad.within(f".{side}")
    return BeliefOverride(**sides)


def _check_ids(topology: Topology, agents: Mapping[str, AgentProfile]) -> None:
    # ids are listed in natural order, and ids with one natural key ("1", "01")
    # in the order the file names them, so the message never varies between runs
    named = dict.fromkeys(chain.from_iterable(topology.edges))
    if topology.root is not None:
        named[topology.root] = None
    unknown = named.keys() - agents.keys()
    if unknown:
        bad = _overlong(a for a in named if a in unknown)  # the agents' ids are checked
        if bad is not None:
            ends = (f".edges[{i}][{j}]" for i, pair in enumerate(topology.edges) for j in (0, 1) if pair[j] == bad)
            limit = sys.get_int_max_str_digits()
            raise SchemaError(f"topology{next(ends, '.root')}: agent id has more than {limit:,} digits")
        listed = natural_sorted(a for a in named if a in unknown)
        raise SchemaError(f"topology: edges mention agents without profiles: {listed!r}")
    # every named agent has a profile, so the counts tell whether some profile is unplaced
    if named and topology.kind == "tree" and len(named) < len(agents):
        silent = natural_sorted(a for a in agents if a not in named)
        raise SchemaError(f"agents: not placed in the topology: {silent!r}")


@dataclass(frozen=True)
class _Shape:
    """Structurally parsed scenario, evidence not yet checked for ordering."""

    name: str | None
    mu_pair: tuple[float, float]
    topology: Topology
    attrs: AgentTable
    belief_default: str | None
    belief_overrides: dict[str, BeliefOverride]


def _parse_shape(raw: Any) -> _Shape:
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected an object")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise SchemaError(f"top level: unknown fields {sorted(extra)!r}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name: expected a string")
    ev = _at("top level", _need, raw, "evidence")
    if not isinstance(ev, dict) or set(ev) != {"mu_given_c", "mu_given_not_c"}:
        raise SchemaError("evidence: expected {'mu_given_c': a, 'mu_given_not_c': b}")
    mu_pair = (
        _at("evidence", _number, ev["mu_given_c"], ".mu_given_c"),
        _at("evidence", _number, ev["mu_given_not_c"], ".mu_given_not_c"),
    )
    topology = _at("topology", _parse_topology, _at("top level", _need, raw, "topology"))
    attrs = _at("agents", _parse_agents, _at("top level", _need, raw, "agents"))
    _check_ids(topology, attrs)
    default, overrides = _at("beliefs", _parse_beliefs, raw.get("beliefs"), attrs)
    return _Shape(
        name=name,
        mu_pair=mu_pair,
        topology=topology,
        attrs=attrs,
        belief_default=default,
        belief_overrides=overrides,
    )


def _decode(document: str | bytes) -> Any:
    """The JSON value of ``document``, or a :class:`ParseError` saying why it
    has none.  Bytes are read as a text file reads them: UTF-8, with every
    line end ("\\r\\n", "\\r") as "\\n"."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}: not UTF-8 text ({exc.reason})") from None
        if "\r" in document:
            document = document.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
    except ValueError:  # the only other one: an integer past the int-string limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer has more than {limit:,} digits") from None


def _read_shape(document: str | bytes) -> _Shape:
    """``document`` decoded and checked for shape, with the cyclic collector
    paused: decoding makes no reference cycles, so reference counting frees
    all it builds, and a collection would only rescan the new containers."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_shape(_decode(document))
    finally:
        if enabled:
            gc.enable()


def parse_scenario(document: str | bytes) -> Scenario:
    """Parse and fully validate one scenario document (text, or UTF-8 bytes)."""
    shape = _read_shape(document)
    evidence = validate_evidence(*shape.mu_pair)
    return Scenario(
        evidence=evidence,
        topology=shape.topology,
        attrs=shape.attrs,
        belief_default=shape.belief_default,
        belief_overrides=shape.belief_overrides,
        name=shape.name,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# non-raising diagnostics


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    detail: str


def scenario_diagnostics(document: str | bytes, tol: float = EPS) -> list[Diagnostic]:
    """Everything wrong with a scenario document, empty when clean.

    Stages run independently where possible: a bad evidence relation does
    not hide a malformed topology, and vice versa.  ``tol`` narrows the
    evidence band for the credences the send rule reads, as it does for
    :func:`solve_global`.
    """
    check_tol(tol)
    out: list[Diagnostic] = []
    try:
        shape = _read_shape(document)
    except ParseError as exc:
        return [Diagnostic("parse-error", str(exc))]
    except SchemaError as exc:
        return [Diagnostic("schema-error", str(exc))]

    evidence: EvidenceRelation | None = None
    try:
        evidence = validate_evidence(*shape.mu_pair)
    except RumorcastError as exc:
        out.append(Diagnostic("evidence-error", str(exc)))

    # the send rule's inputs, for the credence check: every room some rooting
    # opens, as a sender with her audience, and one belief mapping to read them
    if shape.topology.kind == "tree":
        try:
            assert shape.topology.root is not None
            view = tree = OrderedTree.from_edges(shape.topology.root, shape.topology.edges)
        except RumorcastError as exc:
            return out + [Diagnostic("topology-error", str(exc))]
        rooms = chatrooms_of(tree)
    else:
        graph = SocialGraph.from_edges(shape.topology.edges, nodes=shape.attrs)
        blocks = BlockDecomposition(graph)
        if not blocks.valid:
            out.extend(Diagnostic(v.kind, f"witness {v.witness!r}") for v in _graph_violations(graph, blocks))
        # some rooting makes each of an agent's acquaintances her child
        rooms = (Chatroom(agent, graph.neighbors(agent)) for agent in graph.nodes if graph.neighbors(agent))
        view = RootedView(blocks, graph.nodes[0])  # type: ignore[assignment]

    # a failed known-type check leaves the explicit beliefs to read
    profiles = TreeProfiles(view, shape.attrs, shape.belief_overrides, truth=False)
    try:
        profiles = TreeProfiles(view, shape.attrs, shape.belief_overrides, truth=shape.belief_default == DIRAC_TRUTH)
        if shape.topology.kind == "tree":  # a graph's explicit beliefs fit only the rooting chosen
            _check_profiles(profiles)
    except RumorcastError as exc:
        out.append(Diagnostic("belief-error", str(exc)))
    if evidence is not None:
        errors = credence_errors(profiles, rooms, evidence, tol)
        out.extend(Diagnostic("credence-error", text) for text in errors)
    return out


# ---------------------------------------------------------------------------
# canonical re-emission


def _type_set_obj(ts: TypeSet) -> Any:
    if ts.is_singleton:
        return ts.value
    if ts.is_finite:
        return list(ts.values)  # type: ignore[arg-type]
    lo, hi = ts.bounds  # type: ignore[misc]
    return {"interval": [lo, hi]}


def _belief_obj(belief: SecondOrderBelief) -> dict[str, Any]:
    return {
        "atoms": [
            {"profile": list(atom.profile), "weight": atom.weight} for atom in belief.atoms
        ]
    }


def scenario_to_obj(scenario: Scenario) -> dict[str, Any]:
    """Canonical plain-data form: fixed key order, agents in natural order.

    Tree scenarios trade the dirac-truth shorthand for explicit atoms, so
    the emitted file pins down exactly what the solver consumed.  Graph
    scenarios keep the shorthand: their beliefs depend on the rooting.
    """
    obj: dict[str, Any] = {}
    if scenario.name is not None:
        obj["name"] = scenario.name
    obj["evidence"] = {
        "mu_given_c": scenario.evidence.mu_given_c,
        "mu_given_not_c": scenario.evidence.mu_given_not_c,
    }
    topo: dict[str, Any] = {"kind": scenario.topology.kind}
    default = scenario.belief_default
    overrides = dict(scenario.belief_overrides)
    if scenario.topology.kind == "tree":
        tree = scenario.tree()
        topo["root"] = scenario.topology.root
        topo["edges"] = [list(e) for e in tree.edges()]
        profiles = scenario.profiles_for(tree)
        merged: dict[str, BeliefOverride] = {}
        for agent in scenario.agent_ids:
            prof = profiles[agent]
            if prof.receiver_belief is not None or prof.sender_belief is not None:
                merged[agent] = BeliefOverride(
                    receiver=prof.receiver_belief, sender=prof.sender_belief
                )
        default, overrides = None, merged
    else:
        topo["check_structure"] = True
        topo["edges"] = [list(e) for e in scenario.graph().edges()]
    obj["topology"] = topo
    obj["agents"] = {
        agent: {
            "types": _type_set_obj(scenario.attrs[agent].type_set),
            "lambda": scenario.attrs[agent].lam,
            "ell": scenario.attrs[agent].ell,
        }
        for agent in scenario.agent_ids
    }

    if not overrides:
        obj["beliefs"] = DIRAC_TRUTH if default == DIRAC_TRUTH else "none"
    else:
        agents_obj = {}
        for agent in natural_sorted(overrides):
            override = overrides[agent]
            entry: dict[str, Any] = {}
            if override.receiver is not None:
                entry["receiver"] = _belief_obj(override.receiver)
            if override.sender is not None:
                entry["sender"] = _belief_obj(override.sender)
            agents_obj[agent] = entry
        obj["beliefs"] = {
            "default": DIRAC_TRUTH if default == DIRAC_TRUTH else "none",
            "agents": agents_obj,
        }
    return obj


def normalize_scenario(document: str | bytes) -> str:
    """Canonical byte form; idempotent, and re-parses to an equivalent model."""
    return json.dumps(scenario_to_obj(parse_scenario(document)), indent=2) + "\n"
