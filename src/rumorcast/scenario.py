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

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .belief import EvidenceRelation, require_credence, validate_evidence
from .chatroom import TypeSet
from .errors import ParseError, RumorcastError, SchemaError
from .network import (
    AgentProfile,
    BeliefOverride,
    DiracTruthProfiles,
    OrderedTree,
    SocialGraph,
    _check_profiles,
    dirac_truth_profiles,  # unused here; bench/tracer.py wraps this binding by name
    natural_key,
    validate_graph,
)
from .receiver import SecondOrderBelief

DIRAC_TRUTH = "dirac-truth"

_TOP_KEYS = {"name", "evidence", "topology", "agents", "beliefs"}


@dataclass(frozen=True)
class Topology:
    kind: str  # "tree" | "graph"
    edges: tuple[tuple[str, str], ...]
    root: str | None = None
    check_structure: bool = True


@dataclass(frozen=True)
class Scenario:
    evidence: EvidenceRelation
    topology: Topology
    attrs: Mapping[str, AgentProfile]  # types, lambda, ell; beliefs live apart
    belief_default: str | None  # DIRAC_TRUTH or None
    belief_overrides: Mapping[str, BeliefOverride]
    name: str | None = None

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.attrs, key=natural_key))

    def tree(self) -> OrderedTree:
        if self.topology.kind != "tree":
            raise SchemaError("topology: not a tree scenario")
        assert self.topology.root is not None
        return OrderedTree.from_edges(self.topology.root, self.topology.edges)

    def graph(self) -> SocialGraph:
        if self.topology.kind != "graph":
            raise SchemaError("topology: not a graph scenario")
        return SocialGraph.from_edges(self.topology.edges, nodes=self.agent_ids)

    def profiles_for(self, tree: OrderedTree) -> Mapping[str, AgentProfile]:
        """Attach beliefs to the bare attributes, given a concrete rooting.

        Dirac-truth beliefs come as :class:`DiracTruthProfiles`, built on
        demand; explicit-only beliefs as a plain dict.
        """
        return _attach_beliefs(tree, self.attrs, self.belief_default, self.belief_overrides)


def _attach_beliefs(
    tree: OrderedTree,
    attrs: Mapping[str, AgentProfile],
    default: str | None,
    overrides: Mapping[str, BeliefOverride],
) -> Mapping[str, AgentProfile]:
    if default == DIRAC_TRUTH:
        return DiracTruthProfiles(tree, attrs, overrides)
    return {
        agent: overrides[agent].apply(attrs[agent]) if agent in overrides else attrs[agent]
        for agent in tree.agents
    }


# ---------------------------------------------------------------------------
# parsing


def _need(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_id(value: Any, path: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise SchemaError(f"{path}: agent id must be a string or integer, got {value!r}")


def _parse_topology(raw: Any, path: str = "topology") -> Topology:
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = _need(raw, "kind", path)
    if kind not in ("tree", "graph"):
        raise SchemaError(f"{path}.kind: expected 'tree' or 'graph', got {kind!r}")
    edges_raw = _need(raw, "edges", path)
    if not isinstance(edges_raw, list):
        raise SchemaError(f"{path}.edges: expected an array of pairs")
    edges = []
    for k, pair in enumerate(edges_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.edges[{k}]: expected a two-element array")
        edges.append(
            (_as_id(pair[0], f"{path}.edges[{k}][0]"), _as_id(pair[1], f"{path}.edges[{k}][1]"))
        )
    allowed = {"kind", "edges", "root", "check_structure"}
    extra = set(raw) - allowed
    if extra:
        raise SchemaError(f"{path}: unknown fields {sorted(extra)!r}")
    root = None
    if kind == "tree":
        root = _as_id(_need(raw, "root", path), f"{path}.root")
    elif "root" in raw:
        raise SchemaError(f"{path}.root: only tree topologies carry a root")
    check = raw.get("check_structure", True)
    if not isinstance(check, bool):
        raise SchemaError(f"{path}.check_structure: expected a boolean")
    if kind == "tree" and "check_structure" in raw:
        raise SchemaError(f"{path}.check_structure: only graph topologies carry this flag")
    return Topology(kind=kind, edges=tuple(edges), root=root, check_structure=check)


def _parse_type_set(raw: Any, path: str) -> TypeSet:
    try:
        if isinstance(raw, bool):
            raise SchemaError(f"{path}: expected a credence, list, or interval")
        if isinstance(raw, (int, float)):
            return TypeSet.singleton(raw)  # range-checked before float(), so huge ints fail cleanly
        if isinstance(raw, list):
            return TypeSet.finite([_as_number(v, f"{path}[{k}]") for k, v in enumerate(raw)])
        if isinstance(raw, dict) and set(raw) == {"interval"}:
            pair = raw["interval"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{path}.interval: expected [lo, hi]")
            return TypeSet.interval(
                _as_number(pair[0], f"{path}.interval[0]"),
                _as_number(pair[1], f"{path}.interval[1]"),
            )
    except SchemaError:
        raise
    except RumorcastError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}: expected a credence, list, or {{'interval': [lo, hi]}}")


def _parse_agents(raw: Any, path: str = "agents") -> dict[str, AgentProfile]:
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
        type_set = _parse_type_set(_need(spec, "types", apath), f"{apath}.types")
        lam = _as_number(_need(spec, "lambda", apath), f"{apath}.lambda")
        ell_raw = spec.get("ell", 1)
        if isinstance(ell_raw, bool) or not isinstance(ell_raw, int):
            raise SchemaError(f"{apath}.ell: expected an integer")
        try:
            out[str(agent)] = AgentProfile(type_set=type_set, lam=lam, ell=ell_raw)
        except RumorcastError as exc:
            raise SchemaError(f"{apath}: {exc}") from exc
    return out


def _parse_belief(raw: Any, path: str) -> SecondOrderBelief:
    try:
        if isinstance(raw, dict) and set(raw) == {"dirac"}:
            profile = raw["dirac"]
            if not isinstance(profile, list):
                raise SchemaError(f"{path}.dirac: expected an array of credences")
            return SecondOrderBelief.dirac(
                [_as_number(v, f"{path}.dirac[{k}]") for k, v in enumerate(profile)]
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
                        [_as_number(v, f"{kpath}.profile[{j}]") for j, v in enumerate(profile)],
                        _as_number(atom["weight"], f"{kpath}.weight"),
                    )
                )
            return SecondOrderBelief.mixture(atoms)
    except SchemaError:
        raise
    except RumorcastError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}: expected {{'dirac': [...]}} or {{'atoms': [...]}}")


def _parse_beliefs(
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
            receiver=_parse_belief(spec["receiver"], f"{apath}.receiver") if "receiver" in spec else None,
            sender=_parse_belief(spec["sender"], f"{apath}.sender") if "sender" in spec else None,
        )
    return default, overrides


def _check_ids(topology: Topology, agents: Mapping[str, AgentProfile]) -> None:
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


@dataclass(frozen=True)
class _Shape:
    """Structurally parsed scenario, evidence not yet checked for ordering."""

    name: str | None
    mu_pair: tuple[float, float]
    topology: Topology
    attrs: dict[str, AgentProfile]
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
    ev = _need(raw, "evidence", "top level")
    if not isinstance(ev, dict) or set(ev) != {"mu_given_c", "mu_given_not_c"}:
        raise SchemaError("evidence: expected {'mu_given_c': a, 'mu_given_not_c': b}")
    mu_pair = (
        _as_number(ev["mu_given_c"], "evidence.mu_given_c"),
        _as_number(ev["mu_given_not_c"], "evidence.mu_given_not_c"),
    )
    topology = _parse_topology(_need(raw, "topology", "top level"))
    attrs = _parse_agents(_need(raw, "agents", "top level"))
    _check_ids(topology, attrs)
    default, overrides = _parse_beliefs(raw.get("beliefs"), attrs)
    return _Shape(
        name=name,
        mu_pair=mu_pair,
        topology=topology,
        attrs=attrs,
        belief_default=default,
        belief_overrides=overrides,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate one scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    shape = _parse_shape(raw)
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
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# non-raising diagnostics


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    detail: str


def scenario_diagnostics(text: str) -> list[Diagnostic]:
    """Everything wrong with a scenario document, empty when clean.

    Stages run independently where possible: a bad evidence relation does
    not hide a malformed topology, and vice versa.
    """
    out: list[Diagnostic] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Diagnostic("parse-error", f"line {exc.lineno} column {exc.colno}: {exc.msg}")]
    try:
        shape = _parse_shape(raw)
    except SchemaError as exc:
        return out + [Diagnostic("schema-error", str(exc))]

    evidence: EvidenceRelation | None = None
    try:
        evidence = validate_evidence(*shape.mu_pair)
    except RumorcastError as exc:
        out.append(Diagnostic("evidence-error", str(exc)))

    # the send rule's inputs, for the credence check: who may send, with what belief
    overrides = shape.belief_overrides
    senders: tuple[str, ...] = ()
    sender_belief: Callable[[str], SecondOrderBelief | None] = (
        lambda agent: overrides[agent].sender if agent in overrides else None
    )
    tree: OrderedTree | None = None
    if shape.topology.kind == "tree":
        try:
            assert shape.topology.root is not None
            tree = OrderedTree.from_edges(shape.topology.root, shape.topology.edges)
        except RumorcastError as exc:
            out.append(Diagnostic("topology-error", str(exc)))
    else:
        graph = SocialGraph.from_edges(
            shape.topology.edges, nodes=sorted(shape.attrs, key=natural_key)
        )
        if shape.topology.check_structure:
            for violation in validate_graph(graph).violations:
                out.append(Diagnostic(violation.kind, f"witness {violation.witness!r}"))
        # under the rooting at her, every agent with a neighbour sends
        senders = tuple(a for a in graph.nodes if graph.neighbors(a))

    if tree is not None:
        senders = tree.non_terminals
        try:
            profiles = _attach_beliefs(tree, shape.attrs, shape.belief_default, overrides)
            if isinstance(profiles, DiracTruthProfiles):
                sender_belief = profiles.sender_belief
            _check_profiles(tree, profiles)
        except RumorcastError as exc:
            out.append(Diagnostic("belief-error", str(exc)))
    if evidence is not None:
        out.extend(_credence_diagnostics(senders, shape.attrs, sender_belief, evidence))
    return out


def _credence_diagnostics(
    senders: tuple[str, ...],
    attrs: Mapping[str, AgentProfile],
    sender_belief: Callable[[str], SecondOrderBelief | None],
    mu: EvidenceRelation,
) -> list[Diagnostic]:
    """Off-band credences the send rule would evaluate: each sender's type
    hull and her sender-belief coordinates."""
    out: list[Diagnostic] = []
    for agent in senders:
        checked = [("types", x) for x in dict.fromkeys(attrs[agent].type_set.hull)]
        belief = sender_belief(agent)
        if belief is not None:
            coords = dict.fromkeys(x for atom in belief.atoms for x in atom.profile)
            checked += [("sender belief", x) for x in coords]
        for where, x in checked:
            try:
                require_credence(x, mu)
            except RumorcastError as exc:
                out.append(Diagnostic("credence-error", f"agent {agent!r}: {where}: {exc}"))
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
    if scenario.topology.kind == "tree":
        topo["root"] = scenario.topology.root
        topo["edges"] = [list(e) for e in scenario.tree().edges()]
    else:
        topo["check_structure"] = scenario.topology.check_structure
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

    default = scenario.belief_default
    overrides = dict(scenario.belief_overrides)
    if default == DIRAC_TRUTH and scenario.topology.kind == "tree":
        profiles = scenario.profiles_for(scenario.tree())
        merged: dict[str, BeliefOverride] = {}
        for agent in scenario.agent_ids:
            prof = profiles[agent]
            if prof.receiver_belief is not None or prof.sender_belief is not None:
                merged[agent] = BeliefOverride(
                    receiver=prof.receiver_belief, sender=prof.sender_belief
                )
        default, overrides = None, merged

    if not overrides:
        obj["beliefs"] = DIRAC_TRUTH if default == DIRAC_TRUTH else "none"
    else:
        agents_obj = {}
        for agent in sorted(overrides, key=natural_key):
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


def normalize_scenario(text: str) -> str:
    """Canonical byte form; idempotent, and re-parses to an equivalent model."""
    return json.dumps(scenario_to_obj(parse_scenario(text)), indent=2) + "\n"
