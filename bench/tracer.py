"""Spans and counters around rumorcast's layers, installed from outside.

The package imports names with ``from .x import y``, so a wrapper only sees
a call if it replaces the binding the *caller* looks up: ``network`` calls
``decide_send`` through ``rumorcast.network.decide_send``, ``sender`` calls
``worldview_prior`` through ``rumorcast.sender.worldview_prior``, and so on.
:data:`SPANS` and :data:`LEAVES` list those call-site bindings.

Spans (name, start, end, parent, invocation) are kept in memory.  Leaves
called tens of thousands of times per invocation are only counted and
timed in aggregate, so tracing does not swamp the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Observer = Callable[["Tracer", Any, tuple], None]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    invocation: int


def _count_coords(tracer: "Tracer", profiles, args) -> None:
    tracer.counts["belief_coords"] += sum(
        len(belief.atoms) * belief.dim
        for prof in profiles.values()
        for belief in (prof.receiver_belief, prof.sender_belief)
        if belief is not None
    )


def _count_reach(tracer: "Tracer", result, args) -> None:
    tracer.counts["reached"] += result.reach_count
    tracer.counts["agents_solved"] += len(args[0].agents)


def _count_room(tracer: "Tracer", eq, args) -> None:
    game = args[0]
    tracer.counts["receivers_solved"] += len(game.receivers)
    tracer.rooms.add((game.sender, tuple(spec.agent for spec in game.receivers)))


def _count_send(tracer: "Tracer", action, args) -> None:
    tracer.counts["sends"] += action.value == "S"


#: (span name, call-site bindings as "module:attribute", observer)
SPANS: tuple[tuple[str, tuple[str, ...], Observer | None], ...] = (
    ("scenario.load_scenario", ("rumorcast.cli:load_scenario",), None),
    ("scenario.profiles_for", ("rumorcast.scenario:Scenario.profiles_for",), None),
    (
        "network.dirac_truth_profiles",
        ("rumorcast.scenario:dirac_truth_profiles", "rumorcast.network:dirac_truth_profiles"),
        _count_coords,
    ),
    ("network.solve_global", ("rumorcast.cli:solve_global", "rumorcast.network:solve_global"), _count_reach),
    ("network.reach_by_root", ("rumorcast.cli:reach_by_root",), None),
    ("network.root_tree", ("rumorcast.cli:root_tree", "rumorcast.network:root_tree"), None),
    ("network.validate_graph", ("rumorcast.network:validate_graph",), None),
    ("chatroom.game_build", ("rumorcast.network:ChatroomGame",), None),
    ("chatroom.solve_chatroom", ("rumorcast.network:solve_chatroom",), _count_room),
    ("receiver.peer_distance", ("rumorcast.chatroom:peer_distance",), None),
    ("receiver.support_interval", ("rumorcast.chatroom:support_interval",), None),
    ("sender.decide_send", ("rumorcast.network:decide_send",), _count_send),
    ("sender.expected_send_gain", ("rumorcast.sender:expected_send_gain",), None),
)

#: Aggregated leaves: (name, call-site bindings)
LEAVES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("receiver.best_actions", ("rumorcast.chatroom:best_actions",)),
    ("sender.nu_value", ("rumorcast.sender:nu_value",)),
    ("belief.worldview_prior", ("rumorcast.sender:worldview_prior", "rumorcast.belief:worldview_prior")),
    ("belief.worldview_posterior", ("rumorcast.sender:worldview_posterior",)),
)


def _resolve(binding: str) -> tuple[Any, str]:
    module_name, attr_path = binding.split(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counts for the invocations run under it."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.leaf_calls: Counter[str] = Counter()
        self.leaf_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.rooms: set[tuple] = set()
        self.invocation = 0
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.invocation)
            if observe is not None:
                observe(self, result, args)
            return result

        return wrapped

    def leaf(self, name: str, fn: Callable) -> Callable:
        calls, total = self.leaf_calls, self.leaf_time

        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += time.perf_counter() - start
                calls[name] += 1

        return wrapped

    def begin_invocation(self) -> None:
        """Start a fresh invocation: counters reset, spans keep accumulating."""
        self.invocation += 1
        self.leaf_calls.clear()
        self.leaf_time.clear()
        self.counts.clear()
        self.rooms.clear()

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every call-site binding for its wrapper; restore on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for name, bindings, observe in SPANS:
                for binding in bindings:
                    owner, attr = _resolve(binding)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.span(name, original, observe))
            for name, bindings in LEAVES:
                for binding in bindings:
                    owner, attr = _resolve(binding)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.leaf(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def invocation_spans(self) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s is not None and s.invocation == self.invocation]

    def write(self, path: str, origin: float) -> None:
        """Dump every span, with times relative to ``origin``, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": span.parent,
                            "invocation": span.invocation,
                        }
                    )
                    + "\n"
                )


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        index: span.end - span.start - covered_length(children[index], span.start, span.end)
        for index, span in spans
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for the tracer's current invocation."""
    spans = tracer.invocation_spans()
    selfs = self_times(spans)
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for index, span in spans:
        total[span.name] += span.end - span.start
        own[span.name] += selfs[index]
        calls[span.name] += 1
    counts, leaf_calls, leaf_time = tracer.counts, tracer.leaf_calls, tracer.leaf_time
    decisions = calls["sender.decide_send"]
    rooms = calls["chatroom.solve_chatroom"]
    return {
        "cli.self_s": own["cli"],
        "scenario.load_scenario.s": total["scenario.load_scenario"],
        "scenario.profiles_for.self_s": own["scenario.profiles_for"],
        "network.dirac_truth_profiles.s": total["network.dirac_truth_profiles"],
        "network.dirac_truth_profiles.calls": calls["network.dirac_truth_profiles"],
        "network.belief_coords": counts["belief_coords"],
        "network.reach_frac": counts["reached"] / counts["agents_solved"] if counts["agents_solved"] else 0.0,
        "network.solve_global.self_s": own["network.solve_global"],
        "network.solve_global.calls": calls["network.solve_global"],
        "network.root_tree.s": total["network.root_tree"],
        "network.root_tree.calls": calls["network.root_tree"],
        "network.validate_graph.s": total["network.validate_graph"],
        "network.validate_graph.calls": calls["network.validate_graph"],
        "network.reach_by_root.self_s": own["network.reach_by_root"],
        "network.rooms_solved": rooms,
        "network.room_reuse": len(tracer.rooms) / rooms if rooms else 0.0,
        "chatroom.game_build.s": total["chatroom.game_build"],
        "chatroom.solve_chatroom.s": total["chatroom.solve_chatroom"],
        "chatroom.solve_chatroom.calls": rooms,
        "chatroom.receivers_solved": counts["receivers_solved"],
        "receiver.peer_distance.calls": calls["receiver.peer_distance"],
        "receiver.peer_distance.s": total["receiver.peer_distance"],
        "receiver.best_actions.calls": leaf_calls["receiver.best_actions"],
        "receiver.best_actions.s": leaf_time["receiver.best_actions"],
        "receiver.support_interval.calls": calls["receiver.support_interval"],
        "receiver.support_interval.s": total["receiver.support_interval"],
        "sender.decide_send.s": total["sender.decide_send"],
        "sender.decide_send.calls": decisions,
        "sender.send_frac": counts["sends"] / decisions if decisions else 0.0,
        "sender.gain_evals_per_decision": calls["sender.expected_send_gain"] / decisions if decisions else 0.0,
        "sender.nu_value.calls": leaf_calls["sender.nu_value"],
        "belief.worldview_prior.calls": leaf_calls["belief.worldview_prior"],
        "belief.worldview_prior.s": leaf_time["belief.worldview_prior"],
        "belief.worldview_posterior.calls": leaf_calls["belief.worldview_posterior"],
    }


def is_count(metric: str) -> bool:
    """Counts and ratios of counts repeat exactly on the same input; times end in ``s``."""
    return not (metric.endswith(".s") or metric.endswith("_s"))


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if not is_count(metric):
        return "s"
    if metric.endswith("_frac") or metric in ("network.room_reuse", "sender.gain_evals_per_decision"):
        return "ratio"
    return "count"
