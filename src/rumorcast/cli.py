"""Batch front end: solve scenarios, sweep parameters, validate files.

Subcommands: solve, sweep-lambda, sweep-root, validate, normalize.  Reports
come out as a human table (default), CSV, or JSON lines; identical inputs
produce byte-identical reports.  Exit codes: 0 ok, 1 input error, 2 solve
walked into a room with no equilibrium.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .belief import EPS
from .errors import RumorcastError
from .network import (
    CascadeResult,
    OrderedTree,
    natural_sorted,
    reach_by_root,
    root_tree,
    solve_global,
    undirected_closure,
)
from .receiver import ReceiverAction
from .scenario import (
    DIRAC_TRUTH,
    Scenario,
    load_scenario,
    normalize_scenario,
    scenario_diagnostics,
)
from .sender import SenderAction

_FORMATS = ("table", "csv", "json-lines")


# ---------------------------------------------------------------------------
# report assembly


def _reaction_word(action: ReceiverAction | None) -> str | None:
    return None if action is None else action.word


def _send_word(action: SenderAction | None) -> str | None:
    if action is None:
        return None
    return "send" if action is SenderAction.SEND else "no-send"


def _cell(value: Any, fmt: str) -> str:
    if value is None:
        return "-" if fmt == "table" else ""
    if isinstance(value, bool):
        return ("yes" if value else "no") if fmt == "table" else ("true" if value else "false")
    return str(value)


_LITERALS = {None: "null", True: "true", False: "false"}


def _json_value(value: Any) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True)`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    return json.dumps(value, sort_keys=True)


def _json_column(values: list[Any]) -> Iterable[str]:
    """``_json_value`` of each value, without a Python call per value when
    the column holds only strings, None and bools."""
    kinds = set(map(type, values))
    if kinds <= {str}:
        return map(encode_basestring_ascii, values)
    if kinds <= {str, type(None), bool}:  # no ints, which would hash like the bools
        written = {value: _json_value(value) for value in set(values)}
        return map(written.__getitem__, values)
    return map(_json_value, values)


def _json_lines(rows: list[dict[str, Any]]) -> str:
    """``json.dumps(row, sort_keys=True)`` for each row, one per line.

    Keys must be strings.  Each run of rows with the same keys is written a
    column at a time, and the columns are then interleaved with the keys.
    """
    pieces: list[Iterable[str]] = []
    for keys, run in groupby(rows, dict.keys):
        block = list(run)
        cells: list[Iterable[str]] = [repeat("{", len(block))]
        for k, name in enumerate(sorted(keys)):
            cells.append(repeat((", " if k else "") + encode_basestring_ascii(name) + ": "))
            cells.append(_json_column(list(map(itemgetter(name), block))))
        cells.append(repeat("}\n"))
        pieces.append(chain.from_iterable(zip(*cells)))
    return "".join(chain.from_iterable(pieces))


def _render(rows: list[dict[str, Any]], columns: list[str], fmt: str) -> str:
    if fmt == "json-lines":
        return _json_lines(rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c), fmt) for c in columns])
        return buf.getvalue()
    cells = [[_cell(row.get(c), fmt) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "".join(line + "\n" for line in lines)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cascade_rows(tree: OrderedTree, result: CascadeResult) -> list[dict[str, Any]]:
    reach, reactions, sends = result.reach, result.receiver_actions, result.sender_actions
    rows: list[dict[str, Any]] = [
        # agents the message missed have no actions to look up
        {"kind": "agent", "agent": agent, "reached": False, "reaction": None, "send": None}
        if agent not in reach
        else {
            "kind": "agent",
            "agent": agent,
            "reached": True,
            "reaction": _reaction_word(reactions.get(agent)),
            "send": _send_word(sends.get(agent)),
        }
        for agent in natural_sorted(tree.agents)
    ]
    rows.append(
        {
            "kind": "summary",
            "exists": result.exists,
            "unique": result.unique,
            "reach_count": result.reach_count,
            "multiple_rooms": ";".join(str(a) for a in result.multiple_rooms) or None,
            "failing_room": result.failing_room,
        }
    )
    return rows


_CASCADE_COLUMNS = [
    "kind", "agent", "reached", "reaction", "send",
    "exists", "unique", "reach_count", "multiple_rooms", "failing_room",
]


def _joined_actions(result: CascadeResult) -> tuple[str, str]:
    reactions = ";".join(
        f"{a}={_reaction_word(result.reaction_of(a))}"
        for a in natural_sorted(result.receiver_actions)
    )
    sends = ";".join(
        f"{a}={_send_word(result.send_of(a))}"
        for a in natural_sorted(result.sender_actions)
    )
    return reactions, sends


# ---------------------------------------------------------------------------
# commands


def _scenario_tree(scenario: Scenario, root: str | None) -> OrderedTree:
    if scenario.topology.kind == "tree":
        if root is not None:
            raise RumorcastError("--root only applies to graph scenarios")
        return scenario.tree()
    if root is None:
        raise RumorcastError("graph scenarios need --root to pick the initial sender")
    return root_tree(scenario.graph(), root)


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    tree = _scenario_tree(scenario, args.root)
    result = solve_global(tree, scenario.profiles_for(tree), scenario.evidence, args.tolerance)
    _emit(_render(_cascade_rows(tree, result), _CASCADE_COLUMNS, args.format), args.out)
    return 0 if result.exists else 2


_MAX_LAMBDA_VALUES = 100_000


def _lambda_values(args: argparse.Namespace) -> list[float]:
    if args.lambdas is not None:
        try:
            values = [float(part) for part in args.lambdas.split(",") if part.strip()]
        except ValueError as exc:
            raise RumorcastError(f"--lambdas: {exc}") from exc
    else:
        try:
            lo_s, hi_s, step_s = args.lambda_range.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
        except ValueError as exc:
            raise RumorcastError("--lambda-range: expected LO:HI:STEP") from exc
        if not all(map(math.isfinite, (lo, hi, step))):
            raise RumorcastError("--lambda-range: LO, HI and STEP must be finite")
        if step <= 0 or hi < lo:
            raise RumorcastError("--lambda-range: need step > 0 and hi >= lo")
        # the last k the range lists, to rounding; counted before anything is listed
        last = (hi - lo + 1e-12) / step
        if last >= _MAX_LAMBDA_VALUES:
            raise RumorcastError(
                f"--lambda-range: more than {_MAX_LAMBDA_VALUES:,} values; use a larger STEP"
            )
        # ascending, so a value that rounds onto its predecessor's is listed once
        listed = (lo + k * step for k in range(int(last) + 2))
        values = list(dict.fromkeys(value for value in listed if value <= hi + 1e-12))
    if not values:
        raise RumorcastError("no lambda values to sweep")
    bad = [value for value in values if not 0.0 <= value < math.inf]  # NaN fails too
    if bad:
        flag = "--lambdas" if args.lambdas is not None else "--lambda-range"
        raise RumorcastError(f"{flag}: sensitivities must be finite and >= 0, got {bad[0]!r}")
    return values


def cmd_sweep_lambda(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.agent != "all" and args.agent not in scenario.attrs:
        raise RumorcastError(f"--agent: unknown agent {args.agent!r}")
    tree = _scenario_tree(scenario, args.root)
    swept_agent = None if args.agent == "all" else args.agent
    rows = []
    for lam in _lambda_values(args):
        swept = dataclasses.replace(scenario, attrs=scenario.attrs.with_lam(lam, swept_agent))
        result = solve_global(tree, swept.profiles_for(tree), scenario.evidence, args.tolerance)
        reactions, sends = _joined_actions(result)
        rows.append(
            {
                "lambda": lam,
                "reactions": reactions or None,
                "sends": sends or None,
                "reach_count": result.reach_count,
                "exists": result.exists,
                "unique": result.unique,
            }
        )
    columns = ["lambda", "reactions", "sends", "reach_count", "exists", "unique"]
    _emit(_render(rows, columns, args.format), args.out)
    return 0


def cmd_sweep_root(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.belief_default != DIRAC_TRUTH or scenario.belief_overrides:
        raise RumorcastError(
            "sweep-root needs dirac-truth beliefs: explicit atoms cannot follow the re-rooting"
        )
    if scenario.topology.kind == "tree":
        graph = undirected_closure(scenario.tree())
    else:
        graph = scenario.graph()
    sweep = reach_by_root(graph, scenario.attrs, scenario.evidence, args.tolerance)
    rows = []
    best = 0
    for root, result in sweep.items():
        no_send = ";".join(
            str(a)
            for a in natural_sorted(result.sender_actions)
            if result.send_of(a) is SenderAction.NOSEND
        )
        rows.append(
            {
                "root": root,
                "reach_count": result.reach_count,
                "exists": result.exists,
                "unique": result.unique,
                "no_send_at": no_send or None,
                "failing_room": result.failing_room,
            }
        )
        if result.exists:
            best = max(best, result.reach_count)
    for row in rows:
        row["is_max"] = bool(row["exists"]) and row["reach_count"] == best
    columns = ["root", "reach_count", "exists", "unique", "no_send_at", "failing_room", "is_max"]
    _emit(_render(rows, columns, args.format), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        text = fh.read()
    diagnostics = scenario_diagnostics(text)
    rows = [{"kind": d.kind, "detail": d.detail} for d in diagnostics]
    if not rows:
        rows = [{"kind": "ok", "detail": "no problems found"}]
    _emit(_render(rows, ["kind", "detail"], args.format), args.out)
    return 0 if not diagnostics else 1


def cmd_normalize(args: argparse.Namespace) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        text = fh.read()
    _emit(normalize_scenario(text), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorcast",
        description="Solve and explore peer-pressured message cascades.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario file")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--format", choices=_FORMATS, default="table", help="report format")
    common.add_argument("--tolerance", type=_tolerance, default=EPS, help="numeric comparison slack")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="resolve one cascade")
    p_solve.add_argument("--root", default=None, help="initial sender (graph scenarios only)")
    p_solve.set_defaults(func=cmd_solve)

    p_slam = sub.add_parser(
        "sweep-lambda", parents=[common], help="re-solve across sensitivity values"
    )
    p_slam.add_argument("--agent", required=True, help="agent id to sweep, or 'all'")
    group = p_slam.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambdas", default=None, help="comma-separated values")
    group.add_argument("--lambda-range", default=None, help="LO:HI:STEP inclusive")
    p_slam.add_argument("--root", default=None, help="initial sender (graph scenarios only)")
    p_slam.set_defaults(func=cmd_sweep_lambda)

    p_sroot = sub.add_parser(
        "sweep-root", parents=[common], help="re-solve from every possible initial sender"
    )
    p_sroot.set_defaults(func=cmd_sweep_root)

    p_val = sub.add_parser("validate", parents=[common], help="report every problem in a file")
    p_val.set_defaults(func=cmd_validate)

    p_norm = sub.add_parser(
        "normalize", parents=[common], help="emit the canonical form of a scenario"
    )
    p_norm.set_defaults(func=cmd_normalize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, but 2 means "no equilibrium"
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except RumorcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
