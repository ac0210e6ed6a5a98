"""Batch front end: solve scenarios, sweep parameters, validate files.

Subcommands: solve, sweep-lambda, sweep-root, validate, normalize.  Reports
come out as a human table (default), CSV, or JSON lines; identical inputs
produce byte-identical reports.  Exit codes: 0 ok, 1 input error, 2 solve
walked into a room with no equilibrium.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, Sequence

from .belief import EPS, check_tol
from .errors import DomainError, RangeViolation, RumorcastError
from .network import (
    CascadeResult,
    OrderedTree,
    chatrooms_of,
    credence_errors,
    natural_sorted,
    reach_by_root,  # unused here; bench/tracer.py wraps this binding by name
    root_summaries,
    root_tree,
    solve_global,
    sweep_lambda,
    undirected_closure,
)
from .receiver import check_sensitivity
from .scenario import (
    DIRAC_TRUTH,
    Scenario,
    load_scenario,
    normalize_scenario,
    scenario_diagnostics,
)

_FORMATS = ("table", "csv", "json-lines")


# ---------------------------------------------------------------------------
# report assembly


def _table_cell(value: Any) -> str:
    if value is None:
        return "-"
    if value is True or value is False:
        return "yes" if value else "no"
    return str(value)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return str(value)


def _column(
    values: list[Any], cell: Callable[[Any], str], text: Callable[[str], str]
) -> Iterable[str]:
    """``cell`` of each value, ``text`` of each when all are strings, and
    one ``cell`` call per distinct value when the column holds only strings,
    None and bools, as few-valued columns do."""
    kinds = set(map(type, values))
    if kinds <= {str}:
        return map(text, values)
    if kinds <= {str, type(None), bool}:  # no ints, which would hash like the bools
        written = {value: cell(value) for value in set(values)}
        return map(written.__getitem__, values)
    return map(cell, values)


# A report is a list of blocks.  A block maps each of its keys (at least one) to
# a column, one scalar (str, int, float, bool or None) per row, all columns of
# one length; its rows have exactly those keys.  Table and csv reports show a
# key a block lacks as None.


def _length(block: Mapping[str, list[Any]]) -> int:
    return len(next(iter(block.values())))


def _json_lines(blocks: list[Mapping[str, list[Any]]]) -> str:
    """``json.dumps(row, sort_keys=True)`` for each row, one per line, written
    a column at a time and then interleaved with the keys."""
    pieces: list[Iterable[str]] = []
    for block in blocks:
        cells: list[Iterable[str]] = [repeat("{", _length(block))]
        for k, name in enumerate(sorted(block)):
            cells.append(repeat((", " if k else "") + encode_basestring_ascii(name) + ": "))
            cells.append(_column(block[name], json.dumps, encode_basestring_ascii))
        cells.append(repeat("}\n"))
        pieces.append(chain.from_iterable(zip(*cells)))
    return "".join(chain.from_iterable(pieces))


def _render(blocks: list[Mapping[str, list[Any]]], columns: list[str], fmt: str) -> str:
    """The report of ``blocks`` in ``fmt``, each column of ``columns`` written
    at once; json-lines rows hold their block's keys."""
    if fmt == "json-lines":
        return _json_lines(blocks)
    cell = _csv_cell if fmt == "csv" else _table_cell
    missing = cell(None)
    cells = [
        list(chain.from_iterable(
            _column(block[name], cell, str) if name in block else repeat(missing, _length(block))
            for block in blocks
        ))
        for name in columns
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))
        return buf.getvalue()
    padded = [_padded([name, *column]) for name, column in zip(columns, cells)]
    return "\n".join(map(str.rstrip, map("  ".join, zip(*padded)))) + "\n"


def _padded(column: list[str]) -> Iterable[str]:
    """The cells of ``column`` padded to the widest one's length."""
    width = max(map(len, column))
    return map(str.ljust, column, repeat(width))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cascade_blocks(tree: OrderedTree, result: CascadeResult) -> list[dict[str, list[Any]]]:
    agents = natural_sorted(tree.agents)
    reach = result.reach
    reactions = {a: action.word for a, action in result.receiver_actions.items()}
    sends = {a: action.word for a, action in result.sender_actions.items()}
    summary = {
        "kind": "summary",
        "exists": result.exists,
        "unique": result.unique,
        "reach_count": result.reach_count,
        "multiple_rooms": ";".join(str(a) for a in result.multiple_rooms) or None,
        "failing_room": result.failing_room,
    }
    return [
        {
            "kind": ["agent"] * len(agents),
            "agent": agents,
            "reached": list(map(reach.__contains__, agents)),
            "reaction": list(map(reactions.get, agents)),
            "send": list(map(sends.get, agents)),
        },
        {key: [value] for key, value in summary.items()},
    ]


_CASCADE_COLUMNS = [
    "kind", "agent", "reached", "reaction", "send",
    "exists", "unique", "reach_count", "multiple_rooms", "failing_room",
]


class _Cells(dict):
    """``agent=word`` report cells by (agent, action), each formatted once."""

    def __missing__(self, key: tuple[Any, Any]) -> str:
        cell = self[key] = f"{key[0]}={key[1].word}"
        return cell

    def joined(self, actions: Mapping[Any, Any], rank: Mapping[Any, int]) -> str | None:
        """The cells of ``actions``, in the agents' ``rank`` order."""
        agents = sorted(actions, key=rank.__getitem__)
        return ";".join(map(self.__getitem__, zip(agents, map(actions.__getitem__, agents)))) or None


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
    _emit(_render(_cascade_blocks(tree, result), _CASCADE_COLUMNS, args.format), args.out)
    return 0 if result.exists else 2


_MAX_LAMBDA_VALUES = 100_000


def _lambda_values(args: argparse.Namespace) -> list[float]:
    if args.lambdas is not None:
        try:
            values = [float(part) for part in args.lambdas.split(",") if part.strip()]
        except ValueError as exc:
            raise RumorcastError(f"--lambdas: {exc}") from exc
        if not values:  # a range lists at least LO
            raise RumorcastError("--lambdas: no lambda values to sweep")
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
    try:
        for value in values:
            check_sensitivity(value)
    except RangeViolation:
        flag = "--lambdas" if args.lambdas is not None else "--lambda-range"
        raise RumorcastError(f"{flag}: sensitivities must be finite and >= 0, got {value!r}") from None
    return values


def cmd_sweep_lambda(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.agent != "all" and args.agent not in scenario.attrs:
        raise RumorcastError(f"--agent: unknown agent {args.agent!r}")
    tree = _scenario_tree(scenario, args.root)
    lams = _lambda_values(args)
    swept = None if args.agent == "all" else args.agent
    results = sweep_lambda(tree, scenario.profiles_for(tree), scenario.evidence, lams, swept, args.tolerance)
    # ids that tie in natural order keep tree order, which is the order the cascade lists them in
    rank = dict(zip(natural_sorted(tree.agents), count()))
    cells = _Cells()
    rows, previous = [], None
    for lam, result in zip(lams, results):
        if result is not previous:  # the sweep yields a result again when no room it opened changed
            previous, summary = result, (
                cells.joined(result.receiver_actions, rank), cells.joined(result.sender_actions, rank),
                result.reach_count, result.exists, result.unique,
            )
        rows.append((lam, *summary))
    columns = ["lambda", "reactions", "sends", "reach_count", "exists", "unique"]
    block = dict(zip(columns, map(list, zip(*rows))))
    _emit(_render([block], columns, args.format), args.out)
    return 0


def cmd_sweep_root(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.belief_default != DIRAC_TRUTH or scenario.belief_overrides:
        raise RumorcastError(
            "sweep-root needs dirac-truth beliefs: explicit atoms cannot follow the re-rooting"
        )
    if scenario.topology.kind == "tree":
        tree = scenario.tree()
        # any room-mate sends in some rooting, so the sweep reads every credence
        # and stops on the first off-band one that validate lists
        profiles = scenario.profiles_for(tree)
        for text in credence_errors(profiles, chatrooms_of(tree), scenario.evidence, args.tolerance):
            raise DomainError(text)
        graph = undirected_closure(tree)
    else:
        graph = scenario.graph()
    rows = root_summaries(graph, scenario.attrs, scenario.evidence, args.tolerance)
    counts = [row.reach_count for row in rows.values()]
    best = max(counts, default=0)
    # under known types every cascade exists and no room fails
    block = {
        "root": list(rows),
        "reach_count": counts,
        "exists": [True] * len(rows),
        "unique": [row.unique for row in rows.values()],
        "no_send_at": [";".join(map(str, row.no_send_at)) or None for row in rows.values()],
        "failing_room": [None] * len(rows),
        "is_max": [count == best for count in counts],
    }
    _emit(_render([block], list(block), args.format), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    with open(args.scenario, "rb") as fh:
        diagnostics = scenario_diagnostics(fh.read(), args.tolerance)
    block = {
        "kind": [d.kind for d in diagnostics] or ["ok"],
        "detail": [d.detail for d in diagnostics] or ["no problems found"],
    }
    _emit(_render([block], list(block), args.format), args.out)
    return 0 if not diagnostics else 1


def cmd_normalize(args: argparse.Namespace) -> int:
    with open(args.scenario, "rb") as fh:
        document = fh.read()
    _emit(normalize_scenario(document), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        check_tol(value)
    except ValueError:  # RangeViolation is one
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None
    return value


@functools.cache  # built on the first call, once per process
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
    except (RumorcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
