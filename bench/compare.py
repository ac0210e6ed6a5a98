"""Compare two sets of benchmark runs, workload by workload.

Each input is a JSON-lines file of run records (``run.py --results FILE``).
Untraced runs of the same workload and seed on both sides form a pair.  For
every workload and end-to-end metric the report gives each side's median and
quartiles, the pairs the new side won, and a verdict:

- ``gain``: the new side wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the base side's
  interquartile distance;
- ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound, unless every new run is better than every base run;
- ``no worse within bound``: the new median is worse than the base median
  by no more than the bound;
- ``worse``: anything else.

Bounds and directions come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec() -> dict:
    """The benchmark's metric definitions: names, units, directions, bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def load_runs(path: str) -> dict[str, dict[int, dict[str, float]]]:
    """Untraced runs as workload -> seed -> metric values."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], {})[record["seed"]] = record["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]], bound: float, lower_is_better: bool) -> tuple[str, int]:
    """Verdict for one metric on one workload, and the pairs the new side won."""
    sign = 1.0 if lower_is_better else -1.0
    won = sum(1 for b, n in pairs if sign * (b - n) > 0)
    base_q1, base_med, base_q3 = quartiles(base)
    new_q1, new_med, new_q3 = quartiles(new)
    if pairs and won >= 0.9 * len(pairs) and sign * (base_med - new_med) > base_q3 - base_q1:
        return "gain", won
    spread = max((base_q3 - base_q1) / abs(base_med), (new_q3 - new_q1) / abs(new_med))
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved", won
    if sign * (new_med - base_med) <= bound * abs(base_med):
        return "no worse within bound", won
    return "worse", won


def compare(base_path: str, new_path: str, spec: dict) -> list[dict]:
    base_runs, new_runs = load_runs(base_path), load_runs(new_path)
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        seeds = sorted(set(base) & set(new))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run[name] for run in base.values()]
            n = [run[name] for run in new.values()]
            pairs = [(base[s][name], new[s][name]) for s in seeds]
            result, won = verdict(b, n, pairs, metric["bound"], metric["better"] == "lower")
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": quartiles(b),
                    "new": quartiles(n),
                    "won": won,
                    "pairs": len(pairs),
                    "verdict": result,
                }
            )
    return rows


def compare_main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1], load_spec())
    if not rows:
        print("error: no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<17} {'metric':<12} {'base median [q1, q3]':<30} {'new median [q1, q3]':<30} {'won':>7}  verdict")
    for row in rows:
        side = "{1:.4g} [{0:.4g}, {2:.4g}] " + row["unit"]
        print(
            f"{row['workload']:<17} {row['metric']:<12} {side.format(*row['base']):<30} "
            f"{side.format(*row['new']):<30} {row['won']:>3}/{row['pairs']:<3}  {row['verdict']}"
        )
    return 0
