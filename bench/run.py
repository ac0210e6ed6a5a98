"""rumorcast benchmark: seeded CLI workloads, end-to-end and per layer.

Run from the repository root::

    python3 bench/run.py --workload deep_tree --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20 --trace 1
    python3 bench/run.py compare base.jsonl new.jsonl

A run writes the workload's scenario file from ``--seed``, then calls the
workload's ``rumorcast`` CLI command in this process as a closed loop: one
caller, invocations back to back, for ``--seconds`` seconds.  The program
sees only the scenario file.  Everything runs in one process without threads;
the fresh-process probes for set-up time and peak memory run one at a time.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``setup_s``: in a fresh interpreter that has imported numpy, the time for
  ``import rumorcast.cli`` and ``load_scenario(file)``; median of several
  probes.
- ``cmd_s``: warm in-process ``rumorcast.cli.main(argv)`` wall time with
  stdout captured to memory; median over the loop.
- ``peak_rss_mb``: ``ru_maxrss`` of a fresh process running the command once.

``setup_s`` and ``cmd_s`` are given at a reference machine speed.  A shared
machine runs the same code up to twice as slowly for tens of seconds at a
time, so a fixed pure-Python calibration loop (``calibrate``) runs before the
first and after every timed probe or call, and each time is scaled by
``CAL_REF_S`` over the mean of the two calibrations around it.  The metric is
the median of the scaled times.  The unscaled medians (``setup_wall_s``,
``cmd_wall_s``) and the calibration median (``calib_s``) are printed above
the JSON line.

With ``--trace 1`` untraced and traced invocations alternate, and the last
line reports the per-layer metrics of ``tracer.layer_metrics`` (medians over
traced invocations) plus ``trace.overhead_s``.  Spans go to
``.bench_out/trace-<workload>-seed<seed>.jsonl`` when the run ends.

Every invocation is checked (see ``check.py``); the run exits 1 when any
check fails.  ``--results FILE`` appends the run's record to FILE for
``compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from check import (  # noqa: E402
    Checks,
    check_mechanism,
    check_oracle,
    digest,
    pinned_reference,
    record_references,
    report_shape,
)
from compare import compare_main, load_spec, quartiles  # noqa: E402
from tracer import Tracer, is_count, layer_metrics, unit  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SRC = os.path.abspath("src")
OUT_DIR = ".bench_out"
WORK_DIR = ".bench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
#: One calibration builds and sums ``CAL_ROUNDS`` lists of ``CAL_ROWS`` rows,
#: then formats ``CAL_LINES`` report-like lines into memory.
CAL_ROUNDS, CAL_ROWS, CAL_LINES = 4, 50_000, 60_000
#: Calibration time that defines the reference machine speed: about the
#: fastest tenth of calibrations on a 2-vCPU Intel Xeon virtual machine.
CAL_REF_S = 0.15


# Fresh interpreter: time from the import of rumorcast.cli until the scenario
# has loaded.  numpy is imported first, outside the timed span: loading its
# shared libraries takes 0.08 s or 0.15 s on a shared machine depending on the
# host's state, not on this program, and the calibration loop does not see it.
_SETUP_PROBE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import rumorcast.cli\n"
    "rumorcast.cli.load_scenario(sys.argv[2])\n"
    "print(repr(time.perf_counter() - start))\n"
)

# Fresh interpreter running the command once, as a user would; the report
# goes to stdout, peak memory to the last line of stderr.
_COMMAND_PROBE = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from rumorcast.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "sys.stdout.flush()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _probe(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, SRC, *args],
        capture_output=True,
        timeout=PROBE_TIMEOUT_S,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )


def setup_probe(path: str) -> float:
    proc = _probe(_SETUP_PROBE, path)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout)


def command_probe(argv: list[str]) -> dict:
    proc = _probe(_COMMAND_PROBE, *argv)
    lines = proc.stderr.decode(errors="replace").splitlines()
    if not (lines and lines[-1].isdigit()):
        raise RuntimeError(f"command probe crashed: {lines[-5:]}")
    return {
        "exit": proc.returncode,
        "sha256": digest(proc.stdout.decode("utf-8")),
        "peak_rss_mb": int(lines[-1]) / 1024.0,
    }


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The loop allocates rows and formats lines, as the CLI does.  It runs with
    the collector off, so that no garbage left by the program and no change to
    its collector settings can move it.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CAL_ROUNDS):
            rows = [{"k": i, "s": str(i), "v": [i, i * 0.5]} for i in range(CAL_ROWS)]
            sum(row["v"][1] for row in rows)
            del rows
        out = io.StringIO()
        for i in range(CAL_LINES):
            out.write('{"agent": "%d", "x": %r}\n' % (i, i / 7.0))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scaled(call, more) -> tuple[list[float], list[float], list[float]]:
    """Time ``call`` while ``more(samples so far)`` holds, calibrating between.

    Returns the raw times, the calibrations (one more than the times) and the
    times scaled to the reference speed ``CAL_REF_S``.
    """
    cals = [calibrate()]
    raw: list[float] = []
    while more(len(raw)):
        raw.append(call())
        cals.append(calibrate())
    scaled = [t * 2.0 * CAL_REF_S / (a + b) for t, a, b in zip(raw, cals, cals[1:])]
    return raw, cals, scaled


def invoke(main, argv: list[str]) -> tuple[float, int, str]:
    """One closed-loop call: wall time, exit code, report text."""
    gc.collect()  # each CLI call starts from a fresh heap in real use
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns its result record."""
    from rumorcast.cli import main

    workload = WORKLOADS[name]
    checks = Checks()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR)
    try:
        path = os.path.join(workdir, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, seed))
        argv = workload.argv(path)

        fresh = command_probe(argv)
        expected = pinned_reference(name, seed) or fresh
        checks.expect(
            (fresh["exit"], fresh["sha256"]) == (expected["exit"], expected["sha256"]),
            f"{name}: fresh-process report {fresh['exit']}/{fresh['sha256'][:12]} differs "
            f"from the reference {expected['exit']}/{expected['sha256'][:12]}",
        )
        check_oracle(workload, seed, workdir, checks)

        shape: dict = {}

        def timed(call) -> float:
            elapsed, code, report = invoke(call, argv)
            checks.expect(
                (code, digest(report)) == (expected["exit"], expected["sha256"]),
                f"{name}: invocation {checks.attempted} gave exit {code}, "
                f"report {digest(report)[:12]}",
            )
            if not shape and code == 0:
                shape.update(report_shape(workload, report))
                check_mechanism(workload, shape, checks)
            return elapsed

        record: dict = {"workload": name, "seed": seed, "trace": int(trace), "shape": shape}
        if trace:
            record.update(_traced_loop(main, timed, seconds, name, seed, checks))
        else:
            setup_raw, setup_cals, setups = speed_scaled(
                lambda: setup_probe(path), lambda n: n < SETUP_PROBES
            )
            deadline = time.perf_counter() + seconds
            raw, cals, samples = speed_scaled(
                lambda: timed(main), lambda n: time.perf_counter() < deadline
            )
            q1, _, q3 = quartiles(samples)
            record["cmd_samples"] = samples
            record["cmd_wall_samples"] = raw
            record["cmd_quartiles"] = [q1, q3]
            record["setup_samples"] = setups
            record["setup_wall_samples"] = setup_raw
            record["calib_samples"] = setup_cals + cals
            record["metrics"] = {
                "setup_s": statistics.median(setups),
                "cmd_s": statistics.median(samples),
                "peak_rss_mb": fresh["peak_rss_mb"],
                "setup_wall_s": statistics.median(setup_raw),
                "cmd_wall_s": statistics.median(raw),
                "calib_s": statistics.median(setup_cals + cals),
            }
        checks.expect(bool(shape), f"{name}: no invocation exited 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["attempted"] = checks.attempted
    record["failed"] = len(checks.failures)
    record["failures"] = checks.failures
    return record


def _traced_loop(main, timed, seconds: float, name: str, seed: int, checks: Checks) -> dict:
    tracer = Tracer()
    traced_main = tracer.span("cli", main)
    plain: list[float] = []
    traced: list[float] = []
    per_invocation: list[dict[str, float]] = []
    origin = time.perf_counter()
    deadline = origin + seconds
    while time.perf_counter() < deadline or not traced:
        plain.append(timed(main))
        tracer.begin_invocation()
        with tracer.installed():
            traced.append(timed(traced_main))
        per_invocation.append(layer_metrics(tracer))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"), origin)

    metrics = {
        metric: statistics.median(row[metric] for row in per_invocation)
        for metric in per_invocation[0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for metric in filter(is_count, per_invocation[0]):
        values = {row[metric] for row in per_invocation}
        checks.expect(len(values) == 1, f"{name}: {metric} differs between invocations: {sorted(values)}")
    return {"metrics": metrics, "cmd_samples": plain, "traced_samples": traced}


def _print_record(record: dict) -> None:
    name = record["workload"]
    attempted, failed = record["attempted"], record["failed"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} shape={json.dumps(record['shape'])}")
    for message in record["failures"]:
        print(f"# FAIL {message}")
    if "cmd_quartiles" in record:
        q1, q3 = record["cmd_quartiles"]
        print(
            f"# {name} cmd_s median {record['metrics']['cmd_s']:.4f} s "
            f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(record['cmd_samples'])})"
        )
    for metric, value in record["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit(metric)}")
    print(f"{name} fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")


def _result_line(records: list[dict], listed: list[dict], prefix: bool) -> str:
    metrics = {}
    for record in records:
        for metric in listed:
            key = f"{record['workload']}.{metric['name']}" if prefix else metric["name"]
            metrics[key] = {"value": record["metrics"][metric["name"]], "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, help="append each run's record to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if not os.path.isfile(os.path.join(SRC, "rumorcast", "cli.py")):
        print(f"error: no rumorcast sources at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if argv[:1] == ["references"]:
        print(json.dumps(record_references(), indent=2))
        return 0
    args = _parse(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = load_spec()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_record(record)
        records.append(record)
        if args.results:
            with open(args.results, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(_result_line(records, listed, prefix=len(records) > 1))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
