"""Every benchmark workload runs under the bench tracer, at toy size.

``bench/run.py --trace 1`` wraps call sites whose observers read what the
program hands them (``_count_reach`` reads ``len(tree.agents)`` of whatever
``solve_global`` was given, for instance).  Running each workload's toy
instance here, traced as ``bench/run.py`` traces it, makes a missing
attribute or a vanished metric a test failure instead.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rumorcast.cli import main

_ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")
# trace.overhead_s compares traced with untraced calls, so bench/run.py adds it
PER_LAYER = [
    metric["name"]
    for metric in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if metric["name"] != "trace.overhead_s"
]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    path = tmp_path / "scenario.json"
    path.write_text(workloads.scenario_text(workload, 1, toy=0))
    t = tracer.Tracer()
    traced_main = t.span("cli", main)
    t.begin_invocation()
    with t.installed():
        code = traced_main(workload.argv(str(path)))
    assert code == 0, capsys.readouterr().err
    metrics = tracer.layer_metrics(t)
    assert [m for m in PER_LAYER if m not in metrics] == []
    if workload.argv(str(path))[0] in ("sweep-root", "sweep-lambda"):
        # each sweep shares its rooms across cascades, so it runs no solve_global:
        # sweep-root solves each (agent, entry block) room once, not one cascade per
        # root, and sweep-lambda builds each room's peers and makes each send
        # decision once, not one cascade per sensitivity
        assert metrics["network.solve_global.calls"] == 0
    else:
        assert metrics["network.solve_global.calls"] >= 1
