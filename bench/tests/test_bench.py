"""Tests of the benchmark's own logic: generators, self times, compare mode.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from compare import compare, verdict  # noqa: E402
from tracer import Span, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    workload = WORKLOADS[name]
    assert scenario_text(workload, 7) == scenario_text(workload, 7)
    assert scenario_text(workload, 7) != scenario_text(workload, 8)
    assert scenario_text(workload, 7, toy=0) == scenario_text(workload, 7, toy=0)
    assert scenario_text(workload, 7, toy=0) != scenario_text(workload, 7, toy=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_instances_fit_the_oracle(name):
    doc = json.loads(scenario_text(WORKLOADS[name], 3, toy=0))
    assert len(doc["agents"]) <= 6


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (6, 7)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("a.leaf", 2.0, 3.5, 1, 1),
        Span("b.leaf", 5.0, 6.0, 2, 1),
        Span("b.leaf", 8.0, 9.0, 2, 1),
    ]
    got = self_times(list(enumerate(spans)))
    assert got == pytest.approx({0: 3.0, 1: 1.5, 2: 2.0, 3: 1.5, 4: 1.0, 5: 1.0})


def test_speed_scaled_divides_each_time_by_the_calibrations_around_it(monkeypatch):
    import run

    calibrations = iter([0.1, 0.3, 0.15])
    times = iter([2.0, 3.0])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    raw, cals, scaled = run.speed_scaled(lambda: next(times), lambda n: n < 2)
    assert raw == [2.0, 3.0]
    assert cals == [0.1, 0.3, 0.15]
    assert scaled == pytest.approx([2.0 * run.CAL_REF_S / 0.2, 3.0 * run.CAL_REF_S / 0.225])


def test_verdict_gain():
    base = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    new = [b * 0.8 for b in base]
    assert verdict(base, new, list(zip(base, new)), 0.1, True) == ("gain", 10)


def test_verdict_no_worse_within_bound():
    base = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    new = [b * 1.03 for b in base]
    assert verdict(base, new, list(zip(base, new)), 0.1, True) == ("no worse within bound", 0)


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    new = list(reversed(base))
    assert verdict(base, new, list(zip(base, new)), 0.1, True)[0] == "unresolved"


def test_verdict_worse():
    base = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    new = [b * 1.3 for b in base]
    assert verdict(base, new, list(zip(base, new)), 0.1, True) == ("worse", 0)


def test_verdict_higher_is_better():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    new = [b * 1.2 for b in base]
    assert verdict(base, new, list(zip(base, new)), 0.1, False) == ("gain", 10)


def test_compare_pairs_runs_by_workload_and_seed(tmp_path):
    def write(path, scale):
        with open(path, "w", encoding="utf-8") as fh:
            for seed in range(10):
                for workload, base in (("deep_tree", 2.0), ("block_sweep", 3.0)):
                    value = base * (1 + 0.01 * (seed % 3)) * scale[workload]
                    fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, "metrics": {"cmd_s": value}}) + "\n")
                fh.write(json.dumps({"workload": "deep_tree", "seed": seed, "trace": 1, "metrics": {}}) + "\n")

    write(tmp_path / "base.jsonl", {"deep_tree": 1.0, "block_sweep": 1.0})
    write(tmp_path / "new.jsonl", {"deep_tree": 1.0, "block_sweep": 0.5})
    spec = {"end_to_end": [{"name": "cmd_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    rows = {r["workload"]: r for r in compare(str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl"), spec)}
    assert rows["block_sweep"]["verdict"] == "gain"
    assert rows["block_sweep"]["won"] == rows["block_sweep"]["pairs"] == 10
    assert rows["deep_tree"]["verdict"] == "no worse within bound"


def test_benchmark_json_lists_only_reported_metrics():
    from compare import load_spec
    from tracer import Tracer, layer_metrics, unit

    spec = load_spec()
    assert {m["name"] for m in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "cmd_s", "peak_rss_mb"]
    reported = [*layer_metrics(Tracer()), "trace.overhead_s"]
    assert {m["name"] for m in spec["per_layer"]} <= set(reported)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == unit(metric["name"])
