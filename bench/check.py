"""Correctness gate: report digests, workload mechanisms, toy-size oracles.

Three kinds of check, each counted as one attempt:

- every invocation's exit code and report sha256 must equal the reference:
  the pinned references in ``references.json`` for the pinned seed, and a
  fresh-process run of the same command for any other seed;
- the report must show the mechanism the workload was built for (the root
  sends, every hub room opens, every sender sends, ...);
- toy-size instances from the same generator, run through the CLI, must
  agree with ``rumorcast.oracle.oracle_global``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, field

from workloads import WORKLOADS, Workload, scenario_text

PINNED_SEED = 1
#: Toy instances checked against the oracle in every run.
TOY_INSTANCES = 20
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass
class Checks:
    """Tally of checks attempted, and a message for each one that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_reference(workload: str, seed: int) -> dict | None:
    """The reference recorded at the seed commit, for the pinned seed only."""
    if seed != PINNED_SEED:
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def _rows(report: str) -> list[dict]:
    return [json.loads(line) for line in report.splitlines()]


def _joined(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    return dict(part.split("=", 1) for part in text.split(";"))


def report_shape(workload: Workload, report: str) -> dict:
    """What the report says the workload did: agents, reach, rooms, sends."""
    rows = _rows(report)
    command = workload.argv("-")[0]
    if command == "solve":
        agents = [r for r in rows if r["kind"] == "agent"]
        summary = rows[-1]
        sends = [r["send"] for r in agents if r["send"] is not None]
        return {
            "agents": len(agents),
            "reach_count": summary["reach_count"],
            "decisions": len(sends),
            "sends": sends.count("send"),
            "root_sends": agents[0]["send"] == "send",
            "exists": summary["exists"],
        }
    if command == "sweep-lambda":
        sends = [_joined(r["sends"]) for r in rows]
        return {
            "lambdas": len(rows),
            "reach_count": [r["reach_count"] for r in rows],
            "decisions": sum(len(s) for s in sends),
            "sends": sum(list(s.values()).count("send") for s in sends),
            "exists": all(r["exists"] for r in rows),
        }
    return {
        "rootings": len(rows),
        "reach_total": sum(r["reach_count"] for r in rows),
        "reach_max": max(r["reach_count"] for r in rows),
        "nosend": sum(len(r["no_send_at"].split(";")) for r in rows if r["no_send_at"]),
        "exists": all(r["exists"] for r in rows),
    }


def check_mechanism(workload: Workload, shape: dict, checks: Checks) -> None:
    """The report shows the mechanism the workload's reason depends on."""
    name = workload.name
    checks.expect(shape["exists"], f"{name}: a reached room has no equilibrium")
    if name == "deep_tree":
        checks.expect(shape["root_sends"], f"{name}: the root does not send")
        checks.expect(
            shape["reach_count"] < 0.01 * shape["agents"],
            f"{name}: reach {shape['reach_count']} is not below 1% of {shape['agents']} agents",
        )
    elif name == "wide_sweep":
        checks.expect(
            shape["sends"] == 3 * shape["lambdas"],
            f"{name}: {shape['sends']} sends over {shape['lambdas']} sensitivities, "
            "expected the root and both hubs to send at each",
        )
    elif name == "block_sweep":
        checks.expect(shape["rootings"] > 1, f"{name}: nothing to sweep")
    elif name == "interval_senders":
        checks.expect(
            shape["decisions"] > 1 and shape["sends"] == shape["decisions"],
            f"{name}: {shape['sends']} of {shape['decisions']} senders send, expected all",
        )


# ---------------------------------------------------------------------------
# toy-size oracle


def _run_cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _assignment(tree, reactions: dict[str, str], sends: dict[str, str]):
    from rumorcast.receiver import ReceiverAction
    from rumorcast.sender import SenderAction

    react = {a.word: a for a in ReceiverAction}
    send = {"send": SenderAction.SEND, "no-send": SenderAction.NOSEND}
    return tuple(
        (agent, react.get(reactions.get(agent)), send.get(sends.get(agent)))
        for agent in tree.agents
    )


def _reached(assignment) -> int:
    # the root plus everyone who reacted
    return 1 + sum(1 for _, reaction, _ in assignment if reaction is not None)


def check_oracle(workload: Workload, seed: int, workdir: str, checks: Checks) -> None:
    """Run the CLI on toy instances and compare with exhaustive enumeration."""
    for index in range(TOY_INSTANCES):
        path = os.path.join(workdir, f"toy{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, seed, toy=index))
        _check_toy(workload, path, f"{workload.name} toy {index}", checks)


def _check_toy(workload: Workload, path: str, name: str, checks: Checks) -> None:
    from rumorcast.cli import main
    from rumorcast.network import dirac_truth_profiles, root_tree
    from rumorcast.oracle import oracle_global
    from rumorcast.scenario import load_scenario

    argv = workload.argv(path)
    code, report = _run_cli(main, argv)
    checks.expect(code == 0, f"{name}: exit code {code}")
    if code != 0:
        return
    scenario = load_scenario(path)
    rows = _rows(report)

    if argv[0] == "solve":
        tree = scenario.tree()
        found = oracle_global(tree, scenario.profiles_for(tree), scenario.evidence)
        agents = [r for r in rows if r["kind"] == "agent"]
        got = _assignment(
            tree,
            {r["agent"]: r["reaction"] for r in agents if r["reaction"]},
            {r["agent"]: r["send"] for r in agents if r["send"]},
        )
        checks.expect(got in found, f"{name}: cascade not among the oracle's equilibria")
        checks.expect(rows[-1]["unique"] == (len(found) == 1), f"{name}: uniqueness differs")
    elif argv[0] == "sweep-lambda":
        tree = scenario.tree()
        for row in rows:
            attrs = {a: dataclasses.replace(p, lam=row["lambda"]) for a, p in scenario.attrs.items()}
            swept = dataclasses.replace(scenario, attrs=attrs)
            found = oracle_global(tree, swept.profiles_for(tree), scenario.evidence)
            got = _assignment(tree, _joined(row["reactions"]), _joined(row["sends"]))
            checks.expect(got in found, f"{name}: lambda {row['lambda']} not among the oracle's equilibria")
            checks.expect(row["unique"] == (len(found) == 1), f"{name}: lambda {row['lambda']} uniqueness differs")
    else:
        graph = scenario.graph()
        for row in rows:
            tree = root_tree(graph, row["root"])
            found = oracle_global(tree, dirac_truth_profiles(tree, scenario.attrs), scenario.evidence)
            nosend = set(row["no_send_at"].split(";")) if row["no_send_at"] else set()
            matches = [
                a
                for a in found
                if _reached(a) == row["reach_count"]
                and {agent for agent, _, s in a if s is not None and s.value == "NS"} == nosend
            ]
            checks.expect(bool(matches), f"{name}: root {row['root']} not among the oracle's equilibria")
            checks.expect(row["unique"] == (len(found) == 1), f"{name}: root {row['root']} uniqueness differs")


def record_references() -> dict:
    """Exit code and report digest of every workload at the pinned seed.

    Run at the seed commit; the output is ``references.json``.
    """
    from rumorcast.cli import main

    out = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in WORKLOADS.values():
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scenario_text(workload, PINNED_SEED))
            code, report = _run_cli(main, workload.argv(path))
            out[workload.name] = {"exit": code, "sha256": digest(report)}
    return {"seed": PINNED_SEED, "workloads": out}
