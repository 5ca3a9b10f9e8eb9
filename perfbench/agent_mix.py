"""Measure the tool-call mix of the repo's own simulated agents.

Runs :func:`repro.bench.runner.run_db_task` (``SimulatedDataAgentPolicy``
driving ``ReActAgent`` over the BridgeScope toolkit) on the whole
BIRD-Ext suite, for every model profile, as the ``admin`` and the
``normal`` role, and tallies the tool calls the agents made: calls per
task by tool, read against write calls, denied calls, and what kind of
statement each ``select`` was. ``agent_oltp`` takes its per-task tool
mix from these figures (see NOTES.md, "Where agent_oltp's mix comes
from"); ``selftest.py`` checks that the two still agree.

Run from the repository root::

    python3 perfbench/agent_mix.py            # prints the tables
    python3 perfbench/agent_mix.py --json     # one JSON object
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.bench.bird_ext import generate_bird_ext_tasks  # noqa: E402
from repro.bench.datasets import build_bird_database  # noqa: E402
from repro.bench.runner import run_db_task  # noqa: E402
from repro.llm import PROFILES  # noqa: E402

ROLES = ("admin", "normal")
#: the call mix does not depend on the data's size, only on the tasks;
#: a small database keeps the run to a few seconds
SCALE = 0.05
WRITE_TOOLS = ("insert", "update", "delete")


def classify(sql: str, primary_keys: dict[str, tuple[str, ...]]) -> str:
    """The kind of a ``select``: point (one row by its whole primary
    key), join, aggregate, order_limit, filter, or scan."""
    text = " ".join(sql.split())
    upper = text.upper()
    if " JOIN " in upper or " EXISTS " in upper or "(SELECT " in upper:
        return "join"
    if " GROUP BY " in upper or re.search(r"\b(COUNT|SUM|AVG|MIN|MAX)\(", upper) or " DISTINCT " in upper:
        return "aggregate"
    if " ORDER BY " in upper:
        return "order_limit"
    match = re.search(r"\bFROM (\w+)(?: \w+)? WHERE (.*)$", text, re.IGNORECASE)
    if match is None:
        return "scan"
    table, where = match.group(1), match.group(2)
    keys = primary_keys.get(table, ())
    if len(keys) == 1 and re.fullmatch(rf"(\w+\.)?{keys[0]} = [\w']+", where.strip()):
        return "point"
    return "filter"


def measure_mix() -> dict:
    """Tally the agents' tool calls per role over every profile."""
    db = build_bird_database(seed=0, scale=SCALE)
    primary_keys = {
        name: tuple(db.catalog.table(name).primary_key) for name in db.catalog.tables
    }
    tasks = generate_bird_ext_tasks(seed=0)
    sequences = {
        role: [
            [(record.tool, record.args, record.ok) for record in
             run_db_task(task, "bridgescope", profile, role=role, scale=SCALE).trace.tool_calls]
            for profile in PROFILES.values()
            for task in tasks
        ]
        for role in ROLES
    }
    mix = {}
    for role, runs in sequences.items():
        calls = [call for run in runs for call in run]
        tools = Counter(tool for tool, _, _ in calls)
        kinds = Counter(
            classify(args.get("sql", ""), primary_keys) for tool, args, _ in calls if tool == "select"
        )
        mix[role] = {
            "task_runs": len(runs),
            "tasks_without_calls": sum(1 for run in runs if not run),
            "calls_per_task": len(calls) / len(runs),
            "calls_per_task_by_tool": {tool: n / len(runs) for tool, n in sorted(tools.items())},
            "write_call_share": sum(tools[t] for t in WRITE_TOOLS) / len(calls),
            "denied_call_share": sum(1 for _, _, ok in calls if not ok) / len(calls),
            "select_kind_share": {kind: n / sum(kinds.values()) for kind, n in sorted(kinds.items())},
        }
    return {
        "scale": SCALE,
        "profiles": sorted(PROFILES),
        "suite_tasks": len(tasks),
        "roles": mix,
        "agent_oltp_shares": derived_shares(sequences),
    }


def derived_shares(sequences: dict[str, list[list[tuple]]]) -> dict[str, float]:
    """The per-task shares ``workloads.AGENT_MIX`` takes from the traces."""

    def names(run: list[tuple]) -> set[str]:
        return {tool for tool, _, _ in run}

    admin = [names(run) for run in sequences["admin"] if run]
    writes = [run for run in admin if run & set(WRITE_TOOLS)]
    reads = [run for run in admin if "select" in run and not run & set(WRITE_TOOLS)]
    normal = [names(run) for run in sequences["normal"] if run]
    return {
        "admin_write_task": len(writes) / len(admin),
        "read_get_value": sum("get_value" in run for run in reads) / len(reads),
        "write_get_value": sum("get_value" in run for run in writes) / len(writes),
        "write_in_transaction": sum("begin" in run for run in writes) / len(writes),
        "normal_write_attempt": sum("select" not in run for run in normal) / len(normal),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    mix = measure_mix()
    if args.json:
        print(json.dumps(mix, indent=1))
        return 0
    print(f"BIRD-Ext suite: {mix['suite_tasks']} tasks x profiles {mix['profiles']}, scale {mix['scale']}")
    for role in ROLES:
        figures = mix["roles"][role]
        print(f"\n{role}: {figures['task_runs']} task runs ({figures['tasks_without_calls']} without "
              f"a call), {figures['calls_per_task']:.3f} calls per task")
        for tool, share in figures["calls_per_task_by_tool"].items():
            print(f"  {tool:<12} {share:.3f} calls per task")
        for key in ("write_call_share", "denied_call_share"):
            print(f"  {key:<20} {figures[key]:.3f}")
        for kind, share in figures["select_kind_share"].items():
            print(f"  select {kind:<13} {100 * share:.1f}%")
    print("\nagent_oltp shares (per task with a call):")
    for key, share in mix["agent_oltp_shares"].items():
        print(f"  {key:<22} {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
