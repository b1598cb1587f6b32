"""Tier-1 gate-margin report: how much room each wall-clock gate has left.

    python3 perfbench/gates.py

Runs the Tier-1 suite once (which runs the acceptance module once) with
output capture off, and records its wall time, each acceptance criterion's
elapsed time as its PASS line prints it, the wall-clock gate its test asserts
(``assert elapsed < N``, read from the test source), and the margin left
under that gate. This is a report beside the benchmark, not one of its
metrics. It prints a JSON report and writes it under ``perfbench/results/``.
"""

from __future__ import annotations

import ast
import json
import os
import platform
import re
import subprocess
import sys
import time

from run import git_commit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
PASS_LINE = re.compile(r"criterion (\d+): PASS \(([0-9.]+) s\)")


def criterion_gates(source: str) -> dict:
    """criterion number -> the N of its ``assert elapsed < N``, if it has one."""
    gates = {}
    for node in ast.walk(ast.parse(source)):
        match = isinstance(node, ast.FunctionDef) and re.match(r"test_criterion_(\d+)_",
                                                               node.name)
        if not match:
            continue
        for inner in ast.walk(node):
            test = inner.test if isinstance(inner, ast.Assert) else None
            if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                    and test.left.id == "elapsed" and isinstance(test.ops[0], ast.Lt)
                    and isinstance(test.comparators[0], ast.Constant)):
                gates[int(match.group(1))] = test.comparators[0].value
    return gates


def margins(output: str, gates: dict) -> list:
    rows = []
    for criterion, elapsed in PASS_LINE.findall(output):
        criterion, elapsed = int(criterion), float(elapsed)
        gate = gates.get(criterion)
        rows.append({
            "criterion": criterion,
            "elapsed_s": elapsed,
            "gate_s": gate,
            "margin_s": None if gate is None else gate - elapsed,
            "margin_share": None if gate is None else (gate - elapsed) / gate,
        })
    return rows


def main() -> int:
    with open(ACCEPTANCE, encoding="utf-8") as handle:
        gates = criterion_gates(handle.read())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "tier1_wall_s": wall,
        "tier1_exit_code": done.returncode,
        "tier1_summary": summary,
        "criteria": margins(done.stdout, gates),
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"gates-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for row in report["criteria"]:
        gate = "no gate" if row["gate_s"] is None else \
            f"gate {row['gate_s']} s, margin {row['margin_s']:.2f} s ({row['margin_share']:.0%})"
        print(f"criterion {row['criterion']}: {row['elapsed_s']:.2f} s, {gate}")
    print(f"tier-1: {summary} (wall {wall:.1f} s, exit {done.returncode})")
    print(json.dumps(report))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
