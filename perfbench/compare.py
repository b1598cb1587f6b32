"""Summarize benchmark runs, or compare a parent's runs with a change's.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Reads the untraced result files (``*-trace0-*.json``) that ``run.py`` writes.
With one directory it prints, per workload and end-to-end metric, the median,
the quartiles and the spread (interquartile range over the median) against
the metric's bound from ``BENCHMARK.json``. With two it also prints a verdict
per workload and metric -- better, within bound, worse, or unresolved when
the parent's own spread is wider than the bound -- and the share of pairs
each side won. Runs pair up by seed; without common seeds, in run order.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(folder: str, names) -> dict:
    """workload -> untraced run records that carry every metric in ``names``,
    oldest first."""
    runs = defaultdict(list)
    for path in glob.glob(os.path.join(folder, "*-trace0-*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if all(name in record["metrics"] for name in names):
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_utc"])
    return dict(runs)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(parent: list, change: list) -> list:
    """(parent run, change run) pairs: by seed where seeds match, else in order."""
    by_seed = {r["seed"]: r for r in parent}
    matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(parent: list, change: list, paired: list, better: str, bound: float) -> dict:
    """Judge one metric on one workload from the two sides' values."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = (p_q3 - p_q1) / p_med
    gain = sign * (c_med - p_med) / p_med
    change_won = sum(1 for p, c in paired if sign * (c - p) > 0)
    parent_won = sum(1 for p, c in paired if sign * (c - p) < 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        word = "unresolved"
    elif gain < -bound:
        word = "worse"
    elif all_better or (change_won >= 0.9 * len(paired)
                        and sign * (c_med - p_med) > p_q3 - p_q1):
        word = "better"
    else:
        word = "within bound"
    return {"verdict": word, "gain": gain, "spread": spread,
            "change_won": change_won, "parent_won": parent_won, "pairs": len(paired)}


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(runs: dict, metrics: list) -> None:
    for workload, records in sorted(runs.items()):
        failed = sum(r["failed"] for r in records)
        print(f"{workload}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, {failed} failed cases")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            print(f"  {m['name']:<12} {_fmt(values):<40} spread {spread:.4f} "
                  f"(bound {m['bound']}, a third is {m['bound'] / 3:.4f})")


def compare(parent_runs: dict, change_runs: dict, metrics: list) -> None:
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        paired = pairs(parent, change)
        p_failed = sum(r["failed"] for r in parent)
        c_failed = sum(r["failed"] for r in change)
        print(f"{workload}: parent {len(parent)} runs, change {len(change)} runs, "
              f"{len(paired)} pairs; failed cases {p_failed} -> {c_failed}"
              + ("  WORSE" if c_failed > p_failed else ""))
        for m in metrics:
            name = m["name"]
            p_values = [r["metrics"][name] for r in parent]
            c_values = [r["metrics"][name] for r in change]
            v = verdict(p_values, c_values,
                        [(p["metrics"][name], c["metrics"][name]) for p, c in paired],
                        m["better"], m["bound"])
            share = lambda won: f"{won}/{v['pairs']}"
            print(f"  {name:<12} parent {_fmt(p_values):<36} change {_fmt(c_values):<36} "
                  f"{v['gain']:+.2%} better-is-{m['better']}, bound {m['bound']}: "
                  f"{v['verdict']}; pairs won: change {share(v['change_won'])}, "
                  f"parent {share(v['parent_won'])}")
    for workload in sorted(set(parent_runs) ^ set(change_runs)):
        print(f"{workload}: runs on one side only")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2) or not all(os.path.isdir(a) for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    sides = [load_runs(folder, [m["name"] for m in metrics]) for folder in argv]
    if not all(sides):
        print("error: no untraced result files found", file=sys.stderr)
        return 2
    if len(sides) == 1:
        summarize(sides[0], metrics)
    else:
        compare(sides[0], sides[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
