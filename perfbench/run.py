"""Run one affcopy benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs seeded cases back to back (a closed loop) for ``--seconds``
seconds, finishing the current round, and checks every case exactly. With
``--trace 0`` it prints the end-to-end metrics, case costs in reference units
(see ``reference_work``) beside wall-clock times; with ``--trace 1`` it first
runs cases untraced for half the time, then installs span wrappers around the
library's layers, replays the same cases and prints the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object; each
run also writes a result file under ``perfbench/results/``. The exit code is
0 when every case passed, 1 when any check failed, 2 on bad input or when
the library sources are missing.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from spans import PER_LAYER, SETUP, NullTracer, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")

#: Set-up runs this many times, each in a fresh process; the median is reported.
SETUP_SAMPLES = 5

#: Between two cases the reference work repeats for this share of the last
#: case's time, so a long case is paired with a long, steadier sample.
REFERENCE_SHARE = 0.05

#: Seconds per reference unit when set-up cost is reported in seconds: a fixed
#: conversion constant (about the reference work's time on an idle 2-core
#: virtual machine), not a measurement.
NOMINAL_REFERENCE_S = 0.004

#: (name, unit, better) of the end-to-end metrics, measured untraced. Case
#: times are in reference units (see ``reference_work``).
END_TO_END = (
    ("cases_per_kref", "1/kref", "higher"),
    ("case_p50_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The same times in wall-clock units: printed and recorded, not bounded,
#: because other processes on the machine move them by tens of percent.
WALL_CLOCK = (
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("setup_wall_s", "s"),
)


@dataclass(frozen=True)
class CaseRecord:
    index: int
    seconds: float
    reference: float  # mean time of the reference work just before and just after
    digest: Optional[str]
    problem: Optional[str]


def reference_work() -> Fraction:
    """A fixed exact-arithmetic computation of a few milliseconds, timed between
    cases. It uses no affcopy code, so no change to the library moves it, while
    contention from other processes slows it as much as the cases beside it:
    a case's time divided by it (the case's cost in *reference units*) stays
    steady where its wall time does not."""
    cuts = sorted((Fraction(i * 7919 % 1009, 1 + i % 97), i & 1) for i in range(1, 500))
    total = Fraction(0)
    for x, flag in cuts:
        if flag:
            total += x
    return total


def _time_reference(budget: float = 0.0) -> float:
    """Mean time of ``reference_work`` over as many repeats as fill ``budget``
    seconds (at least one)."""
    times = []
    began = time.perf_counter()
    while not times or time.perf_counter() - began < budget:
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.mean(times)


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value <= 3600:
        raise argparse.ArgumentTypeError(f"--seconds must be in (0, 3600], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser


def closed_loop(workload, fixture, seed, tracer, seconds=None, count=None):
    """Run cases 0, 1, ... back to back; stop after ``count`` cases, or at the
    first round boundary once ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    before = _time_reference()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % workload.round_size == 0 and time.perf_counter() - start >= seconds:
            break
        tracer.case = i
        began = time.perf_counter()
        try:
            output, problem = workload.case(fixture, seed, i, tracer)
        except Exception as err:  # a case that raises is a failed case; the run goes on
            output, problem = None, f"{type(err).__name__}: {err}"
        took = time.perf_counter() - began
        after = _time_reference(REFERENCE_SHARE * took)
        records.append(CaseRecord(i, took, (before + after) / 2,
                                  None if output is None else digest(output),
                                  None if problem is None else f"case {i}: {problem}"))
        before = after
        i += 1
    return records, time.perf_counter() - start


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _probe_setup(name: str, seed: int) -> tuple:
    """(set-up wall seconds, reference seconds) measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", name,
         "--seed", str(seed), "--seconds", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    wall, reference = done.stdout.split()[-2:]
    return float(wall), float(reference)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def timed_run(workload, seed: int, seconds: float) -> dict:
    fixture = workload.setup(False)
    setup = [_probe_setup(workload.name, seed) for _ in range(SETUP_SAMPLES)]
    records, elapsed = closed_loop(workload, fixture, seed, NullTracer(), seconds=seconds)
    costs = [r.seconds / r.reference for r in records]
    setup_costs = [wall / reference for wall, reference in setup]
    size = workload.round_size
    round_costs = [statistics.mean(costs[k:k + size]) for k in range(0, len(costs), size)]
    metrics = {
        "cases_per_kref": 1000 * len(records) / sum(costs),
        # a round holds the workload's whole mix of cases, so its mean is the
        # steadier unit; with one case per round this is the case median
        "case_p50_ref": statistics.median(round_costs),
        "setup_s": NOMINAL_REFERENCE_S * statistics.median(setup_costs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    wall_clock = {
        "cases_per_s": len(records) / sum(r.seconds for r in records),
        "case_p50_ms": 1000 * statistics.median(r.seconds for r in records),
        "setup_wall_s": statistics.median(wall for wall, _ in setup),
    }
    return {
        "failed_cases": sorted({r.index for r in records if r.problem}),
        "units": {name: unit for name, unit, *_ in END_TO_END + WALL_CLOCK},
        "metrics": metrics,
        "wall_clock": wall_clock,
        "setup_samples": [{"wall_s": wall, "reference_s": reference}
                          for wall, reference in setup],
        "timed_s": elapsed,
        "attempted": len(records),
        "problems": [r.problem for r in records if r.problem],
        "cases": [[r.index, r.seconds, r.reference, r.digest, r.problem] for r in records],
    }


def traced_run(workload, seed: int, seconds: float, spans_path: str) -> dict:
    import affcopy

    fixture = workload.setup(True)
    untraced, _ = closed_loop(workload, fixture, seed, NullTracer(), seconds=seconds / 2)
    tracer = Tracer()
    tracer.install(affcopy)
    try:
        tracer.case = SETUP
        fixture = workload.setup(True)
        traced, _ = closed_loop(workload, fixture, seed, tracer, count=len(untraced))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    problems = [r.problem for r in untraced + traced if r.problem]
    mismatched = [a.index for a, b in zip(untraced, traced) if a.digest != b.digest]
    problems += [f"case {i}: traced output differs from the untraced output"
                 for i in mismatched]
    return {
        "failed_cases": sorted({r.index for r in untraced + traced if r.problem}
                               | set(mismatched)),
        "units": {name: unit for name, unit, _ in PER_LAYER},
        "metrics": layer_metrics(tracer, len(traced), overhead),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer.spans),
        "attempted": len(untraced),
        "problems": problems,
        "cases": [[a.index, a.seconds, b.seconds, a.digest, b.digest]
                  for a, b in zip(untraced, traced)],
    }


def git_commit() -> Optional[str]:
    """HEAD of the repository rooted exactly here, if there is one."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256() -> str:
    """One digest over every library source file, for runs outside git."""
    h = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as err:
        print(f"error: cannot import the affcopy sources under {SRC}: {err}", file=sys.stderr)
        return 2
    if workloads.library_path() != os.path.join(SRC, "affcopy"):
        print(f"error: affcopy was imported from {workloads.library_path()}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.probe_setup:
        workload.setup(False)
        wall = time.perf_counter() - _STARTED
        print(wall, statistics.median(_time_reference() for _ in range(3)))
        return 0

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}"
    base = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    if args.trace:
        run = traced_run(workload, args.seed, args.seconds, base + ".spans.jsonl.gz")
    else:
        run = timed_run(workload, args.seed, args.seconds)
    attempted, failed = run["attempted"], len(run["failed_cases"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "started_utc": stamp,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **run,
    }
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for problem in run["problems"][:20]:
        print(f"FAILED {problem}")
    for name, value in {**run["metrics"], **run.get("wall_clock", {})}.items():
        print(f"{name}: {value} {run['units'][name]}")
    print(f"fail_ratio: {record['fail_ratio']} ratio ({failed} of {attempted} cases)")
    print(f"result file: {os.path.relpath(base + '.json', ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
