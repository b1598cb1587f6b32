"""The four benchmark workloads: fixtures, seeded cases and exact checks.

A workload is a set-up that builds the fixtures every case shares, and a case
function ``case(fixture, seed, i, tracer) -> (output, problem)``. ``output`` is
JSON-ready and identifies what the case computed (its digest must not change
between a traced and an untraced run); ``problem`` is None when every exact
check passed, else a one-line reason. Cases come in rounds of ``round_size``
and a run always finishes its round, so every run measures the same mix.

Cases call the library through module attributes (``intervals.normalize``,
not a name bound at import), so the tracer's wrappers see every call,
including those the benchmark's own checks make under the ``bench.check``
span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import affcopy
from affcopy import avoider, cantor, cli, intervals, presets, slowseq

F = Fraction
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[bool], object]
    case: Callable
    round_size: int = 1


def _rng(workload: str, seed: int, label) -> random.Random:
    return random.Random(f"{workload}/{seed}/{label}")


# ---------------------------------------------------------------------------
# translate-sweep
# ---------------------------------------------------------------------------

SWEEP_HORIZON = 10 ** 4


def setup_translate_sweep(in_process):
    ladder = cantor.build_cantor(cantor.MiddleThirdOracle(), 10)
    tables = {0: [ladder.gap_length(n) for n in range(1, 11)]}
    seq = slowseq.build_mu(tables, horizon=2 * SWEEP_HORIZON)
    return [None] + [seq.alpha_at(m) for m in range(1, SWEEP_HORIZON + 2)]


def case_translate_sweep(alphas, seed, i, tracer):
    # drawn the way the acceptance suite's translate-decomposition oracle draws
    rng = _rng("translate-sweep", seed, i)
    lo = F(rng.randint(-40, 40), rng.randint(1, 12))
    length = F(1, rng.randint(2, 500))
    delta = F(rng.randint(1, 8), rng.randint(1, 8))
    m0 = rng.randint(1, 50)
    interval = intervals.Interval.open(lo, lo + length)
    decomposition = slowseq.decompose_translates(interval, alphas.__getitem__, delta, m0,
                                                 SWEEP_HORIZON)
    with tracer.span("bench.check"):
        brute = intervals.normalize([interval.translate(-delta * alphas[m])
                                     for m in range(m0, SWEEP_HORIZON + 1)])
        ok = decomposition.truncated_union() == brute
    problem = None if ok else f"decomposition of {interval} (delta={delta}, m0={m0}) " \
                              "differs from the brute-force union"
    return decomposition.to_json_dict(), problem


# ---------------------------------------------------------------------------
# ladder-verify
# ---------------------------------------------------------------------------

LADDER_DEPTH = 10
LADDER_POINTS = range(2, 9)  # one case per point count in every round


def setup_ladder_verify(in_process):
    return None


def case_ladder_verify(_, seed, i, tracer):
    rng = _rng("ladder-verify", seed, i)
    count = LADDER_POINTS[i % len(LADDER_POINTS)]
    points = set()
    while len(points) < count:
        q = rng.randint(3, 10 ** 4)
        points.add(F(rng.randint(1, q - 1), q))
    construction = cantor.build_cantor(cantor.FinitePointsOracle(tuple(points)),
                                       LADDER_DEPTH)
    invariants = cantor.verify_cantor(construction, 4)
    cover = cantor.truncated_union_cover(construction, 3, 6)
    problems = []
    if not invariants.passed:
        problems.append(f"verify_cantor: {invariants.violations[0]}")
    if not cover.passed:
        problems.append("truncated_union_cover failed")
    with tracer.span("bench.check"):
        for level in construction.levels:
            if len(level.gaps) != 2 ** (level.n - 1):
                problems.append(f"level {level.n} has {len(level.gaps)} gaps")
            for gap in level.gaps:
                if any(gap.lo < p < gap.hi for p in points):
                    problems.append(f"level {level.n} gap {gap} holds a target point")
    output = {
        "points": sorted(str(p) for p in points),
        "lengths": [str(level.gap_length) for level in construction.levels],
        "invariants": invariants.to_json_dict(),
        "cover": cover.to_json_dict(),
    }
    return output, "; ".join(problems) or None


# ---------------------------------------------------------------------------
# avoider-embed
# ---------------------------------------------------------------------------

AVOIDER_DEPTH = 64
ALPHA_LENGTH = 100
#: Every round embeds each of these once, in seeded order: the cost of one
#: embedding depends strongly on the vector, so a fixed grid keeps runs with
#: different seeds comparable.
ALPHA_GRID = ("geometric:1/2", "geometric:1/3", "geometric:2/3",
              "polynomial:1", "polynomial:2")


@dataclass(frozen=True)
class AvoiderFixture:
    eta: object
    construction: object
    holes: tuple


def setup_avoider_embed(in_process):
    eta = presets.threshold_sequence_from("harmonic")
    construction = avoider.build_avoider(eta, AVOIDER_DEPTH)
    holes = tuple((h.interval.lo, h.interval.hi) for h in construction.holes)
    return AvoiderFixture(eta=eta, construction=construction, holes=holes)


def _in_avoider(x, holes) -> bool:
    """Membership in [0,1] minus the open holes, without the interval kernel."""
    return 0 <= x <= 1 and not any(lo < x < hi for lo, hi in holes)


def case_avoider_embed(fx, seed, i, tracer):
    order = list(ALPHA_GRID)
    _rng("avoider-embed", seed, f"round{i // len(ALPHA_GRID)}").shuffle(order)
    spec = order[i % len(ALPHA_GRID)]
    alpha = presets.alpha_vector(spec, ALPHA_LENGTH)
    certificate = avoider.find_embedding(fx.construction, alpha, fx.eta)

    # one translate-measure identity, drawn like the acceptance suite's
    rng = _rng("avoider-embed", seed, i)
    c, s = F(rng.randint(1, 6), rng.randint(1, 4)), rng.randint(0, 5)
    lo = F(rng.randint(-30, 30), rng.randint(1, 11))
    hole = intervals.Interval.open(lo, lo + F(1, rng.randint(2, 80)))
    m_top = rng.randint(60, 160)
    eta = avoider.ThresholdSequence.from_convex(lambda m: c / (m + s))
    probe = avoider.measure_union_translates(hole, eta, M=m_top)

    problems = []
    with tracer.span("bench.check"):
        misses = [m for m, a in enumerate(alpha, 1)
                  if not _in_avoider(certificate.t + certificate.delta * a, fx.holes)]
        if misses:
            problems.append(f"{spec}: t+delta*alpha_m leaves the avoider at m={misses[0]}")
        value = lambda m: c / (m + s)
        threshold = next(m for m in range(1, m_top + 1)
                         if value(m) - value(m + 1) < hole.length)
        closed = threshold * hole.length + value(threshold) - value(m_top)
        if not (probe.identity_ok and probe.threshold == threshold
                and probe.kernel_measure == closed):
            problems.append(f"measure identity fails for hole {hole}, eta=c/(m+{s})")
    output = {"alpha": spec, "certificate": certificate.to_json_dict(),
              "measure": probe.to_json_dict()}
    return output, "; ".join(problems) or None


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

#: The README's CLI examples, in README order. The last one takes the
#: workload seed; the others have fixed inputs and golden stdout digests.
README_EXAMPLES = (
    "cantor-build --depth 4",
    "cantor-verify --depth 8 --kmax 4",
    "cover --depth 10 --N 2 --kmax 4",
    "seq-build --depth 6 --horizon 500",
    "seq-decompose --depth 6 --horizon 300 --delta 2 --lo 0 --length 1/50",
    "coverage01 --depth 10 --N 6 --M 409 --delta 1 --m0 1",
    "avoider-build --beta harmonic --depth 16",
    "avoider-measure --beta harmonic --M 40 --lo 0 --length 1/10",
    "avoider-embed --beta harmonic --alpha geometric:1/2 --M 100 --depth 64",
    "appendix-schedule --depth 3",
    "appendix-intersect --schedule 4,14 --alphas 0,0 --U 2",
    "appendix-premeasure --schedule 4,14 --j 1 --k 1",
    "prop-suite --seed {seed} --instances 1000",
)
PROP_INSTANCES = 1000
PROP_CHECKS = 9 * PROP_INSTANCES

with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _handle:
    #: sha256 of the stdout of each fixed-input example.
    GOLDEN = json.load(_handle)


@dataclass(frozen=True)
class CliFixture:
    in_process: bool
    env: dict


def setup_cli_readme(in_process):
    env = dict(os.environ, PYTHONPATH=SRC)
    return CliFixture(in_process=in_process, env=env)


def _run_example(fx, argv, tracer):
    """Exit code and stdout bytes of one CLI invocation."""
    if not fx.in_process:
        done = subprocess.run([sys.executable, "-m", "affcopy.cli", *argv],
                              capture_output=True, env=fx.env, timeout=170)
        return done.returncode, done.stdout
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse rejects input by exiting
            code = stop.code
    stdout = buffer.getvalue().encode()
    tracer.count("cli.report_bytes", len(stdout))
    return code, stdout


def _failed_flags(node, path=""):
    """Paths of every ``pass`` or ``*_ok`` field that is not true."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}"
            if key == "pass" or key.endswith("_ok"):
                if value is not True:
                    yield here
            else:
                yield from _failed_flags(value, here)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _failed_flags(value, f"{path}[{index}]")


def case_cli_readme(fx, seed, i, tracer):
    template = README_EXAMPLES[i % len(README_EXAMPLES)]
    command = template.format(seed=seed)
    code, stdout = _run_example(fx, command.split(), tracer)
    sha = hashlib.sha256(stdout).hexdigest()
    problems = []
    with tracer.span("bench.check"):
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            problems.append("stdout is not a JSON report")
        else:
            problems.extend(f"{flag} is not true" for flag in _failed_flags(report))
            if template.startswith("prop-suite") and report.get("checks_run") != PROP_CHECKS:
                problems.append(f"ran {report.get('checks_run')} checks, not {PROP_CHECKS}")
        if template in GOLDEN and GOLDEN[template] != sha:
            problems.append("stdout differs from the golden digest")
    output = {"command": command, "exit": code, "stdout_sha256": sha}
    return output, f"{command}: " + "; ".join(problems) if problems else None


WORKLOADS = {w.name: w for w in (
    Workload("translate-sweep",
             setup_translate_sweep, case_translate_sweep),
    Workload("ladder-verify",
             setup_ladder_verify, case_ladder_verify, len(LADDER_POINTS)),
    Workload("avoider-embed",
             setup_avoider_embed, case_avoider_embed, len(ALPHA_GRID)),
    Workload("cli-readme",
             setup_cli_readme, case_cli_readme, len(README_EXAMPLES)),
)}


def library_path() -> str:
    """Directory of the imported affcopy package."""
    return os.path.dirname(os.path.abspath(affcopy.__file__))
