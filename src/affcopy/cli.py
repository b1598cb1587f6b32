"""Command-line entry point: every construction and verification as a
subcommand writing a deterministic JSON report.

Exit codes: 0 when the subcommand's assertions all pass, 1 when a computed
check fails (a violation list is nonempty, an identity breaks, a search
exhausts its ladder), 2 on input errors (unknown subcommand, malformed
rationals, horizon or depth violations, running out of memory), 3 on internal
errors (library bugs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Callable, Dict, Optional

from affcopy import avoider, cantor, mixedradix, presets, propcheck, slowseq
from affcopy.intervals import Interval, IntervalSet, as_fraction, union_of_translates

ORACLES: Dict[str, Callable[[], cantor.GapOracle]] = {
    "middle-third": cantor.MiddleThirdOracle,
    "ternary-cantor": cantor.TernaryCantorOracle,
}


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # a redirect's mode, not mkstemp's 0600
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}: {err}")


def _capped(cap: int) -> Callable[[str], int]:
    """An int flag refused above ``cap`` while parsing, before any work."""
    def integer(text: str) -> int:  # argparse names the type in its messages
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the cap {cap}")
        return value
    return integer


def _schedule(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"malformed schedule {text!r}: {err}")


def _build_default(depth: int, oracle: str) -> cantor.CantorConstruction:
    return cantor.build_cantor(ORACLES[oracle](), depth)


def _sequence_for(construction: cantor.CantorConstruction, horizon: int) -> slowseq.SlowSequence:
    table = [construction.gap_length(n) for n in range(1, construction.depth + 1)]
    return slowseq.build_mu({0: table}, horizon)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affcopy",
        description="exact-arithmetic constructions and verifications for "
                    "interval gap ladders, slow sequences, avoider sets and "
                    "mixed-radix digit sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the JSON report here (atomic)")
        return p

    p = add("cantor-build", "build a gap ladder and dump it")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    p = add("cantor-verify", "build a gap ladder and replay its invariants")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    p = add("cover", "truncated left-neighborhood cover of the remnant skeleton")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    p = add("seq-build", "envelope the ladder's gap lengths into the slow sequence")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    p = add("seq-decompose", "split translates of an interval at the overlap threshold")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1))
    p.add_argument("--m0", type=int, default=1)
    p.add_argument("--lo", type=_fraction, required=True)
    p.add_argument("--length", type=_fraction, required=True)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    p = add("coverage01", "measure what the slow-sequence translates leave of [0,1)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1))
    p.add_argument("--m0", type=int, default=1)
    p.add_argument("--horizon", type=int)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="middle-third")

    horizon_help = ("length a sequence file is truncated to and an iterlog preset is "
                    f"materialized over (default {presets.MATERIALIZED_HORIZON}); "
                    "convex presets only range-check it")

    p = add("avoider-build", "budget and punch the avoider holes")
    p.add_argument("--beta", required=True, help="decay preset or sequence file")
    p.add_argument("--depth", type=_capped(avoider.MAX_DEPTH), required=True)
    p.add_argument("--horizon", type=int, help=horizon_help)

    p = add("avoider-measure", "translate-union measure identity for one hole")
    p.add_argument("--beta", required=True)
    p.add_argument("--M", type=_capped(avoider.MAX_M), required=True)
    p.add_argument("--lo", type=_fraction, required=True)
    p.add_argument("--length", type=_fraction, required=True)
    p.add_argument("--horizon", type=int, help=horizon_help)

    p = add("avoider-embed", "search for an exact affine embedding certificate")
    p.add_argument("--beta", required=True)
    p.add_argument("--alpha", required=True, help="target preset or sequence file")
    p.add_argument("--M", type=_capped(avoider.MAX_M), required=True)
    p.add_argument("--depth", type=_capped(avoider.MAX_DEPTH), required=True)
    p.add_argument("--imax", type=int, default=40)
    p.add_argument("--horizon", type=int, help=horizon_help)

    p = add("appendix-schedule", "build or certify a radix schedule")
    p.add_argument("--depth", type=int)
    p.add_argument("--schedule", type=_schedule)
    p.add_argument("--budget", type=int, default=mixedradix.DEFAULT_EXPONENT_BUDGET)

    p = add("appendix-intersect", "nested-interval walk through the digit constraints")
    p.add_argument("--schedule", type=_schedule, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated rationals")
    p.add_argument("--U", type=int, required=True)

    p = add("appendix-premeasure", "cover-count bound for one branch and stage")
    p.add_argument("--schedule", type=_schedule, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("prop-suite", "randomized exact checks of the kernel algebra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=_capped(propcheck.MAX_INSTANCES), default=1000)

    return parser


def _run(args: argparse.Namespace) -> tuple:
    """Returns (report dict, passed bool)."""
    cmd = args.command

    if cmd == "cantor-build":
        construction = _build_default(args.depth, args.oracle)
        return construction.to_json_dict(), True

    if cmd == "cantor-verify":
        report = cantor.verify_cantor(_build_default(args.depth, args.oracle), args.kmax)
        return report.to_json_dict(), report.passed

    if cmd == "cover":
        construction = _build_default(args.depth, args.oracle)
        report = cantor.truncated_union_cover(construction, args.N, args.kmax)
        return report.to_json_dict(), report.passed

    if cmd == "seq-build":
        construction = _build_default(args.depth, args.oracle)
        seq = _sequence_for(construction, args.horizon)
        report = {
            "mu": [str(v) for v in seq.mu],
            "breakpoints": list(seq.breakpoints),
            "horizon": seq.horizon,
            "block_starts": [str(seq.alpha_at(seq.breakpoints[n] + 1))
                             for n in range(seq.blocks - 1)],
        }
        return report, True

    if cmd == "seq-decompose":
        construction = _build_default(args.depth, args.oracle)
        seq = _sequence_for(construction, args.horizon)
        interval = Interval.open(args.lo, args.lo + args.length)
        decomposition = slowseq.decompose_translates(interval, seq.alpha_at, args.delta,
                                                     args.m0, args.horizon)
        brute = union_of_translates(IntervalSet((interval,)),
                                    [-args.delta * seq.alpha_at(m)
                                     for m in range(args.m0, args.horizon + 1)])
        ok = decomposition.truncated_union() == brute
        report = decomposition.to_json_dict()
        report["brute_force_ok"] = ok
        return report, ok

    if cmd == "coverage01":
        construction = _build_default(args.depth, args.oracle)
        seq = _sequence_for(construction, max(args.M, 1) if args.horizon is None
                            else args.horizon)
        report = slowseq.coverage01(construction, seq, args.delta, args.m0,
                                    args.N, args.M)
        return report.to_json_dict(), report.passed

    if cmd == "avoider-build":
        t = presets.threshold_sequence_from(args.beta, args.horizon)
        construction = avoider.build_avoider(t, args.depth)
        return construction.to_json_dict(), True

    if cmd == "avoider-measure":
        t = presets.threshold_sequence_from(args.beta, args.horizon)
        hole = Interval.open(args.lo, args.lo + args.length)
        result = avoider.measure_union_translates(hole, t, args.M)
        return result.to_json_dict(), result.identity_ok

    if cmd == "avoider-embed":
        t = presets.threshold_sequence_from(args.beta, args.horizon)
        construction = avoider.build_avoider(t, args.depth)
        alpha = presets.alpha_vector(args.alpha, args.M)
        try:
            certificate = avoider.find_embedding(construction, alpha, t, args.imax)
        except avoider.EmbeddingSearchError as err:
            report = {"error": "ladder exhausted",
                      "trace": [[str(d), str(m)] for d, m in err.trace]}
            return report, False
        return certificate.to_json_dict(), True

    if cmd == "appendix-schedule":
        if args.schedule is not None:
            system = mixedradix.make_system(args.schedule, args.budget)
        elif args.depth is not None:
            system = mixedradix.default_schedule(args.depth, args.budget)
        else:
            raise ValueError("appendix-schedule needs --depth or --schedule")
        return system.to_json_dict(), True

    if cmd == "appendix-intersect":
        system = mixedradix.make_system(args.schedule)
        alphas = [as_fraction(part) for part in args.alphas.split(",")]
        chain = mixedradix.nested_intersect(alphas, system, args.U)
        final = chain.final
        samples = [final.lo, final.midpoint(), final.hi]
        ok = mixedradix.chain_point_check(chain, system, samples)
        report = chain.to_json_dict()
        report["sampled_membership_ok"] = ok
        return report, ok

    if cmd == "appendix-premeasure":
        system = mixedradix.make_system(args.schedule)
        result = mixedradix.premeasure_bound(system, args.j, args.k)
        return result.to_json_dict(), result.meets_target

    if cmd == "prop-suite":
        report = propcheck.run_kernel_property_suite(args.seed, args.instances)
        return report.to_json_dict(), report.passed

    raise ValueError(f"unknown subcommand {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, passed = _run(args)
        _emit(report, args.out)
    except (ValueError, slowseq.HorizonError, cantor.OracleViolationError,
            ZeroDivisionError, OSError, ArithmeticError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory; the input asks for more work than fits\n")
        return 2
    except RuntimeError as err:
        sys.stderr.write(f"internal error: {err}\n")
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
