"""Command-line entry point: every construction and verification as a
subcommand writing a deterministic JSON report.

``COMMANDS`` declares each subcommand once: its help, its flags (option ->
``add_argument`` keywords) and its handler, which returns (report, passed).

A process loads only the layers its subcommand runs. Each handler imports its
layers where it runs, and a capped flag reads its cap from its layer when a
value is parsed. A flag whose keywords hold a layer's value (a default, the
oracle names, help text) gives them as a function, and ``main`` builds the
chosen subcommand's flags alone, so those values are read from their layer
only when that subcommand is parsed. Every subcommand loads ``intervals``.

Exit codes: 0 when the subcommand's assertions all pass, 1 when a computed
check fails (a violation list is nonempty, an identity breaks, a search
exhausts its ladder), 2 on input errors (unknown subcommand, malformed
rationals, horizon or depth violations, a flag above its work cap, a value
past its bit cap, running out of memory), 3 on internal errors (library bugs). A subcommand whose report
has no verdict (the ``*-build`` ones and ``appendix-schedule``) exits 0 on
every input it accepts: a refuted or past-budget schedule level is a fact
about the input, not a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from affcopy.intervals import ExponentCapError, Interval, as_fraction, normalize

if TYPE_CHECKING:
    from affcopy import cantor, slowseq


def _emit(report: dict, out: Optional[str]) -> None:
    if out is None:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # a redirect's mode, not mkstemp's 0600
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        why = f": {err}" if isinstance(err, ExponentCapError) else ""
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}{why}")


def _capped(layer: str, name: str) -> Callable[[str], int]:
    """An int flag refused above the cap ``name`` of ``layer`` while parsing,
    before any work; the layer loads only when a value is parsed."""
    def integer(text: str) -> int:  # argparse names the type in its messages
        value = int(text)
        cap = getattr(import_module(f"affcopy.{layer}"), name)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the cap {cap}")
        return value
    return integer


def _schedule(text: str) -> tuple:
    from affcopy import mixedradix
    parts = text.split(",")
    if len(parts) > mixedradix.MAX_DEPTH:
        raise argparse.ArgumentTypeError(
            f"{len(parts)} radices are above the cap {mixedradix.MAX_DEPTH}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"malformed schedule {text!r}: {err}")


def _oracles() -> Dict[str, Callable[[], cantor.GapOracle]]:
    """The ladder oracles by their classes' own names."""
    from affcopy import cantor
    return {oracle.name: oracle for oracle in (cantor.MiddleThirdOracle,
                                               cantor.TernaryCantorOracle)}


def _ladder(args: argparse.Namespace) -> cantor.CantorConstruction:
    """The gap ladder the LADDER flags ask for."""
    from affcopy import cantor
    return cantor.build_cantor(_oracles()[args.oracle](), args.depth)


def _sequence_for(construction: cantor.CantorConstruction, horizon: int) -> slowseq.SlowSequence:
    from affcopy import slowseq
    table = [construction.gap_length(n) for n in range(1, construction.depth + 1)]
    return slowseq.build_mu({0: table}, horizon)


def _at_least_one(args: argparse.Namespace, *flags: str) -> None:
    """Refuse a count flag below 1 by the name the user typed, before any work."""
    for flag in flags:
        value = getattr(args, flag[2:])
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def _at_most(small: str, a: int, large: str, b: int) -> None:
    """Refuse ``a > b`` by the flags the user typed, before any work."""
    if a > b:
        raise ValueError(f"{small} must be at most {large}, got {a} > {b}")


def _checked(report) -> tuple:
    """The JSON form of a report that carries its own verdict."""
    return report.to_json_dict(), report.passed


def _cantor_build(args: argparse.Namespace) -> tuple:
    return _ladder(args).to_json_dict(), True


def _cantor_verify(args: argparse.Namespace) -> tuple:
    from affcopy import cantor
    _at_least_one(args, "--kmax")
    return _checked(cantor.verify_cantor(_ladder(args), args.kmax))


def _cover(args: argparse.Namespace) -> tuple:
    from affcopy import cantor
    _at_least_one(args, "--N", "--kmax")
    _at_most("--N + --kmax", args.N + args.kmax, "--depth", args.depth)
    return _checked(cantor.truncated_union_cover(_ladder(args), args.N, args.kmax))


def _seq_build(args: argparse.Namespace) -> tuple:
    seq = _sequence_for(_ladder(args), args.horizon)
    return {
        "mu": [str(v) for v in seq.mu],
        "breakpoints": list(seq.breakpoints),
        "horizon": seq.horizon,
        "block_starts": [str(seq.alpha_at(seq.breakpoints[n] + 1))
                         for n in range(seq.blocks - 1)],
    }, True


def _seq_decompose(args: argparse.Namespace) -> tuple:
    from affcopy import slowseq
    _at_least_one(args, "--m0")
    if args.m0 >= args.horizon:
        raise ValueError(f"--m0 must be below --horizon, got {args.m0} >= {args.horizon}")
    seq = _sequence_for(_ladder(args), args.horizon)
    interval = Interval.open(args.lo, args.lo + args.length)
    decomposition = slowseq.decompose_translates(interval, seq.alpha_at, args.delta,
                                                 args.m0, args.horizon)
    # brute force: every translate by itself, with none of the kernel's chaining
    brute = normalize([interval.translate(-args.delta * seq.alpha_at(m))
                       for m in range(args.m0, args.horizon + 1)])
    ok = decomposition.truncated_union() == brute
    return {**decomposition.to_json_dict(), "brute_force_ok": ok}, ok


def _coverage01(args: argparse.Namespace) -> tuple:
    from affcopy import slowseq
    _at_least_one(args, "--N", "--M", "--m0")
    _at_most("--N", args.N, "--depth", args.depth)
    _at_most("--m0", args.m0, "--M", args.M)
    if args.horizon is not None:
        _at_most("--M", args.M, "--horizon", args.horizon)
    construction = _ladder(args)
    seq = _sequence_for(construction, args.M if args.horizon is None else args.horizon)
    return _checked(slowseq.coverage01(construction, seq, args.delta, args.m0,
                                       args.N, args.M))


def _avoider_build(args: argparse.Namespace) -> tuple:
    from affcopy import avoider, presets
    t = presets.threshold_sequence_from(args.beta, args.horizon)
    return avoider.build_avoider(t, args.depth).to_json_dict(), True


def _avoider_measure(args: argparse.Namespace) -> tuple:
    from affcopy import avoider, presets
    t = presets.threshold_sequence_from(args.beta, args.horizon)
    hole = Interval.open(args.lo, args.lo + args.length)
    result = avoider.measure_union_translates(hole, t, args.M)
    return result.to_json_dict(), result.identity_ok


def _avoider_embed(args: argparse.Namespace) -> tuple:
    from affcopy import avoider, presets
    _at_least_one(args, "--M", "--imax")  # the cap bounds --M above while parsing
    t = presets.threshold_sequence_from(args.beta, args.horizon)
    construction = avoider.build_avoider(t, args.depth)
    alpha = presets.alpha_vector(args.alpha, args.M)
    try:
        certificate = avoider.find_embedding(construction, alpha, t, args.imax)
    except avoider.EmbeddingSearchError as err:
        return {"error": "ladder exhausted",
                "trace": [[str(d), str(m)] for d, m in err.trace]}, False
    return certificate.to_json_dict(), True


def _appendix_schedule(args: argparse.Namespace) -> tuple:
    from affcopy import mixedradix
    if (args.depth is None) == (args.schedule is None):
        raise ValueError("give exactly one of --depth and --schedule")
    if args.schedule is None:
        _at_least_one(args, "--depth")
        return mixedradix.default_schedule(args.depth, args.budget).to_json_dict(), True
    return mixedradix.make_system(args.schedule, args.budget).to_json_dict(), True


def _appendix_intersect(args: argparse.Namespace) -> tuple:
    from affcopy import mixedradix
    if not 1 <= args.U <= len(args.schedule):
        raise ValueError(f"--U must be in 1..{len(args.schedule)}, got {args.U}")
    alphas = []
    for i, part in enumerate(args.alphas.split(","), 1):
        try:
            alphas.append(as_fraction(part))
        except (ValueError, ZeroDivisionError) as err:
            why = f": {err}" if isinstance(err, ExponentCapError) else ""
            raise ValueError(f"--alphas entry {i}: malformed rational {part!r}{why}") from None
    system = mixedradix.make_system(args.schedule)
    chain = mixedradix.nested_intersect(alphas, system, args.U)
    final = chain.final
    ok = mixedradix.chain_point_check(chain, system, [final.lo, final.midpoint(), final.hi])
    return {**chain.to_json_dict(), "sampled_membership_ok": ok}, ok


def _appendix_premeasure(args: argparse.Namespace) -> tuple:
    from affcopy import mixedradix
    _at_least_one(args, "--j", "--k")
    result = mixedradix.premeasure_bound(mixedradix.make_system(args.schedule),
                                         args.j, args.k)
    return result.to_json_dict(), result.meets_target


def _prop_suite(args: argparse.Namespace) -> tuple:
    from affcopy import propcheck
    _at_least_one(args, "--instances")
    return _checked(propcheck.run_kernel_property_suite(args.seed, args.instances))


def _oracle_flag() -> dict:
    """--oracle: the ladder oracles' names, middle-third by default."""
    from affcopy import cantor
    return {"choices": sorted(_oracles()), "default": cantor.MiddleThirdOracle.name}


def _horizon_flag() -> dict:
    """--horizon of the avoider subcommands, naming presets' default."""
    from affcopy import presets
    return {"type": int, "help": (
        "length a sequence file is truncated to and an iterlog preset is "
        f"materialized over (default {presets.MATERIALIZED_HORIZON}); "
        "convex presets only range-check it")}


def _budget_flag() -> dict:
    from affcopy import mixedradix
    return {"type": _capped("mixedradix", "MAX_EXPONENT_BUDGET"),
            "default": mixedradix.DEFAULT_EXPONENT_BUDGET}


#: ``add_argument`` keywords, or a function returning them read from a layer
Keywords = Union[dict, Callable[[], dict]]

INT = {"type": int, "required": True}
LADDER = {"--depth": INT, "--oracle": _oracle_flag}
SPAN = {"--lo": {"type": _fraction, "required": True},
        "--length": {"type": _fraction, "required": True}}
OVERLAP = {"--delta": {"type": _fraction, "default": Fraction(1)},
           "--m0": {"type": int, "default": 1}}
THRESHOLD = {"--beta": {"required": True}, "--horizon": _horizon_flag}
SCHEDULE = {"type": _schedule, "required": True}
AVOIDER_DEPTH = {"type": _capped("avoider", "MAX_DEPTH"), "required": True}
AVOIDER_M = {"type": _capped("avoider", "MAX_M"), "required": True}

COMMANDS: Dict[str, Tuple[str, Dict[str, Keywords], Callable[[argparse.Namespace], tuple]]] = {
    "cantor-build": ("build a gap ladder and dump it", LADDER, _cantor_build),
    "cantor-verify": ("build a gap ladder and replay its invariants",
                      {**LADDER, "--kmax": INT}, _cantor_verify),
    "cover": ("truncated left-neighborhood cover of the remnant skeleton",
              {**LADDER, "--N": INT, "--kmax": INT}, _cover),
    "seq-build": ("envelope the ladder's gap lengths into the slow sequence",
                  {**LADDER, "--horizon": INT}, _seq_build),
    "seq-decompose": ("split translates of an interval at the overlap threshold",
                      {**LADDER, "--horizon": INT, **OVERLAP, **SPAN}, _seq_decompose),
    "coverage01": ("measure what the slow-sequence translates leave of [0,1)",
                   {**LADDER, "--N": INT, "--M": INT, **OVERLAP, "--horizon": {"type": int}},
                   _coverage01),
    "avoider-build": ("budget and punch the avoider holes",
                      {**THRESHOLD, "--beta": {"required": True,
                                               "help": "decay preset or sequence file"},
                       "--depth": AVOIDER_DEPTH}, _avoider_build),
    "avoider-measure": ("translate-union measure identity for one hole",
                        {**THRESHOLD, "--M": AVOIDER_M, **SPAN}, _avoider_measure),
    "avoider-embed": ("search for an exact affine embedding certificate",
                      {**THRESHOLD, "--alpha": {"required": True,
                                                "help": "target preset or sequence file"},
                       "--M": AVOIDER_M, "--depth": AVOIDER_DEPTH,
                       "--imax": {"type": int, "default": 40}}, _avoider_embed),
    "appendix-schedule": ("build or certify a radix schedule",
                          {"--depth": {"type": _capped("mixedradix", "MAX_DEPTH")},
                           "--schedule": {"type": _schedule},
                           "--budget": _budget_flag},
                          _appendix_schedule),
    "appendix-intersect": ("nested-interval walk through the digit constraints",
                           {"--schedule": SCHEDULE,
                            "--alphas": {"required": True, "help": "comma-separated rationals"},
                            "--U": INT}, _appendix_intersect),
    "appendix-premeasure": ("cover-count bound for one branch and stage",
                            {"--schedule": SCHEDULE, "--j": INT, "--k": INT},
                            _appendix_premeasure),
    "prop-suite": ("randomized exact checks of the kernel algebra",
                   {"--seed": {"type": int, "default": 0},
                    "--instances": {"type": _capped("propcheck", "MAX_INSTANCES"),
                                    "default": 1000}},
                   _prop_suite),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="affcopy",
        description="exact-arithmetic constructions and verifications for "
                    "interval gap ladders, slow sequences, avoider sets and "
                    "mixed-radix digit sets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the JSON report here (atomic)")
        for option, keywords in flags.items():
            p.add_argument(option, **(keywords() if callable(keywords) else keywords))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes the first word as the subcommand; build that one alone
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    _, _, handler = COMMANDS[args.command]
    try:
        report, passed = handler(args)
        _emit(report, args.out)
    except MemoryError:
        sys.stderr.write("error: out of memory; the input asks for more work than fits\n")
        return 2
    except (ValueError, OSError, ArithmeticError) as err:  # a layer's refusal is a ValueError
        sys.stderr.write(f"error: {err}\n")
        return 2
    except RuntimeError as err:
        sys.stderr.write(f"internal error: {err}\n")
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
