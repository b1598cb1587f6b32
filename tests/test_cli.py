import argparse
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul
from pathlib import Path

import pytest

import affcopy
from affcopy import avoider, cantor, cli, intervals, mixedradix, presets, propcheck, slowseq
from affcopy.cli import build_parser, main
from affcopy.intervals import Interval

F = Fraction


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestCantorCommands:
    def test_build_depth_two(self, tmp_path):
        code, report = run(tmp_path, "cantor-build", "--depth", "2")
        assert code == 0
        assert report["depth"] == 2
        assert report["levels"][0]["gaps"] == ["(4/9,5/9)"]

    def test_verify(self, tmp_path):
        code, report = run(tmp_path, "cantor-verify", "--depth", "5", "--kmax", "2")
        assert code == 0
        assert report["pass"] is True

    def test_cover_example(self, tmp_path):
        code, report = run(tmp_path, "cover", "--depth", "10", "--N", "2", "--kmax", "4")
        assert code == 0
        assert F(report["uncovered_measure"]) < F(256, 729)
        assert report["bound"] == "256/729"

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_verify_without_right_edge_checks_exits_two(self, tmp_path, capsys, kmax):
        # k_max < 1 would skip every (2/3)^(n+k) right-edge check and still pass
        code, report = run(tmp_path, "cantor-verify", "--depth", "4", "--kmax", kmax)
        assert code == 2
        assert report is None
        assert "k_max must be positive" in capsys.readouterr().err

    def test_cover_depth_error(self, tmp_path):
        code, _ = run(tmp_path, "cover", "--depth", "4", "--N", "4", "--kmax", "1")
        assert code == 2

    def test_cover_with_a_vacuous_bound_exits_two(self, tmp_path, capsys):
        # 2^8 (2/3)^10 is about 4.4, above the measure of all of [0,1]
        code, report = run(tmp_path, "cover", "--depth", "10", "--N", "8", "--kmax", "2")
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("error: vacuous cover bound: N=8, k_max=2 ")
        assert "262144/59049, not below the skeleton measure " in err

    @pytest.mark.parametrize("argv", [
        ["cantor-build"], ["cantor-verify", "--kmax", "2"], ["cover", "--N", "2", "--kmax", "2"],
        ["seq-build", "--horizon", "50"],
        ["seq-decompose", "--horizon", "50", "--lo", "0", "--length", "1/9"],
        ["coverage01", "--N", "2", "--M", "20"],
    ])
    def test_ladder_depth_past_the_cap_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("ladder level built")

        # every level of build_cantor makes one CantorLevel; the in-cap run
        # shows the hook still fires, so the refusal below is not vacuous
        monkeypatch.setattr(cantor, "CantorLevel", never)
        with pytest.raises(AssertionError, match="ladder level built"):
            run(tmp_path, argv[0], "--depth", str(cantor.MAX_DEPTH), *argv[1:])
        depth = str(cantor.MAX_DEPTH + 1)
        code, report = run(tmp_path, argv[0], "--depth", depth, *argv[1:])
        assert code == 2
        assert report is None
        assert f"depth must be in 1..{cantor.MAX_DEPTH}" in capsys.readouterr().err


class TestSequenceCommands:
    def test_seq_build(self, tmp_path):
        code, report = run(tmp_path, "seq-build", "--depth", "4", "--horizon", "100")
        assert code == 0
        assert report["mu"][0] == "1/9"
        assert report["breakpoints"][0] == 0

    def test_seq_decompose(self, tmp_path):
        code, report = run(tmp_path, "seq-decompose", "--depth", "6", "--horizon", "300",
                           "--delta", "2", "--m0", "1", "--lo", "0", "--length", "1/50")
        assert code == 0
        assert report["brute_force_ok"] is True

    def test_coverage01(self, tmp_path):
        code, report = run(tmp_path, "coverage01", "--depth", "6", "--N", "3",
                           "--M", "80", "--delta", "1", "--m0", "1")
        assert report["residual_measure"] == "0"
        assert code == (0 if report["pass"] else 1)

    def test_coverage01_passes_on_an_empty_residual_without_a_bound(self, tmp_path):
        # the README ladder at delta 1/4: no truncation level is dominated,
        # so no bound is printed, yet no t survives every translate
        code, report = run(tmp_path, "coverage01", "--depth", "10", "--N", "6", "--M", "409",
                           "--delta", "1/4", "--m0", "1")
        assert report["residual"] == []
        assert report["bound"] is None
        assert report["pass"] is True
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["seq-build", "--depth", "2"],
        ["seq-decompose", "--depth", "2", "--lo", "0", "--length", "1/9"],
        ["coverage01", "--depth", "2", "--N", "1", "--M", "20"],
        ["avoider-build", "--beta", "iterlog:1", "--depth", "1"],
        ["avoider-measure", "--beta", "iterlog:1", "--M", "40", "--lo", "0", "--length", "1/10"],
        ["avoider-embed", "--beta", "iterlog:1", "--alpha", "harmonic", "--M", "5",
         "--depth", "1"],
        ["avoider-build", "--beta", "harmonic", "--depth", "1"],
    ])
    def test_horizon_past_the_cap_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("sequence evaluated past the horizon cap")

        monkeypatch.setattr(slowseq, "_validate_gap_table", never)
        monkeypatch.setattr(presets, "_iterated_floor_log", never)
        code, report = run(tmp_path, *argv, "--horizon", str(slowseq.MAX_HORIZON + 1))
        assert code == 2
        assert report is None
        assert f"horizon must be in 1..{slowseq.MAX_HORIZON}" in capsys.readouterr().err

    def test_malformed_rational(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, "coverage01", "--depth", "6", "--N", "3", "--M", "80",
                "--delta", "nope")
        assert err.value.code == 2

    def test_zero_horizon_exits_two(self, tmp_path):
        code, report = run(tmp_path, "coverage01", "--depth", "5", "--N", "2", "--M", "40",
                           "--horizon", "0")
        assert code == 2
        assert report is None


class TestAvoiderCommands:
    def test_build(self, tmp_path):
        code, report = run(tmp_path, "avoider-build", "--beta", "harmonic",
                           "--depth", "8")
        assert code == 0
        assert report["depth"] == 8
        assert len(report["holes"]) == 8
        assert report["holes"][0]["V"] == "(1/4,3/4)"

    def test_measure(self, tmp_path):
        code, report = run(tmp_path, "avoider-measure", "--beta", "harmonic",
                           "--M", "40", "--lo", "0", "--length", "1/10")
        assert code == 0
        assert report["identity_ok"] is True

    def test_embed_certificate(self, tmp_path):
        code, report = run(tmp_path, "avoider-embed", "--beta", "harmonic",
                           "--alpha", "geometric:1/2", "--M", "100", "--depth", "64")
        assert code == 0
        assert report["checked_points"] == 100
        assert F(report["residual_measure"]) > 0

    def test_embed_rejects_empty_ladder(self, tmp_path):
        code, report = run(tmp_path, "avoider-embed", "--beta", "harmonic",
                           "--alpha", "geometric:1/2", "--M", "5", "--depth", "2",
                           "--imax", "0")
        assert code == 2
        assert report is None

    def test_preset_name_wins_over_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "harmonic").write_text("not a sequence file")
        code, report = run(tmp_path, "avoider-build", "--beta", "harmonic",
                           "--depth", "2")
        assert code == 0
        assert report["holes"][0]["V"] == "(1/4,3/4)"

    def test_sequence_file_rejects_non_strings(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # long enough to build from if the entries were read as rationals
        (tmp_path / "floats.json").write_text(json.dumps([1 / m for m in range(1, 200)]))
        (tmp_path / "ints.json").write_text(json.dumps([1] + [f"1/{m}" for m in range(2, 200)]))
        for name in ("floats.json", "ints.json"):
            code, report = run(tmp_path, "avoider-build", "--beta", name, "--depth", "2")
            assert code == 2
            assert report is None

    def test_sequence_file_input(self, tmp_path):
        path = tmp_path / "beta.json"
        path.write_text(json.dumps([f"1/{m}" for m in range(1, 200)]))
        code, report = run(tmp_path, "avoider-build", "--beta", str(path),
                           "--depth", "3")
        assert code == 0
        assert len(report["holes"]) == 3


    def test_negative_horizon_on_sequence_file_exits_two(self, tmp_path):
        path = tmp_path / "beta.json"
        path.write_text(json.dumps([f"1/{m}" for m in range(1, 200)]))
        code, report = run(tmp_path, "avoider-build", "--beta", str(path),
                           "--depth", "3", "--horizon", "-1")
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("horizon", ["-7", "0"])
    def test_bad_horizon_on_convex_preset_exits_two(self, tmp_path, horizon):
        code, report = run(tmp_path, "avoider-build", "--beta", "harmonic",
                           "--depth", "2", "--horizon", horizon)
        assert code == 2
        assert report is None

    def test_zero_horizon_on_materialized_preset_exits_two(self, tmp_path):
        code, report = run(tmp_path, "avoider-build", "--beta", "iterlog:1",
                           "--depth", "1", "--horizon", "0")
        assert code == 2
        assert report is None

    def test_depth_past_the_formula_horizon_names_the_hole(self, tmp_path, capsys):
        # hole 125 is 2^-125 long; no harmonic gap falls below that by m = 2^62
        code, report = run(tmp_path, "avoider-build", "--beta", "harmonic", "--depth", "125")
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("error: hole n=125: ")
        assert f"sequence horizon {avoider.FORMULA_HORIZON}" in err

    @pytest.mark.parametrize("argv, message", [
        # hole 2's cutoff K = 8 needs eta_9, one past the listed values
        (["avoider-build", "--depth", "2"],
         "hole n=2: no cutoff K = 2m with eta_m < 1/4 has an eta gap "
         "within the sequence horizon 8"),
        # the smallest gap of 1/2, ..., 1/9 is 1/72
        (["avoider-measure", "--M", "8", "--lo", "0", "--length", "1/100"],
         "no eta gap falls below the hole length lambda=1/100 within the sequence horizon 8"),
        # eta_9 is one past the listed values, though T = 1 needs none of it
        (["avoider-measure", "--M", "9", "--lo", "0", "--length", "1/2"],
         "M=9 is past the sequence horizon 8"),
    ], ids=["build", "measure", "measure-M"])
    def test_sequence_file_past_its_horizon_names_the_hole_and_the_input(
            self, tmp_path, capsys, argv, message):
        path = tmp_path / "beta.json"
        path.write_text(json.dumps([f"1/{m}" for m in range(2, 10)]))
        code, report = run(tmp_path, argv[0], "--beta", str(path), *argv[1:])
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_endpoints_past_the_bit_cap_exit_two(self, tmp_path, capsys):
        # hole 2 of geometric:999/1000 has 27,637-bit endpoints; the report
        # once failed to write them after 8 s of work
        code, report = run(tmp_path, "avoider-build", "--beta", "geometric:999/1000",
                           "--depth", "16")
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == (
            "error: hole n=2: endpoints of 27637 bits exceed "
            f"MAX_ENDPOINT_BITS = {avoider.MAX_ENDPOINT_BITS}\n")

    @pytest.mark.parametrize("beta", ["geometric:1/2", "geometric:9/10"])
    def test_geometric_presets_build(self, beta):
        # the threshold search once probed m = 2^62 - 1 first, evaluating
        # r ** (2^62 - 1); the child's address space is capped in case it does again
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(affcopy.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "affcopy.cli", "avoider-build", "--beta", beta,
             "--depth", "16"],
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_memory,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["holes"]) == 16


class TestWorkCaps:
    """Caps on the work a flag asks for are checked while parsing, before any
    sequence, avoider or property instance is built."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started past a cap")

        for owner, name in ((presets, "threshold_sequence_from"), (presets, "alpha_vector"),
                            (avoider, "build_avoider"), (avoider, "measure_union_translates"),
                            (propcheck, "run_kernel_property_suite")):
            monkeypatch.setattr(owner, name, never)

    @pytest.mark.parametrize("argv, flag, cap", [
        (["avoider-build", "--beta", "harmonic"], "--depth", avoider.MAX_DEPTH),
        (["avoider-embed", "--beta", "harmonic", "--alpha", "harmonic", "--M", "5"],
         "--depth", avoider.MAX_DEPTH),
        (["avoider-embed", "--beta", "harmonic", "--alpha", "harmonic", "--depth", "2"],
         "--M", avoider.MAX_M),
        (["avoider-measure", "--beta", "harmonic", "--lo", "0", "--length", "1/10"],
         "--M", avoider.MAX_M),
        (["prop-suite"], "--instances", propcheck.MAX_INSTANCES),
    ])
    def test_past_the_cap_exits_two(self, tmp_path, capsys, nothing_built, argv, flag, cap):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, *argv, flag, str(cap + 1))
        assert err.value.code == 2
        assert f"{cap + 1} is above the cap {cap}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        # the cap itself is accepted: parsing passes and the work starts
        with pytest.raises(AssertionError, match="work started"):
            run(tmp_path, *argv, flag, str(cap))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_translates_exits_two_naming_the_flag(self, tmp_path, capsys, nothing_built,
                                                     count):
        code, report = run(tmp_path, "avoider-embed", "--beta", "harmonic", "--alpha",
                           "harmonic", "--depth", "2", "--M", count)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == f"error: --M must be at least 1, got {count}\n"

    def test_caps_admit_the_documented_examples(self):
        # README, perfbench and the acceptance suite use depth 64, M 100 and
        # 1000 instances
        assert avoider.MAX_DEPTH >= 64
        assert avoider.MAX_M >= 160  # the acceptance suite's largest translate count
        assert propcheck.MAX_INSTANCES >= 1000

    def test_library_refuses_past_the_caps(self):
        with pytest.raises(ValueError, match="depth must be in"):
            avoider.build_avoider(None, avoider.MAX_DEPTH + 1)
        with pytest.raises(ValueError, match="M must be at most"):
            avoider.measure_union_translates(Interval.open(0, F(1, 10)), None,
                                             avoider.MAX_M + 1)
        with pytest.raises(ValueError, match="count must be in"):
            presets.alpha_vector("harmonic", avoider.MAX_M + 1)
        with pytest.raises(ValueError, match="instances must be in"):
            propcheck.run_kernel_property_suite(0, propcheck.MAX_INSTANCES + 1)


class TestAppendixCommands:
    def test_schedule_default(self, tmp_path):
        code, report = run(tmp_path, "appendix-schedule", "--depth", "2")
        assert code == 0
        assert report == {"radices": [4, 14], "h_verified": [True, True]}

    def test_schedule_rejected(self, tmp_path):
        code, report = run(tmp_path, "appendix-schedule", "--schedule", "4,12")
        assert code == 0
        assert report["h_verified"] == [True, False]

    def test_intersect_example(self, tmp_path):
        code, report = run(tmp_path, "appendix-intersect", "--schedule", "4,14",
                           "--alphas", "0,0", "--U", "2")
        assert code == 0
        assert report["interval"] == "[0,1/56]"
        assert report["branch"] == [1, 2]
        assert report["sampled_membership_ok"] is True

    def test_refuted_levels_exit_zero(self, tmp_path):
        # the report has no verdict field: a refuted or past-budget level is
        # a fact about the schedule, as it is for the *-build subcommands
        code, report = run(tmp_path, "appendix-schedule", "--schedule", "4,4,4,4")
        assert code == 0
        assert report == {"radices": [4, 4, 4, 4], "h_verified": [True, False, False, False]}

    def test_premeasure(self, tmp_path):
        code, report = run(tmp_path, "appendix-premeasure", "--schedule", "4,14",
                           "--j", "1", "--k", "1")
        assert code == 0
        assert report["bound"] == "2" == report["target"]

    def test_premeasure_branch_past_the_schedule_exits_two(self, tmp_path, capsys):
        # the level 2^(j-1) once was built first and failed to print as an int
        # of 30,103 digits; a larger j asked for gigabytes
        code, report = run(tmp_path, "appendix-premeasure", "--schedule", "4,14",
                           "--j", "100000", "--k", "1")
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == (
            "error: schedule too short: branch 100000 needs a level of at least 2^99999\n")


class TestHarness:
    def test_prop_suite(self, tmp_path):
        code, report = run(tmp_path, "prop-suite", "--seed", "7", "--instances", "40")
        assert code == 0
        assert report["pass"] is True

    @pytest.mark.parametrize("instances", ["-5", "0"])
    def test_prop_suite_rejects_no_instances(self, tmp_path, instances):
        code, report = run(tmp_path, "prop-suite", "--instances", instances)
        assert code == 2
        assert report is None

    def test_out_into_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["appendix-premeasure", "--schedule", "4,14", "--j", "1", "--k", "1",
                     "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_failed_out_write_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()
        code = main(["appendix-premeasure", "--schedule", "4,14", "--j", "1", "--k", "1",
                     "--out", str(out)])
        assert code == 2
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(out) == []

    def test_out_file_gets_the_umask_mode(self, tmp_path):
        # like a shell redirect, not mkstemp's private 0600
        old = os.umask(0o022)
        try:
            code, _ = run(tmp_path, "cantor-build", "--depth", "2")
        finally:
            os.umask(old)
        assert code == 0
        assert (tmp_path / "report.json").stat().st_mode & 0o777 == 0o644

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("invariant broken; kernel bug")

        monkeypatch.setattr(cantor, "build_cantor", broken)
        code, report = run(tmp_path, "cantor-build", "--depth", "2")
        assert code == 3
        assert report is None
        assert "internal error: invariant broken; kernel bug" in capsys.readouterr().err

    def test_oracle_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        def offside(self, a, b, c, d):
            # from the right end of the middle third to k.hi: outside it
            return a * d + 2 * c * b, 3 * b * d, c, d

        monkeypatch.setattr(cantor.MiddleThirdOracle, "gap_ends", offside)
        code, report = run(tmp_path, "cantor-build", "--depth", "1")
        assert code == 2
        assert report is None
        assert capsys.readouterr().err.startswith("error: oracle violation at level 1, gap 1:")

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(avoider, "find_embedding", exhausted)
        code, report = run(tmp_path, "avoider-embed", "--beta", "harmonic",
                           "--alpha", "geometric:1/2", "--M", "5", "--depth", "2")
        assert code == 2
        assert report is None
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert os.listdir(tmp_path) == []

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-thing"])
        assert err.value.code == 2

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["coverage01", "--depth", "5", "--N", "2", "--M", "40"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        d = tmp_path / "d.json"
        main(["prop-suite", "--seed", "11", "--instances", "25", "--out", str(c)])
        main(["prop-suite", "--seed", "11", "--instances", "25", "--out", str(d)])
        assert c.read_bytes() == d.read_bytes()

    def test_stdout_when_no_out_flag(self, capsys):
        code = main(["appendix-premeasure", "--schedule", "4,14", "--j", "1", "--k", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meets_target"] is True


def _parser_pin(parser):
    """Each subcommand, in order: its help and, per flag, (required, default,
    choices, help)."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [(name, helps[name],
             {" ".join(a.option_strings): (a.required, a.default, a.choices, a.help)
              for a in p._actions})
            for name, p in sub.choices.items()]


HELP = (False, argparse.SUPPRESS, None, "show this help message and exit")
OUT = (False, None, None, "write the JSON report here (atomic)")
REQUIRED = (True, None, None, None)
ORACLE = (False, "middle-third", ["middle-third", "ternary-cantor"], None)
DELTA = (False, F(1), None, None)
M0 = (False, 1, None, None)
HORIZON = (False, None, None,
           "length a sequence file is truncated to and an iterlog preset is materialized "
           "over (default 60000); convex presets only range-check it")


def test_parser_flags_are_pinned():
    # every subcommand keeps its help and each flag its option strings,
    # required setting, default, choices and help; only flag order may change
    common = {"-h --help": HELP, "--out": OUT}
    assert _parser_pin(build_parser()) == [
        ("cantor-build", "build a gap ladder and dump it",
         {**common, "--depth": REQUIRED, "--oracle": ORACLE}),
        ("cantor-verify", "build a gap ladder and replay its invariants",
         {**common, "--depth": REQUIRED, "--kmax": REQUIRED, "--oracle": ORACLE}),
        ("cover", "truncated left-neighborhood cover of the remnant skeleton",
         {**common, "--depth": REQUIRED, "--N": REQUIRED, "--kmax": REQUIRED,
          "--oracle": ORACLE}),
        ("seq-build", "envelope the ladder's gap lengths into the slow sequence",
         {**common, "--depth": REQUIRED, "--horizon": REQUIRED, "--oracle": ORACLE}),
        ("seq-decompose", "split translates of an interval at the overlap threshold",
         {**common, "--depth": REQUIRED, "--horizon": REQUIRED, "--delta": DELTA,
          "--m0": M0, "--lo": REQUIRED, "--length": REQUIRED, "--oracle": ORACLE}),
        ("coverage01", "measure what the slow-sequence translates leave of [0,1)",
         {**common, "--depth": REQUIRED, "--N": REQUIRED, "--M": REQUIRED, "--delta": DELTA,
          "--m0": M0, "--horizon": (False, None, None, None), "--oracle": ORACLE}),
        ("avoider-build", "budget and punch the avoider holes",
         {**common, "--beta": (True, None, None, "decay preset or sequence file"),
          "--depth": REQUIRED, "--horizon": HORIZON}),
        ("avoider-measure", "translate-union measure identity for one hole",
         {**common, "--beta": REQUIRED, "--M": REQUIRED, "--lo": REQUIRED,
          "--length": REQUIRED, "--horizon": HORIZON}),
        ("avoider-embed", "search for an exact affine embedding certificate",
         {**common, "--beta": REQUIRED,
          "--alpha": (True, None, None, "target preset or sequence file"),
          "--M": REQUIRED, "--depth": REQUIRED, "--imax": (False, 40, None, None),
          "--horizon": HORIZON}),
        ("appendix-schedule", "build or certify a radix schedule",
         {**common, "--depth": (False, None, None, None),
          "--schedule": (False, None, None, None), "--budget": (False, 512, None, None)}),
        ("appendix-intersect", "nested-interval walk through the digit constraints",
         {**common, "--schedule": REQUIRED,
          "--alphas": (True, None, None, "comma-separated rationals"), "--U": REQUIRED}),
        ("appendix-premeasure", "cover-count bound for one branch and stage",
         {**common, "--schedule": REQUIRED, "--j": REQUIRED, "--k": REQUIRED}),
        ("prop-suite", "randomized exact checks of the kernel algebra",
         {**common, "--seed": (False, 0, None, None),
          "--instances": (False, 1000, None, None)}),
    ]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_main_builds_the_pinned_flags_of_its_subcommand_alone(monkeypatch, capsys, command):
    built = []

    def recorded(*args):
        built.append(build_parser(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recorded)
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    (full,) = [entry for entry in _parser_pin(build_parser()) if entry[0] == command]
    assert _parser_pin(built[0]) == [full]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert capsys.readouterr().out == sub.choices[command].format_help()


class TestScheduleCaps:
    """appendix-* work caps: checked while parsing, and by mixedradix before
    any product or exponential bracket is computed."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started past a cap")

        for name in ("make_system", "default_schedule"):
            monkeypatch.setattr(mixedradix, name, never)

    @pytest.mark.parametrize("argv, flag, cap", [
        (["appendix-schedule", "--schedule", "4,14"], "--budget", mixedradix.MAX_EXPONENT_BUDGET),
        (["appendix-schedule", "--depth", "2"], "--budget", mixedradix.MAX_EXPONENT_BUDGET),
        (["appendix-schedule"], "--depth", mixedradix.MAX_DEPTH),
    ])
    def test_past_the_cap_exits_two(self, tmp_path, capsys, nothing_built, argv, flag, cap):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, *argv, flag, str(cap + 1))
        assert err.value.code == 2
        assert f"{cap + 1} is above the cap {cap}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        with pytest.raises(AssertionError, match="work started"):
            run(tmp_path, *argv, flag, str(cap))

    @pytest.mark.parametrize("argv", [
        ["appendix-schedule"],
        ["appendix-intersect", "--alphas", "0,0", "--U", "2"],
        ["appendix-premeasure", "--j", "1", "--k", "1"],
    ])
    def test_schedule_longer_than_the_cap_exits_two(self, tmp_path, capsys, nothing_built,
                                                     argv):
        cap = mixedradix.MAX_DEPTH
        with pytest.raises(SystemExit) as err:
            run(tmp_path, *argv, "--schedule", ",".join(["4"] * (cap + 1)))
        assert err.value.code == 2
        assert f"{cap + 1} radices are above the cap {cap}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        with pytest.raises(AssertionError, match="work started"):
            run(tmp_path, *argv, "--schedule", ",".join(["4"] * cap))

    @pytest.mark.parametrize("depth", ["0", "-1", "3"])
    def test_walk_depth_outside_the_schedule_exits_two_naming_the_flag(
            self, tmp_path, capsys, nothing_built, depth):
        code, report = run(tmp_path, "appendix-intersect", "--schedule", "4,14",
                           "--alphas", "0,0", "--U", depth)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == f"error: --U must be in 1..2, got {depth}\n"

    def test_library_refuses_past_the_caps(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("exponential bracketed past a cap")

        # without the caps each call below brackets e^p at least once
        monkeypatch.setattr(mixedradix, "compare_with_exp", never)
        monkeypatch.setattr(mixedradix, "even_upper_exp_quotient", never)
        budget = mixedradix.MAX_EXPONENT_BUDGET + 1
        with pytest.raises(ValueError, match="levels exceed MAX_DEPTH"):
            mixedradix.make_system([4] * (mixedradix.MAX_DEPTH + 1))
        with pytest.raises(ValueError, match="depth must be in"):
            mixedradix.default_schedule(mixedradix.MAX_DEPTH + 1)
        with pytest.raises(ValueError, match="exceeds MAX_EXPONENT_BUDGET"):
            mixedradix.make_system((4, 14), budget)
        with pytest.raises(ValueError, match="exceeds MAX_EXPONENT_BUDGET"):
            mixedradix.default_schedule(2, budget)

    @pytest.mark.parametrize("argv, level, bits", [
        (["appendix-intersect", "--alphas", ",".join(["1/3"] * 9), "--U", "256"], 256, 51183),
        (["appendix-intersect", "--alphas", ",".join(["1/3"] * 9), "--U", "128"], 128, 17329),
        (["appendix-intersect", "--alphas", "0", "--U", "100"], 100, 12108),
        (["appendix-premeasure", "--j", "1", "--k", "64"], 127, 17129),
        (["appendix-premeasure", "--j", "1", "--k", "51"], 101, 12281),
    ])
    def test_products_past_the_bit_cap_exit_two(self, tmp_path, capsys, monkeypatch, argv,
                                                 level, bits):
        # the reports print rationals over P_n, which str() refuses past 4,300
        # digits; the walk and the bound are refused before either starts
        schedule = ",".join(map(str, mixedradix.default_schedule(256).radices))

        def never(*args, **kwargs):
            raise AssertionError("walk or bound started past the bit cap")

        monkeypatch.setattr(mixedradix, "branch_index", never)
        monkeypatch.setattr(mixedradix.MixedRadixSystem, "radix", never)
        code, report = run(tmp_path, *argv, "--schedule", schedule)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == (
            f"error: level {level}: P_{level} has {bits} bits, above MAX_PRODUCT_BITS = 12000\n")

    def test_long_radices_are_refused_by_their_product(self, tmp_path, capsys):
        # 30 radices of 4,300 digits, the longest int a flag parses
        schedule = ",".join(["2" + "0" * 4299] * 30)
        code, report = run(tmp_path, "appendix-intersect", "--schedule", schedule,
                           "--alphas", "0,0,0,0,0", "--U", "30")
        assert code == 2
        assert report is None
        assert "error: level 30: P_30 has 428460 bits, above MAX_PRODUCT_BITS" in \
            capsys.readouterr().err

    def test_offsets_past_the_bit_cap_exit_two(self, tmp_path, capsys, monkeypatch):
        # a 4,001-digit offset prints, but the walk's ends over P_40 times its
        # denominator would not; it is refused, by position, before the walk
        schedule = ",".join(map(str, mixedradix.default_schedule(40).radices))
        offsets = ",".join(["0"] + [f"1/{10 ** 4000 + 1}"] * 5)

        def never(*args, **kwargs):
            raise AssertionError("walk started past the bit cap")

        monkeypatch.setattr(mixedradix, "branch_index", never)
        code, report = run(tmp_path, "appendix-intersect", "--schedule", schedule,
                           "--alphas", offsets, "--U", "40")
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == (
            "error: offset 2: 13288 bits, with the 3559 bits of P_40, above "
            "MAX_PRODUCT_BITS = 12000\n")

    def test_product_cap_admits_printable_reports(self, tmp_path):
        assert len(str(2 ** mixedradix.MAX_PRODUCT_BITS)) < sys.int_info.default_max_str_digits
        schedule = ",".join(map(str, mixedradix.default_schedule(99).radices))
        assert mixedradix.default_schedule(99).product(99).bit_length() == 11936
        code, report = run(tmp_path, "appendix-intersect", "--schedule", schedule,
                           "--alphas", ",".join(["1/3"] * 7), "--U", "99")
        assert code == 0 and report["sampled_membership_ok"] is True
        code, report = run(tmp_path, "appendix-premeasure", "--schedule", schedule,
                           "--j", "1", "--k", "50")
        assert code == 0 and report["level"] == 99

    def test_caps_admit_the_documented_examples(self):
        # the acceptance suite certifies a six-level schedule at the default budget
        assert mixedradix.MAX_DEPTH >= 6
        assert mixedradix.MAX_EXPONENT_BUDGET >= mixedradix.DEFAULT_EXPONENT_BUDGET


@pytest.mark.parametrize("argv", [
    ["--depth", "9", "--schedule", "4,14"],
    [],
])
def test_schedule_takes_exactly_one_of_depth_and_schedule(tmp_path, capsys, argv):
    # --schedule once silently won over --depth
    code, report = run(tmp_path, "appendix-schedule", *argv)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert "--depth" in err and "--schedule" in err


@pytest.mark.parametrize("beta", ["harmonic:junk", "harmonic:"])
def test_harmonic_takes_no_argument(tmp_path, capsys, beta):
    # once read as plain harmonic
    code, report = run(tmp_path, "avoider-build", "--beta", beta, "--depth", "2")
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == f"error: harmonic takes no argument, got {beta!r}\n"


def _drop_last(kernel):
    """The kernel op with the last range of every result dropped."""
    return lambda *groups: kernel(*groups)[:-1]


def _no_twin(f_membership):
    """The digit constraint read on the greedy expansion only, never its borrow twin."""
    def greedy_only(x, n, system):
        return mixedradix.digits_of(x, system, n).digits[n - 1] in (0, system.radix(n) // 2)
    return greedy_only


def _any_first_radix(make_system):
    """make_system without its first-radix rule (M_1 >= 4) or certification."""
    def build(radices, exponent_budget=mixedradix.DEFAULT_EXPONENT_BUDGET):
        radices = tuple(radices)
        return mixedradix.MixedRadixSystem(radices=radices,
                                           products=tuple(accumulate(radices, mul)),
                                           h_verified=(False,) * len(radices))
    return build


#: One row per verdict the CLI turns into an exit code: the argv, the report
#: key and its failed value, and the fault (owner, name, faulty version of the
#: original) injected, or None where the input fails by itself.
VERDICTS = {
    "cantor-verify": (["--depth", "5", "--kmax", "2"], "pass", False,
                      (intervals, "_intersect", _drop_last)),
    "cover": (["--depth", "10", "--N", "2", "--kmax", "4"], "pass", False,
              (intervals, "_merge", _drop_last)),
    "seq-decompose": (["--depth", "6", "--horizon", "300", "--delta", "2", "--lo", "0",
                       "--length", "1/50"], "brute_force_ok", False,
                      (slowseq, "threshold_index", lambda index: lambda *a: index(*a) - 1)),
    # M = 3 leaves t = 0 with every t + alpha_m in the level-6 remnants
    "coverage01": (["--depth", "10", "--N", "6", "--M", "3"], "pass", False, None),
    "avoider-measure": (["--beta", "harmonic", "--M", "40", "--lo", "0", "--length", "1/10"],
                        "identity_ok", False, (intervals, "_merge", _drop_last)),
    "avoider-embed": (["--beta", "harmonic", "--alpha", "geometric:1/2", "--M", "20",
                       "--depth", "16", "--imax", "4"], "error", "ladder exhausted",
                      (intervals, "_intersect", lambda _: lambda a, b: [])),
    "appendix-intersect": (["--schedule", "4,14", "--alphas", "0,0", "--U", "2"],
                           "sampled_membership_ok", False,
                           (mixedradix, "f_membership", _no_twin)),
    "appendix-premeasure": (["--schedule", "2,2,2", "--j", "1", "--k", "2"], "meets_target",
                            False, (mixedradix, "make_system", _any_first_radix)),
    "prop-suite": (["--seed", "7", "--instances", "40"], "pass", False,
                   (intervals, "_intersect", _drop_last)),
}
VERDICT_LESS = {"cantor-build", "seq-build", "avoider-build", "appendix-schedule"}


@pytest.mark.parametrize("command", VERDICTS)
def test_every_verdict_can_fail_with_exit_one(tmp_path, monkeypatch, command):
    argv, key, failed, fault = VERDICTS[command]
    if fault is not None:
        # no check fails before the fault is injected; make_system refuses
        # the radix-2 schedule outright
        code, report = run(tmp_path, command, *argv)
        assert code == (2 if command == "appendix-premeasure" else 0)
        assert report is None or report.get(key) != failed
        (tmp_path / "report.json").unlink(missing_ok=True)
        owner, name, inject = fault
        monkeypatch.setattr(owner, name, inject(getattr(owner, name)))
    code, report = run(tmp_path, command, *argv)
    assert report[key] == failed
    assert code == 1


def test_verdict_table_covers_every_command():
    assert set(VERDICTS) | VERDICT_LESS == set(cli.COMMANDS)
    assert not set(VERDICTS) & VERDICT_LESS


# the two library-only verdicts: each fails on a real input or under one fault

def test_slow_decay_fails_on_a_ladder_with_shorter_gaps():
    # the slow sequence of the middle-third ladder holds against that ladder
    # and fails against a finite-points ladder whose gaps are shorter
    ladder = cantor.build_cantor(cantor.MiddleThirdOracle(), 6)
    seq = slowseq.build_mu({0: [ladder.gap_length(n) for n in range(1, 7)]}, 500)
    assert slowseq.verify_slow_decay(ladder, seq, 1, 1, range(1, 7)).passed
    points = tuple(F(i, 37) for i in range(1, 37))
    shorter = cantor.build_cantor(cantor.FinitePointsOracle(points), 6)
    report = slowseq.verify_slow_decay(shorter, seq, 1, 1, range(1, 7))
    assert not report.passed
    assert report.violations[:2] == ("n=2: delta*step at N_n is not below l_n",
                                     "n=2: threshold 31 exceeds breakpoint 30")


def test_summability_fails_on_a_threshold_one_step_late(monkeypatch):
    t = avoider.ThresholdSequence.from_convex(lambda m: F(1, m + 1))
    assert avoider.summability_report(t, 12).passed
    index = avoider.threshold_index
    monkeypatch.setattr(avoider, "threshold_index", lambda *args: index(*args) + 1)
    report = avoider.summability_report(t, 12)
    assert not report.passed
    assert report.violations == ("n=1: T*lambda exceeds the telescoped eta drop",)
