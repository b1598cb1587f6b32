"""Byte pins for reports the CLI golden digests never reach.

Each pin compares the exact ``json.dumps(..., indent=2)`` text, so key order,
the ``p/q`` string form and the position of ``"pass"`` are all pinned.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from affcopy import presets
from affcopy.avoider import (AvoiderConstruction, ThresholdSequence, build_avoider,
                             find_embedding, summability_report)
from affcopy.cantor import FinitePointsOracle, MiddleThirdOracle, build_cantor, verify_cantor
from affcopy.intervals import Interval, normalize
from affcopy.mixedradix import default_schedule, digits_of, make_system
from affcopy.propcheck import run_kernel_property_suite
from affcopy.slowseq import build_mu, verify_slow_decay

F = Fraction


def text(report):
    return json.dumps(report.to_json_dict(), indent=2)


def test_summability_report_bytes():
    t = ThresholdSequence.from_convex(lambda m: F(1, m + 1))
    digest = hashlib.sha256(text(summability_report(t, 12)).encode()).hexdigest()
    assert digest == "694f44c87e1aecb37c181b7923adbcd8d552157693e5a72528539dea1a8f45cd"


def test_slow_decay_report_bytes():
    ladder = build_cantor(MiddleThirdOracle(), 6)
    seq = build_mu({0: [ladder.gap_length(n) for n in range(1, 7)]}, 500)
    expected = {"delta": "1/3", "m0": 1, "n_start": 4, "entries": [
        {"n": 4, "M": 10, "N_n": 178, "alpha_at_M": "1/2"},
        {"n": 5, "M": 10, "N_n": 408, "alpha_at_M": "1/2"},
        {"n": 6, "M": 31, "N_n": 924, "alpha_at_M": "1/3"}],
        "violations": [], "pass": True}
    report = verify_slow_decay(ladder, seq, F(1, 3), 1, range(1, 7))
    assert text(report) == json.dumps(expected, indent=2)


def test_ladder_invariant_report_bytes():
    rng = random.Random(2024)
    points = tuple(F(rng.randint(1, 996), 997) for _ in range(5))
    report = verify_cantor(build_cantor(FinitePointsOracle(points), 10), 4)
    assert report.checks_run == 8105
    digest = hashlib.sha256(text(report).encode()).hexdigest()
    assert digest == "1314de2aac3de6153af1d8e1e356342337d5c9d9f6bc6da89430ee3ccb07d122"


def test_ladder_build_bytes():
    # the ladder itself, endpoint for endpoint; digest taken before the build
    # moved to integer numerators
    rng = random.Random(2024)
    points = tuple(F(rng.randint(1, 996), 997) for _ in range(5))
    digest = hashlib.sha256(text(build_cantor(FinitePointsOracle(points), 10)).encode())
    assert digest.hexdigest() == "f70533375a33ff954bce5a1e0b39f668b3ec8f5ed78cc8ed50d5a663b87a61dc"


def test_tampered_ladder_invariant_report_bytes():
    # one violation or more from every scalar check family, in a ladder the
    # set-valued checks still accept as canonical
    c = build_cantor(MiddleThirdOracle(), 5)
    levels = list(c.levels)
    lv = levels[2]  # a gap closed at its right end and a half-open remnant
    g, r = lv.gaps[2], lv.remnants[5]
    levels[2] = dataclasses.replace(
        lv, gaps=lv.gaps[:2] + (Interval(g.lo, g.hi, False, True),) + lv.gaps[3:],
        remnants=lv.remnants[:5] + (Interval.half_open(r.lo, r.hi),) + lv.remnants[6:])
    levels[3] = dataclasses.replace(levels[3], gap_length=2 * levels[3].gap_length)
    lv = levels[4]  # gap (5,1) shoved into the right third of K(4,1)
    parent = c.remnant(4, 1)
    shoved = Interval.open(parent.hi - 2 * lv.gap_length, parent.hi - lv.gap_length)
    # and K(4,2)'s children moved left of it, past the rightmost descendant of K(3,1)
    start, stop = parent.hi, c.remnant(4, 2).lo
    step = (stop - start) / 4
    levels[4] = dataclasses.replace(
        lv, gaps=(shoved,) + lv.gaps[1:],
        remnants=(Interval.closed(parent.lo, shoved.lo), Interval.closed(shoved.hi, parent.hi),
                  Interval.closed(start + step, start + 2 * step),
                  Interval.closed(start + 3 * step, c.remnant(4, 2).hi)) + lv.remnants[4:])
    report = verify_cantor(dataclasses.replace(c, levels=tuple(levels)), 3)
    assert (report.checks_run, len(report.violations)) == (251, 17)
    digest = hashlib.sha256(text(report).encode()).hexdigest()
    assert digest == "e2e1f3dca0c3c175387b6ffca7bf0c83ada941c302967e89398b403e7e512db1"


def test_property_report_bytes():
    expected = {"seed": 5, "instances": 3, "checks_run": 27, "failures": [], "pass": True}
    assert text(run_kernel_property_suite(5, 3)) == json.dumps(expected, indent=2)


def test_digit_vector_bytes():
    pins = [
        (digits_of(F(5, 8), make_system([4, 14]), 2),
         {"integer_part": 0, "digits": [2, 7], "exact": True}),
        (digits_of(F(-7, 5), default_schedule(3), 3),
         {"integer_part": -2, "digits": [2, 5, 22410637457282101649005], "exact": False}),
    ]
    for vector, expected in pins:
        assert text(vector) == json.dumps(expected, indent=2)


@pytest.mark.parametrize("alpha, M, digest", [
    ("geometric:2/3", 200, "3d8cf9ed920e407ecfc2c679863b9c6ae2337539d52161f4125f87812c35b53d"),
    ("polynomial:2", 300, "514d04c23baa7a5f39cb9bd3aecaa2c1b7bd0ca92dbf3e26f78a704e7674fd80"),
])
def test_embedding_certificate_bytes(alpha, M, digest):
    t = presets.threshold_sequence_from("harmonic", None)
    certificate = find_embedding(build_avoider(t, 48), presets.alpha_vector(alpha, M), t)
    assert certificate.checked_points == M
    assert hashlib.sha256(text(certificate).encode()).hexdigest() == digest


@pytest.mark.parametrize("hi, alpha, rungs, digest", [
    (F(1, 8), [F(1)], 2, "034047ff56a93d749faf74e6392df1807b668a90dc47099e0400b918738a8f2a"),
    (F(1, 64), [F(1), F(-1, 2), F(1, 3)], 5,
     "1b3daf736325ef5d70138929c187207589a2e0b1ab0ac2a2170f39494d37f6cb"),
])
def test_embedding_certificate_bytes_past_the_first_rung(hi, alpha, rungs, digest):
    # no preset certificate needs a second rung of the delta ladder; an
    # avoider [0, hi] that the first rungs' translates only touch at 0 does
    t = presets.threshold_sequence_from("harmonic", None)
    crafted = AvoiderConstruction(depth=0, holes=(), avoider=normalize([Interval.closed(0, hi)]))
    certificate = find_embedding(crafted, alpha, t)
    assert len(certificate.trace) == rungs
    assert hashlib.sha256(text(certificate).encode()).hexdigest() == digest
