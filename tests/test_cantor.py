import dataclasses
import json
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional

import pytest

import fraction_kernel as ref
from affcopy import intervals
from affcopy.cantor import (CantorConstruction, CantorLevel, FinitePointsOracle, GapOracle,
                            InvariantReport, MiddleThirdOracle, OracleViolationError,
                            TernaryCantorOracle, build_cantor, middle_third,
                            truncated_union_cover, verify_cantor)
from affcopy.intervals import Interval, IntervalSet, RationalLike, as_fraction, union_all

F = Fraction
TWO_THIRDS = F(2, 3)


def in_ternary_cantor(x: RationalLike) -> bool:
    """Exact membership of a rational in the classical middle-thirds set.

    Follows the orbit x -> 3x (low branch) / 3x-2 (high branch); a rational
    orbit either revisits a state (never leaving the two outer thirds, so x
    is a member) or falls strictly inside a deleted middle third.
    """
    x = as_fraction(x)
    if x < 0 or x > 1:
        return False
    third = Fraction(1, 3)
    seen = set()
    while x not in seen:
        seen.add(x)
        if x <= third:
            x = 3 * x
        elif x >= TWO_THIRDS:
            x = 3 * x - 2
        else:
            return False
    return True


def ternary_gap_containing(x: RationalLike) -> Optional[Interval]:
    """The deleted middle third (a component of [0,1] minus the ternary set)
    containing x, or None when x is a member or outside (0,1)."""
    x = as_fraction(x)
    if x <= 0 or x >= 1 or in_ternary_cantor(x):
        return None
    lo = Fraction(0)
    scale = Fraction(1)
    while True:
        y = (x - lo) / scale
        if y < Fraction(1, 3):
            scale /= 3
        elif y > TWO_THIRDS:
            lo += 2 * scale / 3
            scale /= 3
        else:
            return Interval.open(lo + scale / 3, lo + 2 * scale / 3)


@pytest.fixture(scope="module")
def default6():
    return build_cantor(MiddleThirdOracle(), depth=6)


class TestTernaryHelpers:
    def test_known_members(self):
        for x in [0, 1, F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 9), F(7, 9)]:
            assert in_ternary_cantor(x), x

    def test_known_non_members(self):
        for x in [F(1, 2), F(2, 5), F(5, 9), F(1, 5), F(-1, 3), F(3, 2)]:
            assert not in_ternary_cantor(x), x

    def test_gap_containing_midpoint(self):
        assert ternary_gap_containing(F(1, 2)) == Interval.open(F(1, 3), F(2, 3))
        assert ternary_gap_containing(F(4, 27)) == Interval.open(F(1, 9), F(2, 9))
        assert ternary_gap_containing(F(1, 4)) is None


class TestBuild:
    def test_depth_one_default(self):
        c = build_cantor(MiddleThirdOracle(), depth=1)
        assert c.open_set(1) == IntervalSet((Interval.open(F(4, 9), F(5, 9)),))
        assert c.gap_length(1) == F(1, 9)
        assert c.remnant(1, 1) == Interval.closed(0, F(4, 9))
        assert c.remnant(1, 2) == Interval.closed(F(5, 9), 1)

    @pytest.mark.parametrize("oracle", [MiddleThirdOracle(), TernaryCantorOracle(),
                                        FinitePointsOracle((F(1, 2), F(2, 5)))])
    def test_depth_one_remnant_lengths(self, oracle):
        c = build_cantor(oracle, depth=1)
        for j in (1, 2):
            assert F(1, 3) <= c.remnant(1, j).length < F(2, 3)

    def test_tree_counts(self, default6):
        assert len(default6.remnant_set(6)) == 2 ** 6
        assert sum(len(default6.open_set(n)) for n in range(1, 7)) == 2 ** 6 - 1

    def test_oracle_gaps_avoid_ternary_target(self):
        oracle = TernaryCantorOracle()
        c = build_cantor(oracle, depth=6)
        for n in range(1, 7):
            for gap in c.open_set(n):
                assert int_avoids(oracle, gap)
        # members of the target stay inside every remnant stage
        for x in [0, 1, F(1, 3), F(1, 4), F(3, 4), F(2, 9)]:
            for n in range(1, 7):
                assert c.remnant_set(n).contains_point(x)

    def test_finite_points_never_deleted(self):
        points = (F(1, 2), F(1, 7), F(5, 6), F(13, 27))
        c = build_cantor(FinitePointsOracle(points), depth=6)
        for n in range(1, 7):
            for p in points:
                assert not c.open_set(n).contains_point(p)
                assert c.remnant_set(n).contains_point(p)

    def test_build_deterministic(self):
        assert build_cantor(TernaryCantorOracle(), 4) == build_cantor(TernaryCantorOracle(), 4)

    def test_two_fractions_per_new_gap(self, monkeypatch):
        # the oracle answers on ints: from depth 9 to 10 the build makes the
        # new gaps' two ends and the level length, and no other Fraction
        oracle = FinitePointsOracle((F(1, 2), F(2, 7), F(5, 11), F(13, 17)))
        made = Counter()

        def counted(cls, *args, _new=F.__new__, **kwargs):
            made["Fraction"] += 1
            made["bits"] = max([made["bits"]] + [x.bit_length() for x in args
                                                 if isinstance(x, int)])
            return _new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        build_cantor(MiddleThirdOracle(), 10)
        per_depth, bits = {}, {"middle-third": made["bits"]}
        for depth in (9, 10):
            made.clear()
            build_cantor(oracle, depth)
            per_depth[depth], bits[depth] = made["Fraction"], made["bits"]
        F(1, 3)
        assert made["Fraction"] == per_depth[10] + 1  # the hook counts
        assert per_depth[10] - per_depth[9] <= 2 * 2 ** 9 + 1, per_depth
        # a gap over one denominator is shrunk without squaring it, and a
        # point-free middle third answered over 9bd, not the scan's 3(3bd)^2
        assert bits[10] <= 128 and bits["middle-third"] <= 128, bits

    def test_bad_oracle_rejected(self):
        class Offside(MiddleThirdOracle):
            def gap_ends(self, a, b, c, d):
                # from the right end of the middle third to k.hi: outside it
                return a * d + 2 * c * b, 3 * b * d, c, d

        with pytest.raises(OracleViolationError) as err:
            build_cantor(Offside(), depth=1)
        assert err.value.n == 1 and err.value.j == 1

    def test_oracle_without_a_target_check_rejected(self):
        # every gap is checked against the target: an oracle that only
        # places gaps cannot leave that check unanswered and build a ladder
        class GapsOnly(GapOracle):
            def gap_ends(self, a, b, c, d):
                return MiddleThirdOracle().gap_ends(a, b, c, d)

        with pytest.raises(NotImplementedError):
            build_cantor(GapsOnly(), depth=3)


def scanned_gap(points, k):
    """The finite-points gap by a linear scan of every point."""
    third = (k.hi - k.lo) / 3
    lo, hi = k.lo + third, k.hi - third
    stops = [lo] + [p for p in sorted(points) if lo < p < hi] + [hi]
    best_lo, best_hi = max(zip(stops, stops[1:]), key=lambda s: s[1] - s[0])  # leftmost tie
    step = (best_hi - best_lo) / 3
    return Interval.open(best_lo + step, best_hi - step)


def scanned_avoids(points, iv):
    """Whether iv holds none of the points, by a linear scan of every point."""
    return not any((iv.lo < p or (iv.lo_closed and p == iv.lo))
                   and (p < iv.hi or (iv.hi_closed and p == iv.hi)) for p in points)


def ends(iv):
    """An interval's ends as the ints an oracle's int forms take."""
    return iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator


def open_gap(p, q, r, s):
    """The gap an oracle's gap_ends names, checking its positive denominators."""
    assert q > 0 and s > 0
    return Interval.open(F(p, q), F(r, s))


def int_avoids(oracle, iv):
    return oracle.avoids(*ends(iv), iv.lo_closed, iv.hi_closed)


def reference_middle_third(k):
    third = (k.hi - k.lo) / 3
    return Interval.closed(k.lo + third, k.hi - third)


def reference_ladder(gap_of, avoids, depth):
    """The ladder by the plain-Fraction algorithm: Fraction comparisons for
    the oracle checks, the least gap length by min, and each shrunk gap as
    midpoint -+ half; shares no arithmetic with build_cantor."""
    remnants, levels, prev = (Interval.closed(0, 1),), [], None
    for n in range(1, depth + 1):
        raw = []
        for j, k in enumerate(remnants, 1):
            gap = gap_of(k)
            if not gap.is_open or gap.lo >= gap.hi:
                raise OracleViolationError(n, j, f"gap {gap} is not a nondegenerate open interval")
            inner = reference_middle_third(k)
            if gap.lo < inner.lo or gap.hi > inner.hi:
                raise OracleViolationError(
                    n, j, f"gap {gap} leaves the closed middle third {inner} of {k}")
            if avoids(gap) is False:
                raise OracleViolationError(n, j, f"gap {gap} meets the target set")
            raw.append(gap)
        bound = min(g.hi - g.lo for g in raw)
        if prev is not None:
            bound = min(bound, prev / 2)
        prev = F(1, math.ceil(1 / bound))
        gaps, kids = [], []
        for k, g in zip(remnants, raw):
            mid = (g.lo + g.hi) / 2
            gaps.append(Interval.open(mid - prev / 2, mid + prev / 2))
            kids += [Interval.closed(k.lo, gaps[-1].lo), Interval.closed(gaps[-1].hi, k.hi)]
        remnants = tuple(kids)
        levels.append(CantorLevel(n=n, gap_length=prev, gaps=tuple(gaps), remnants=remnants))
    return CantorConstruction(depth=depth, levels=tuple(levels))


def reference_middle_ninth(k):
    inner = reference_middle_third(k)
    third = (inner.hi - inner.lo) / 3
    return Interval.open(inner.lo + third, inner.hi - third)


def seeded_point_sets(seed, count):
    """Point sets with duplicates and with points exactly on the ends of
    remnants' middle thirds (of the ladder the points build so far)."""
    rng = random.Random(seed)
    for _ in range(count):
        points = [F(rng.randint(1, q - 1), q) for q in rng.choices(range(2, 60), k=3)]
        for _ in range(3):
            ladder = reference_ladder(lambda k: scanned_gap(points, k),
                                      lambda iv: scanned_avoids(points, iv), 4)
            n = rng.randint(0, 3)
            inner = reference_middle_third(ladder.remnant(n, rng.randint(1, 2 ** n)))
            points.append(rng.choice((inner.lo, inner.hi)))
        points += rng.choices(points, k=2)
        rng.shuffle(points)
        yield tuple(points)


class Rescaled(GapOracle):
    """Another oracle's gaps with unreduced ends: (p/q, r/s) answered as
    (pt/qt, ru/su)."""

    def __init__(self, oracle, t, u):
        self.oracle, self.t, self.u = oracle, t, u

    def gap_ends(self, a, b, c, d):
        p, q, r, s = self.oracle.gap_ends(a, b, c, d)
        return p * self.t, q * self.t, r * self.u, s * self.u

    def avoids(self, p, q, r, s, lo_closed, hi_closed):
        return self.oracle.avoids(p, q, r, s, lo_closed, hi_closed)


class TestBuildAgainstReference:
    """build_cantor runs on integer numerators; the plain-Fraction ladder is
    the reference, with plain-Fraction oracles for all three targets."""

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_middle_third_and_ternary(self, depth):
        ternary = TernaryCantorOracle()
        for got, want in [
                (build_cantor(MiddleThirdOracle(), depth),
                 reference_ladder(reference_middle_ninth, lambda iv: True, depth)),
                (build_cantor(ternary, depth),
                 reference_ladder(reference_ternary_gap, reference_ternary_avoids, depth))]:
            assert got == want
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_finite_points(self):
        on_ends = Counter()
        for points in seeded_point_sets(61, 6):
            for depth in range(1, 9):
                want = reference_ladder(lambda k: scanned_gap(points, k),
                                        lambda iv: scanned_avoids(points, iv), depth)
                got = build_cantor(FinitePointsOracle(points), depth)
                assert got == want, (points, depth)
                assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
            for n in range(0, 8):
                for j in range(1, 2 ** n + 1):
                    inner = reference_middle_third(got.remnant(n, j))
                    on_ends[n > 0] += sum(p in (inner.lo, inner.hi) for p in points)
        assert on_ends[False] >= 3 and on_ends[True] >= 6, on_ends  # levels 0 and deeper

    def test_unreduced_gap_ends(self):
        # gaps over one unreduced denominator (t = u) take build_cantor's
        # one-denominator step and gaps over two (t != u) its general step
        rng = random.Random(113)
        targets = [(MiddleThirdOracle(), reference_middle_ninth, lambda iv: True)]
        for points in seeded_point_sets(127, 3):
            targets.append((FinitePointsOracle(points), lambda k, pts=points: scanned_gap(pts, k),
                            lambda iv, pts=points: scanned_avoids(pts, iv)))
        for oracle, gap_of, avoids in targets:
            want = {depth: reference_ladder(gap_of, avoids, depth) for depth in (3, 6)}
            for _ in range(3):
                t = rng.randint(2, 30)
                for u in (t, t + rng.randint(1, 30)):
                    for depth in (3, 6):
                        got = build_cantor(Rescaled(oracle, t, u), depth)
                        assert got == want[depth], (oracle.name, t, u, depth)
                        assert json.dumps(got.to_json_dict()) == \
                            json.dumps(want[depth].to_json_dict())

    def test_every_part_matches_the_checked_constructor(self):
        # the parts split_around builds unchecked equal the reference's
        # Interval.open and Interval.closed parts in every form, at depths 1-10
        (points,) = seeded_point_sets(131, 1)
        targets = [(MiddleThirdOracle(), reference_middle_ninth, lambda iv: True),
                   (TernaryCantorOracle(), reference_ternary_gap, reference_ternary_avoids),
                   (FinitePointsOracle(points), lambda k: scanned_gap(points, k),
                    lambda iv: scanned_avoids(points, iv))]
        for oracle, gap_of, avoids in targets:
            want = reference_ladder(gap_of, avoids, 10).levels
            for depth in range(1, 11):
                got = build_cantor(oracle, depth)
                assert got.levels == want[:depth], (oracle.name, depth)
            for lv, ref_lv in zip(got.levels, want):  # the depth-10 ladder, part by part
                for part, checked in zip(lv.gaps + lv.remnants, ref_lv.gaps + ref_lv.remnants):
                    assert (type(part.lo), type(part.hi)) == (F, F)
                    assert (type(part.lo_closed), type(part.hi_closed)) == (bool, bool)
                    assert hash(part) == hash(checked) and str(part) == str(checked)
                    assert pickle.loads(pickle.dumps(part)) == checked

    def test_middle_third_helper(self):
        rng = random.Random(67)
        for _ in range(500):
            lo = F(rng.randint(-50, 50), rng.randint(1, 40))
            k = Interval.closed(lo, lo + F(rng.randint(0, 50), rng.randint(1, 40)))
            assert middle_third(k) == reference_middle_third(k)
            if k.lo != k.hi:
                assert open_gap(*MiddleThirdOracle().gap_ends(*ends(k))) == \
                    reference_middle_ninth(k)


class Nudged(MiddleThirdOracle):
    """The middle-third oracle, except that in one remnant K its gap runs from
    the midpoint of K's middle third to `offset` lattice steps past one end."""

    def __init__(self, target, side, offset):
        self.target, self.side, self.offset = target, side, offset

    def gap_ends(self, a, b, c, d):
        k = Interval.closed(F(a, b), F(c, d))
        if k != self.target:
            return super().gap_ends(a, b, c, d)
        inner = reference_middle_third(k)
        step = self.offset * F(1, 3 * lcm(k.lo.denominator, k.hi.denominator))
        mid = (inner.lo + inner.hi) / 2
        lo, hi = (inner.lo - step, mid) if self.side == "lo" else (mid, inner.hi + step)
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator


class TestOracleGapOnTheMiddleThirdEnds:
    """A gap ending exactly on an end of the closed middle third is accepted;
    one lattice step 1/(3 lcm(den lo, den hi)) past it is rejected, with the
    reference's (n, j, reason)."""

    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_touching_and_one_step_outside(self, side, offset):
        clean = build_cantor(MiddleThirdOracle(), 4)
        rng = random.Random(71)
        for _ in range(6):
            n = rng.randint(1, 4)
            j = rng.randint(1, 2 ** (n - 1))
            oracle = Nudged(clean.remnant(n - 1, j), side, offset)
            gap_of = lambda k: open_gap(*oracle.gap_ends(*ends(k)))  # noqa: E731
            avoids = lambda iv: int_avoids(oracle, iv)  # noqa: E731
            if offset == 0:
                got = build_cantor(oracle, 4)
                assert got == reference_ladder(gap_of, avoids, 4)
                assert got.gap(n, j) != clean.gap(n, j)  # the nudged gap was used
                continue
            with pytest.raises(OracleViolationError) as want:
                reference_ladder(gap_of, avoids, 4)
            with pytest.raises(OracleViolationError) as got:
                build_cantor(oracle, 4)
            assert (got.value.n, got.value.j) == (want.value.n, want.value.j) == (n, j)
            assert got.value.reason == want.value.reason
            assert "leaves the closed middle third" in got.value.reason


class Spoiled(MiddleThirdOracle):
    """The middle-third oracle, except that in one remnant K its gap ends
    ``(p, q, r, s)`` become ``spoil(p, q, r, s)``."""

    def __init__(self, target, spoil):
        self.target, self.spoil = target, spoil

    def gap_ends(self, a, b, c, d):
        gap = super().gap_ends(a, b, c, d)
        return self.spoil(*gap) if Interval.closed(F(a, b), F(c, d)) == self.target else gap


class Blind(FinitePointsOracle):
    """Finite points, with the gaps placed as if there were none."""

    def gap_ends(self, a, b, c, d):
        return MiddleThirdOracle().gap_ends(a, b, c, d)


def seeded_remnants(seed, count):
    """(n, j, K) for seeded level-n gaps j of the depth-4 middle-third
    ladder, K the remnant the gap is cut from."""
    clean, rng = build_cantor(MiddleThirdOracle(), 4), random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        j = rng.randint(1, 2 ** (n - 1))
        yield n, j, clean.remnant(n - 1, j)


class TestOracleViolations:
    """Each breach of the oracle contract is named by its level n, its gap j
    and the rule it breaks."""

    @pytest.mark.parametrize("spoil", [
        lambda p, q, r, s: (p, 0, r, s),
        lambda p, q, r, s: (p, q, -r, -s),
        lambda p, q, r, s: (p, q, r, 0),
    ], ids=["zero", "negative", "zero-at-hi"])
    def test_non_positive_denominator(self, spoil):
        for n, j, k in seeded_remnants(79, 6):
            with pytest.raises(OracleViolationError) as err:
                build_cantor(Spoiled(k, spoil), 4)
            bad = spoil(*MiddleThirdOracle().gap_ends(*ends(k)))
            assert (err.value.n, err.value.j) == (n, j)
            assert err.value.reason == f"gap ends {bad} need positive denominators"

    @pytest.mark.parametrize("spoil", [
        lambda p, q, r, s: (p, q, p, q),
        lambda p, q, r, s: (r, s, p, q),
        lambda p, q, r, s: (2 * r, 2 * s, p, q),
    ], ids=["degenerate", "reversed", "reversed-two-denominators"])
    def test_degenerate_or_reversed_gap(self, spoil):
        for n, j, k in seeded_remnants(83, 6):
            with pytest.raises(OracleViolationError) as err:
                build_cantor(Spoiled(k, spoil), 4)
            p, q, r, s = spoil(*MiddleThirdOracle().gap_ends(*ends(k)))
            assert (err.value.n, err.value.j) == (n, j)
            assert err.value.reason == \
                f"gap ({F(p, q)},{F(r, s)}) is not a nondegenerate open interval"

    def test_gap_meeting_the_target(self):
        # a point inside K's middle-ninth gap: no earlier gap, cut from
        # another remnant, holds it
        for n, j, k in seeded_remnants(89, 6):
            gap = open_gap(*MiddleThirdOracle().gap_ends(*ends(k)))
            points = (gap.midpoint(),)
            oracle = Blind(points)
            with pytest.raises(OracleViolationError) as want:
                reference_ladder(lambda k: open_gap(*oracle.gap_ends(*ends(k))),
                                 lambda iv: scanned_avoids(points, iv), 4)
            with pytest.raises(OracleViolationError) as got:
                build_cantor(oracle, 4)
            assert (got.value.n, got.value.j) == (want.value.n, want.value.j) == (n, j)
            assert got.value.reason == want.value.reason == f"gap {gap} meets the target set"


def reference_ternary_gap(k):
    """The ternary oracle's gap by plain Fractions: the open middle third of
    the first ternary block of the smallest size fitting twice in the middle
    third of k."""
    inner = reference_middle_third(k)
    width = F(1)
    while 2 * width > inner.length:
        width /= 3
    block_lo = math.ceil(inner.lo / width) * width
    return Interval.open(block_lo + width / 3, block_lo + 2 * width / 3)


def reference_ternary_avoids(iv):
    """Whether iv misses the middle-thirds set: its closed ends are not
    members, and its interior lies in one deleted middle third or off [0,1]."""
    if (iv.lo_closed and in_ternary_cantor(iv.lo)) or (iv.hi_closed and in_ternary_cantor(iv.hi)):
        return False
    if iv.lo == iv.hi or iv.hi <= 0 or iv.lo >= 1:
        return True
    gap = ternary_gap_containing(iv.midpoint())
    return gap is not None and gap.lo <= iv.lo and iv.hi <= gap.hi


class TestIntForms:
    """Each oracle answers on ints; the Interval wrappers and plain-Fraction
    references must agree with them, on reduced and unreduced ints."""

    def test_gap_ends(self):
        rng = random.Random(113)
        oracles = [(MiddleThirdOracle(), reference_middle_ninth),
                   (TernaryCantorOracle(), reference_ternary_gap)]
        for _ in range(600):
            lo = F(rng.randint(0, 80), rng.randint(1, 81))
            if lo >= 1:
                continue
            k = Interval.closed(lo, lo + (1 - lo) * F(rng.randint(1, 27), 27))
            a, b, c, d = ends(k)
            t, u = rng.randint(1, 9), rng.randint(1, 9)
            for oracle, reference in oracles:
                want = reference(k)
                assert open_gap(*oracle.gap_ends(a, b, c, d)) == want, k
                assert open_gap(*oracle.gap_ends(a * t, b * t, c * u, d * u)) == want, k

    @pytest.mark.parametrize("k", [Interval.point(0), Interval.point(F(1, 2))])
    def test_ternary_refuses_a_degenerate_k(self, k):
        # no ternary block fits in a point; the search used to run forever
        with pytest.raises(ValueError, match="is degenerate"):
            TernaryCantorOracle().gap_ends(*ends(k))

    def test_avoids(self):
        rng = random.Random(127)
        ternary = TernaryCantorOracle()
        seen = Counter()
        for _ in range(3000):
            # ends on small ternary grids, so members and gap ends occur often
            lo = F(rng.randint(-3, 30), 3 ** rng.randint(1, 3))
            hi = lo + F(rng.randint(0, 9), 3 ** rng.randint(1, 3))
            iv = (Interval.point(lo) if lo == hi else
                  Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            want = reference_ternary_avoids(iv)
            assert int_avoids(ternary, iv) == want, iv
            p, q, r, s = ends(iv)
            t = rng.randint(2, 5)
            assert ternary.avoids(p * t, q * t, r * t, s * t, iv.lo_closed, iv.hi_closed) == want
            assert int_avoids(MiddleThirdOracle(), iv) is True
            seen[want, iv.lo_closed or iv.hi_closed] += 1
        assert min(seen.values()) > 100, seen


class TestFinitePointsOracle:
    """A linear scan of the points as Fractions is the reference for the
    oracle's cross-multiplied answers, on the ladder's few points and on
    hundreds."""

    def test_gaps_match_a_linear_scan(self):
        rng = random.Random(83)
        on_edges = 0
        for _ in range(2000):
            lo = F(rng.randint(-30, 30), rng.randint(1, 9))
            k = Interval.closed(lo, lo + F(rng.randint(1, 30), rng.randint(1, 9)))
            third = k.length / 3
            inner = (k.lo + third, k.hi - third)
            points = [F(rng.randint(-40, 40), rng.randint(1, 12))
                      for _ in range(rng.randint(0, 6))]
            points += [k.lo + k.length * F(rng.randint(0, 12), 12)
                       for _ in range(rng.randint(0, 4))]
            points += rng.sample(inner, rng.randint(0, 2))  # exactly on inner.lo / inner.hi
            points += rng.choices(points, k=rng.randint(0, 3)) if points else []  # duplicates
            rng.shuffle(points)
            on_edges += any(p in inner for p in points)
            oracle = FinitePointsOracle(tuple(points))
            want = scanned_gap(points, k)
            assert want == open_gap(*oracle.gap_ends(*ends(k))), (k, points)
        assert on_edges > 1000
        rng = random.Random(84)
        for _ in range(100):  # 200 points around K, about a tenth in its middle third
            lo = F(rng.randint(-30, 30), rng.randint(1, 9))
            k = Interval.closed(lo, lo + F(rng.randint(1, 30), rng.randint(1, 9)))
            points = [k.lo + k.length * F(rng.randint(-100, 200), rng.randint(90, 110))
                      for _ in range(200)]
            oracle = FinitePointsOracle(tuple(points))
            assert scanned_gap(points, k) == open_gap(*oracle.gap_ends(*ends(k))), (k, points)

    def test_point_free_middle_third_gets_the_middle_third_oracles_ints(self):
        # no point strictly inside K's middle third: none at all, points on
        # its two ends, in K's outer thirds or outside K. The answer is the
        # middle-third oracle's, as the same ints; one point inside it, and
        # the stretch scan answers instead
        rng = random.Random(131)
        kinds = Counter()
        for _ in range(1000):
            lo = F(rng.randint(-30, 30), rng.randint(1, 9))
            k = Interval.closed(lo, lo + F(rng.randint(1, 30), rng.randint(1, 9)))
            inner = reference_middle_third(k)
            kind = rng.choice(("none", "ends", "outer thirds", "outside"))
            kinds[kind] += 1
            points = {"none": [],
                      "ends": [inner.lo, inner.hi] * rng.randint(1, 2),
                      "outer thirds": [k.lo + (inner.lo - k.lo) * F(rng.randint(0, 6), 6),
                                       inner.hi + (k.hi - inner.hi) * F(rng.randint(0, 6), 6)],
                      "outside": [k.lo - F(rng.randint(1, 40), rng.randint(1, 12)),
                                  k.hi + F(rng.randint(1, 40), rng.randint(1, 12))]}[kind]
            t, u = rng.randint(1, 5), rng.randint(1, 5)
            a, b, c, d = ends(k)
            for args in ((a, b, c, d), (a * t, b * t, c * u, d * u)):
                got = FinitePointsOracle(tuple(points)).gap_ends(*args)
                assert got == MiddleThirdOracle().gap_ends(*args), (k, points)
            inside = inner.lo + (inner.hi - inner.lo) * F(rng.randint(1, 8), 9)
            oracle = FinitePointsOracle(tuple(points) + (inside,))
            assert open_gap(*oracle.gap_ends(a, b, c, d)) == scanned_gap(points + [inside], k)
        assert min(kinds.values()) > 200, kinds

    def test_one_scan_with_points_on_every_boundary(self):
        # points exactly on u/den and v/den (the ends of K's middle third), on
        # K's ends, strictly inside the middle third, in an outer third and
        # past K, some duplicated, asked as reduced and unreduced ints: the gap
        # against scanned_gap, and avoids under all four flag pairs against
        # scanned_avoids, on intervals between two of those points
        rng = random.Random(137)
        seen = Counter()
        for _ in range(1500):
            lo = F(rng.randint(-30, 30), rng.randint(1, 9))
            k = Interval.closed(lo, lo + F(rng.randint(1, 30), rng.randint(1, 9)))
            inner = reference_middle_third(k)
            kinds = {"u": inner.lo, "v": inner.hi, "K.lo": k.lo, "K.hi": k.hi,
                     "inside": inner.lo + inner.length * F(rng.randint(1, 11), 12),
                     "outer": k.lo + (inner.lo - k.lo) * F(rng.randint(1, 5), 6),
                     "past K": k.hi + F(rng.randint(1, 40), rng.randint(1, 12))}
            names = rng.sample(sorted(kinds), rng.randint(0, 4))
            points = [kinds[name] for name in names]
            points += rng.choices(points, k=rng.randint(0, 2)) if points else []
            rng.shuffle(points)
            seen.update(names)
            seen["duplicated"] += len(set(points)) < len(points)
            oracle = FinitePointsOracle(tuple(points))
            a, b, c, d = ends(k)
            t, u = rng.randint(1, 5), rng.randint(1, 5)
            want = scanned_gap(points, k)
            assert open_gap(*oracle.gap_ends(a, b, c, d)) == want, (k, points)
            assert open_gap(*oracle.gap_ends(a * t, b * t, c * u, d * u)) == want, (k, points)
            x, y = sorted(rng.sample(sorted(kinds.values()), 2))
            for lo_closed, hi_closed in product((False, True), repeat=2):
                probe = Interval(x, y, lo_closed, hi_closed)
                got = int_avoids(oracle, probe)
                assert got == scanned_avoids(points, probe), (probe, points)
                p, q, r, s = ends(probe)
                assert oracle.avoids(p * t, q * t, r * u, s * u, lo_closed, hi_closed) == got
                seen[lo_closed, hi_closed, got] += 1
        assert len(seen) == 16 and min(seen.values()) > 100, seen

    def test_avoids_target_matches_a_linear_scan(self):
        a, b = F(1, 3), F(3, 4)
        points_on = {"none": (), "lo": (a,), "hi": (b,), "both": (a, b, b),
                     "inside": (F(1, 2),), "outside": (0, F(1, 3) - F(1, 10**9), 1)}
        answers = set()
        for lo_closed in (False, True):
            for hi_closed in (False, True):
                iv = Interval(a, b, lo_closed, hi_closed)
                for name, points in points_on.items():
                    oracle = FinitePointsOracle(points + (F(7, 8), -1))
                    got = int_avoids(oracle, iv)
                    assert got == scanned_avoids(points, iv), (iv, name)
                    answers.add((name, got))
        assert {("lo", True), ("lo", False), ("hi", True), ("hi", False),
                ("both", False), ("inside", False), ("none", True), ("outside", True)} <= answers
        point = Interval.point(a)
        assert not int_avoids(FinitePointsOracle((a, a)), point)
        assert int_avoids(FinitePointsOracle((F(1, 4), b)), point)

    def test_avoids_target_with_points_on_the_ends(self):
        # ends and points over unrelated denominators, so the cross-multiplied
        # comparisons meet unreduced lattices
        rng = random.Random(79)
        seen = Counter()
        for _ in range(3000):
            lo = F(rng.randint(-20, 20), rng.randint(1, 15))
            hi = lo + F(rng.randint(0, 20), rng.randint(1, 15))
            iv = (Interval.point(lo) if lo == hi else
                  Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            points = [F(rng.randint(-30, 30), rng.randint(1, 17))
                      for _ in range(rng.randint(0, 5))]
            points += rng.sample((lo, hi, (lo + hi) / 2), rng.randint(0, 2))
            points += rng.choices(points, k=rng.randint(0, 2)) if points else []
            oracle = FinitePointsOracle(tuple(points))
            got = int_avoids(oracle, iv)
            assert got == scanned_avoids(points, iv), (iv, points)
            for end, closed in ((lo, iv.lo_closed), (hi, iv.hi_closed)):
                if end in points:
                    seen[closed, got] += 1
        assert set(seen) == {(False, True), (False, False), (True, False)}, seen
        rng = random.Random(80)
        answers = Counter()
        for _ in range(300):  # 200 points, on and around the ends as well
            lo = F(rng.randint(-20, 20), rng.randint(1, 15))
            hi = lo + F(rng.randint(0, 20), rng.randint(1, 15))
            iv = (Interval.point(lo) if lo == hi else
                  Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            # 200 points around the interval, or only outside it
            points = [lo + (hi - lo + 1) * F(rng.randint(-100, 200), rng.randint(90, 110))
                      for _ in range(200)]
            points = [p for p in points if not lo <= p <= hi] if rng.random() < 0.5 else points
            points += rng.sample((lo, hi, (lo + hi) / 2), rng.randint(0, 2))
            got = int_avoids(FinitePointsOracle(tuple(points)), iv)
            assert got == scanned_avoids(points, iv), (iv, points)
            answers[got] += 1
        assert min(answers.values()) > 50, answers

    def test_avoids_target_seeded(self):
        rng = random.Random(89)
        for _ in range(2000):
            points = [F(rng.randint(0, 12), 6) for _ in range(rng.randint(0, 6))]
            lo = F(rng.randint(0, 12), 6)
            hi = lo + F(rng.randint(0, 6), 6)
            iv = (Interval.point(lo) if lo == hi else
                  Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            oracle = FinitePointsOracle(tuple(points))
            assert int_avoids(oracle, iv) == scanned_avoids(points, iv), (iv, points)

    def test_int_forms_on_the_seeded_ladders(self):
        # every remnant of the seeded ladders, points on middle-third ends
        # included, asked as reduced and as unreduced ints
        rng = random.Random(109)
        for points in seeded_point_sets(61, 4):
            oracle = FinitePointsOracle(points)
            ladder = build_cantor(oracle, 5)
            for n in range(0, 5):
                for j in range(1, 2 ** n + 1):
                    k = ladder.remnant(n, j)
                    t, u = rng.randint(1, 5), rng.randint(1, 5)
                    a, b, c, d = ends(k)
                    want = scanned_gap(points, k)
                    assert open_gap(*oracle.gap_ends(a, b, c, d)) == want
                    assert open_gap(*oracle.gap_ends(a * t, b * t, c * u, d * u)) == want
                    assert int_avoids(oracle, want) is scanned_avoids(points, want) is True
                    closed = Interval.closed(want.lo, want.hi)
                    assert int_avoids(oracle, closed) == scanned_avoids(points, closed)


def tamper(c, n, gaps=None, remnants=None):
    """The ladder c with level n's gaps and/or remnants replaced."""
    lv = c.levels[n - 1]
    level = dataclasses.replace(lv, gaps=lv.gaps if gaps is None else tuple(gaps),
                                remnants=lv.remnants if remnants is None else tuple(remnants))
    return dataclasses.replace(c, levels=c.levels[:n - 1] + (level,) + c.levels[n:])


def kernel_covers(parent, gap):
    """The left-neighborhood claim for one gap, computed by the interval kernel."""
    covered = IntervalSet((gap,)).left_neighborhood(TWO_THIRDS * parent.length)
    return covered.issuperset(IntervalSet((Interval.half_open(parent.lo, gap.hi),)))


class TestVerify:
    def test_default_depth_six_clean(self, default6):
        report = verify_cantor(default6, k_max=3)
        assert report.passed, report.violations

    def test_depth_one_vacuous_monotone_check(self):
        c = build_cantor(MiddleThirdOracle(), depth=1)
        assert verify_cantor(c, k_max=1).passed

    def test_tampered_gap_flagged(self, default6):
        # shove the level-2 first gap to the right edge of its parent,
        # outside the middle third, keeping everything else intact
        lv = default6.levels[1]
        parent = default6.remnant(1, 1)
        bad = Interval.open(parent.hi - lv.gap_length, parent.hi)
        gaps = (bad,) + lv.gaps[1:]
        remnants = (Interval.closed(parent.lo, bad.lo),
                    Interval.closed(bad.hi, parent.hi)) + lv.remnants[2:]
        tampered_level = dataclasses.replace(lv, gaps=gaps, remnants=remnants)
        tampered = CantorConstruction(
            depth=2, levels=(default6.levels[0], tampered_level))
        report = verify_cantor(tampered, k_max=1)
        assert not report.passed
        assert any("neighborhood misses" in v for v in report.violations)

    def test_gap_ending_on_parent_inf_is_reported(self, default6):
        # gap (2,2) slid left until it ends on inf K(1,2) = 5/9
        lv = default6.levels[1]
        moved = Interval.open(F(5, 9) - lv.gap_length, F(5, 9))
        report = verify_cantor(tamper(default6, 2, gaps=(lv.gaps[0], moved)), k_max=2)
        assert f"level 2 gap 2: {moved} ends at or before inf parent 5/9" in report.violations

    def test_degenerate_parent_is_reported(self, default6):
        # K(1,1) collapsed to the point [0,0]
        remnants = (Interval.point(0), default6.remnant(1, 2))
        report = verify_cantor(tamper(default6, 1, remnants=remnants), k_max=2)
        assert "level 2 gap 1: parent [0,0] is degenerate" in report.violations
        assert "children of remnant (1,1) misplaced: " \
            f"{default6.remnant(2, 1)}, {default6.remnant(2, 2)}" in report.violations

    @pytest.mark.parametrize("short_remnants", [False, True])
    def test_short_level_is_reported(self, default6, short_remnants):
        # level 3 loses its last gap, and with it possibly its last two remnants
        lv = default6.levels[2]
        remnants = lv.remnants[:-2] if short_remnants else None
        report = verify_cantor(tamper(default6, 3, gaps=lv.gaps[:-1], remnants=remnants),
                               k_max=4)
        assert "level 3: expected 4 gaps, found 3" in report.violations
        assert ("level 3: expected 8 remnants, found 6" in report.violations) == short_remnants

    @pytest.mark.parametrize("part", ["gaps", "remnants"])
    def test_level_out_of_order_is_reported(self, part):
        # the reversed tuple is no canonical IntervalSet; verify reports it
        c = build_cantor(MiddleThirdOracle(), 3)
        reversed_part = getattr(c.levels[2], part)[::-1]
        report = verify_cantor(tamper(c, 3, **{part: reversed_part}), k_max=2)
        if part == "gaps":
            assert "level 3: closures of gaps 1 and 2 meet" in report.violations
        else:
            left, right = reversed_part[:2]
            assert f"children of remnant (2,1) misplaced: {left}, {right}" in report.violations

    @pytest.mark.parametrize("depth", [2, 4])
    def test_depth_off_the_levels_is_reported(self, depth):
        c = build_cantor(MiddleThirdOracle(), 3)
        report = verify_cantor(dataclasses.replace(c, depth=depth), k_max=2)
        assert report.depth == depth
        assert report.violations == (f"depth {depth} but 3 levels",)

    @pytest.mark.parametrize("place, number", [(2, 5), (3, 1)])
    def test_level_numbered_off_its_place_is_reported(self, place, number):
        c = build_cantor(MiddleThirdOracle(), 3)
        levels = list(c.levels)
        levels[place - 1] = dataclasses.replace(levels[place - 1], n=number)
        report = verify_cantor(dataclasses.replace(c, levels=tuple(levels)), k_max=2)
        assert report.violations == (f"level {place} is numbered {number}",)

    def test_closures_meeting_across_levels_are_named(self, default6):
        # gap (3,2) slid right until its closure meets the level-1 gap's at 4/9;
        # the pairwise pass runs and names the pair, and the count holds
        lv = default6.levels[2]
        moved = Interval.open(F(4, 9) - lv.gap_length, F(4, 9))
        tampered = tamper(default6, 3, gaps=(lv.gaps[0], moved) + lv.gaps[2:])
        report = verify_cantor(tampered, 3)
        closures = [tampered.open_set(n).closure() for n in range(1, 7)]
        meeting = [f"closures of level {n} and level {m} gap unions intersect"
                   for n in range(1, 7) for m in range(n + 1, 7)
                   if closures[n - 1].intersect(closures[m - 1])]
        assert "closures of level 1 and level 3 gap unions intersect" in meeting
        assert [v for v in report.violations if v.startswith("closures of level")] == meeting
        assert report.checks_run == verify_cantor(default6, 3).checks_run

    def test_no_kernel_call_per_gap(self, monkeypatch):
        # the gap count doubles from depth 9 to 10; the kernel calls may grow
        # with the number of levels only
        calls = Counter()
        for name in ("_decode", "_sweep"):
            def counted(*args, _op=getattr(intervals, name), _name=name):
                calls[_name] += 1
                return _op(*args)
            monkeypatch.setattr(intervals, name, counted)
        per_depth = {}
        for depth in (9, 10):
            ladder = build_cantor(MiddleThirdOracle(), depth)
            calls.clear()
            assert verify_cantor(ladder, 4).passed
            per_depth[depth] = dict(calls)
        for name in ("_decode", "_sweep"):
            assert per_depth[9][name] > 0
            assert per_depth[10][name] - per_depth[9][name] <= 2 * 10, per_depth

    def test_set_claims_never_encode_parts(self, monkeypatch):
        # the set claims build every set from the verifier's lattice, the
        # fallback for a non-canonical level included
        def never(*args):
            raise AssertionError("verify_cantor encoded a set")

        ladder = build_cantor(FinitePointsOracle((F(1, 3), F(5, 8))), 6)
        reversed_gaps = tamper(ladder, 4, gaps=ladder.levels[3].gaps[::-1])
        monkeypatch.setattr(intervals, "_encode", never)
        assert verify_cantor(ladder, 4).passed
        assert "level 4: closures of gaps 1 and 2 meet" in \
            verify_cantor(reversed_gaps, 4).violations

    def test_no_fraction_comparison_per_part(self, monkeypatch):
        # the part count doubles from depth 9 to 10; the Fraction comparisons
        # verify_cantor makes may grow with the number of levels only
        ladders = {depth: build_cantor(MiddleThirdOracle(), depth) for depth in (9, 10)}
        calls = Counter()
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            def counted(a, b, _op=getattr(F, name), _name=name):
                calls[_name] += 1
                return _op(a, b)
            monkeypatch.setattr(F, name, counted)
        per_depth = {}
        for depth, ladder in ladders.items():
            calls.clear()
            report = verify_cantor(ladder, 4)
            per_depth[depth] = sum(calls.values())
            assert report.passed
        assert F(1, 3) < F(1, 2) and calls["__lt__"]  # the hook counts
        assert per_depth[10] - per_depth[9] <= 2 * 10, per_depth

    def test_adjacency_of_gap_and_right_child(self, default6):
        c = default6
        for n in range(1, c.depth + 1):
            for j in range(1, 2 ** (n - 1) + 1):
                assert c.gap(n, j).hi == c.remnant(n, 2 * j).lo

    def test_telescoping_left_neighborhoods(self, default6):
        c = default6
        for n in range(1, c.depth):
            for j in range(1, 2 ** n + 1):
                for k_top in range(1, c.depth - n + 1):
                    pieces = []
                    chain = []
                    for k in range(1, k_top + 1):
                        parent = c.remnant(n + k - 1, 2 ** (k - 1) * j)
                        gap = c.gap(n + k, 2 ** (k - 1) * j)
                        pieces.append(IntervalSet((gap,)).left_neighborhood(
                            TWO_THIRDS * parent.length))
                        chain.append(IntervalSet((Interval.half_open(parent.lo, gap.hi),)))
                    got = union_all(pieces)
                    want = IntervalSet((Interval.half_open(
                        c.remnant(n, j).lo,
                        c.remnant(n + k_top, 2 ** k_top * j).lo),))
                    # the adjacent half-open pieces tile the block exactly
                    assert union_all(chain) == want
                    assert got.issuperset(want)
                    # and the covered half-open block is exactly the union's
                    # intersection with the parent remnant skeleton
                    assert got.intersect(IntervalSet((Interval.half_open(
                        c.remnant(n, j).lo, c.remnant(n, j).hi),))) == want


class TestNeighborhoodClosedForm:
    """verify_cantor decides the left-neighborhood claim with 3a < lo + 2hi;
    the kernel's left_neighborhood and issuperset are the reference."""

    @pytest.mark.parametrize("oracle", [
        MiddleThirdOracle(), FinitePointsOracle((F(1, 2), F(2, 7), F(5, 11), F(13, 17)))])
    def test_verdict_matches_the_kernel(self, oracle):
        c = build_cantor(oracle, 4)
        rng = random.Random(97)
        seen = Counter()
        for _ in range(200):
            n = rng.randint(1, 4)
            j = rng.randint(1, 2 ** (n - 1))
            parent, l = c.remnant(n - 1, j), c.gap_length(n)
            step = F(1, 3 * lcm(parent.lo.denominator, parent.hi.denominator, l.denominator))
            edge = (parent.lo + 2 * parent.hi) / 3  # 3a = lo + 2hi
            # the left end on the edge, one lattice step off it, or anywhere
            # from just left of the parent to just right of it
            offset = rng.choice([-1, 0, 1, None])
            if offset is None:
                a = parent.lo - l + (parent.length + 2 * l) * F(rng.randint(1, 199), 200)
            else:
                a = edge + offset * step
            moved = Interval(a, a + l, False, rng.random() < 0.5)
            gaps = list(c.levels[n - 1].gaps)
            gaps[j - 1] = moved
            report = verify_cantor(tamper(c, n, gaps=gaps), k_max=2)
            flagged = (f"level {n} gap {j}: left 2/3|K|-neighborhood misses "
                       f"[{parent.lo},{moved.hi})") in report.violations
            covers = kernel_covers(parent, moved)
            assert flagged == (not covers), (n, j, moved)
            if offset is not None:
                assert covers == (offset < 0), (n, j, moved)
            seen[offset, covers, moved.hi_closed] += 1
        assert {(0, False, True), (0, False, False), (-1, True, True), (1, False, False),
                (None, True, False), (None, False, True)} <= set(seen), seen


def reference_verify(c, k_max):
    """verify_cantor by the plain-Fraction algorithm: each scalar claim
    compares Fractions, and the set claims run on the reference kernel, so
    it shares no arithmetic with verify_cantor."""
    violations, checks = [], 0
    flag = violations.append
    depth = min(c.depth, len(c.levels))
    if c.depth != len(c.levels):
        flag(f"depth {c.depth} but {len(c.levels)} levels")
    prev = None
    for n, lv in enumerate(c.levels, 1):
        checks += 1
        if lv.n != n:
            flag(f"level {n} is numbered {lv.n}")
        if len(lv.gaps) != 2 ** (n - 1):
            flag(f"level {n}: expected {2 ** (n - 1)} gaps, found {len(lv.gaps)}")
        if len(lv.remnants) != 2 ** n:
            flag(f"level {n}: expected {2 ** n} remnants, found {len(lv.remnants)}")
        if lv.gap_length.numerator != 1 or lv.gap_length <= 0:
            flag(f"level {n}: gap length {lv.gap_length} is not a unit fraction")
        if prev is not None and lv.gap_length > prev.gap_length / 2:
            flag(f"level {n}: gap length {lv.gap_length} exceeds half of {prev.gap_length}")
        prev = lv
        for j, g in enumerate(lv.gaps, 1):
            checks += 1
            if not g.is_open:
                flag(f"level {n} gap {j}: {g} is not open")
            if g.hi - g.lo != lv.gap_length:
                flag(f"level {n} gap {j}: length {g.length} != {lv.gap_length}")
        for j, (a, b) in enumerate(zip(lv.gaps, lv.gaps[1:]), 1):
            checks += 1
            if a.hi >= b.lo:
                flag(f"level {n}: closures of gaps {j} and {j + 1} meet")
    closures = [ref.normalize([Interval.closed(g.lo, g.hi) for g in lv.gaps])
                for lv in c.levels[:depth]]
    checks += depth * (depth - 1) // 2
    if len(ref.normalize(p for s in closures for p in s)) != sum(map(len, closures)):
        for n in range(1, depth + 1):
            for m in range(n + 1, depth + 1):
                if ref.intersect(closures[n - 1], closures[m - 1]).parts:
                    flag(f"closures of level {n} and level {m} gap unions intersect")
    unit = Interval.closed(0, 1)
    rems = [(unit,)] + [lv.remnants for lv in c.levels[:depth]]
    gaps = IntervalSet(())
    for n in range(1, depth + 1):
        checks += 1
        gaps = ref.union(gaps, ref.normalize(c.levels[n - 1].gaps))
        if ref.difference(IntervalSet((unit,)), gaps) != ref.normalize(rems[n]):
            flag(f"level {n}: [0,1] minus gaps does not equal the remnant union")
        for j, r in enumerate(rems[n], 1):
            checks += 1
            if not (r.lo_closed and r.hi_closed):
                flag(f"level {n} remnant {j}: {r} is not closed")
            if r.hi - r.lo >= TWO_THIRDS ** n:
                flag(f"level {n} remnant {j}: length {r.length} >= (2/3)^{n}")
    for n in range(0, depth):
        kids = rems[n + 1]
        for j, (parent, left, right) in enumerate(
                zip(rems[n][:2 ** n], kids[0::2], kids[1::2]), 1):
            checks += 1
            if not (parent.lo == left.lo and left.hi < right.lo and right.hi == parent.hi):
                flag(f"children of remnant ({n},{j}) misplaced: {left}, {right}")
    for n in range(1, depth):
        for j, parent in enumerate(rems[n][:2 ** n], 1):
            prev_inf = None
            for k in range(1, min(k_max, depth - n) + 1):
                if (2 ** k) * j > len(rems[n + k]):
                    break
                checks += 1
                inf_k = rems[n + k][(2 ** k) * j - 1].lo
                if prev_inf is not None and inf_k < prev_inf:
                    flag(f"inf of rightmost descendant of ({n},{j}) decreased at k={k}")
                prev_inf = inf_k
                if parent.hi - inf_k >= TWO_THIRDS ** (n + k):
                    flag(f"remnant ({n},{j}): sup - inf of level-{n + k} rightmost "
                         f"descendant is not below (2/3)^{n + k}")
    for n in range(1, depth + 1):
        count = 2 ** (n - 1)
        for j, (parent, gap) in enumerate(
                zip(rems[n - 1][:count], c.levels[n - 1].gaps[:count]), 1):
            checks += 1
            lo, hi = parent.lo, parent.hi
            if not lo < hi:
                flag(f"level {n} gap {j}: parent {parent} is degenerate")
            elif not lo < gap.hi:
                flag(f"level {n} gap {j}: {gap} ends at or before inf parent {lo}")
            elif 3 * gap.lo >= lo + 2 * hi:
                flag(f"level {n} gap {j}: left 2/3|K|-neighborhood misses [{lo},{gap.hi})")
    return InvariantReport(depth=c.depth, k_max=k_max, checks_run=checks,
                           violations=tuple(violations))


#: Denominators unrelated to the ladders', up to the prime 2^61 - 1.
ODD_DENOMINATORS = (7, 1009, 65537, 2 ** 31 - 1, 10 ** 9 + 7, 2 ** 61 - 1)


def base_ladders(rng):
    """Clean ladders: middle-third of depth 2-5, and finite-points of depth
    2-4 on points with small unrelated or large denominators."""
    out = [build_cantor(MiddleThirdOracle(), depth) for depth in range(2, 6)]
    for i in range(12):
        dens = [rng.choice(ODD_DENOMINATORS) if i % 2 else rng.randint(2, 500)
                for _ in range(rng.randint(1, 4))]
        points = tuple(F(rng.randint(1, q - 1), q) for q in dens)
        out.append(build_cantor(FinitePointsOracle(points), rng.randint(2, 4)))
    return out


def moved(rng, x, near):
    """x moved by a small step over an unrelated denominator, or onto one
    of the values in ``near`` (where the exact claims flip)."""
    if near and rng.random() < 0.5:
        return rng.choice(near)
    return x + F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice(ODD_DENOMINATORS))


def tampered(rng, c):
    """c with one seeded defect: a moved endpoint or gap, a flipped flag, a
    dropped or swapped part, a rescaled gap length, or a renumbered level or
    depth. None when the defect would make no Interval."""
    n = rng.randint(1, len(c.levels))
    lv = c.levels[n - 1]
    l = lv.gap_length
    kind = rng.choice(("end", "end", "gap", "flag", "drop", "swap", "length", "length",
                       "number"))
    side = rng.choice(("gaps", "remnants"))
    parts = list(getattr(lv, side))
    if not parts:
        return None
    j = rng.randrange(len(parts))
    p = parts[j]
    parents = c.levels[n - 2].remnants if n > 1 else (Interval.closed(0, 1),)
    parent = parents[min(j // 2 if side == "remnants" else j, len(parents) - 1)]
    near = [parent.lo, parent.hi, (parent.lo + 2 * parent.hi) / 3, p.lo + l, p.hi - l,
            p.lo + TWO_THIRDS ** n, p.hi - TWO_THIRDS ** n]
    if j + 1 < len(parts):
        near.append(parts[j + 1].lo)
    if j:
        near.append(parts[j - 1].hi)
    try:
        if kind == "end":
            if rng.random() < 0.5:
                parts[j] = Interval(moved(rng, p.lo, near), p.hi, p.lo_closed, p.hi_closed)
            else:
                parts[j] = Interval(p.lo, moved(rng, p.hi, near), p.lo_closed, p.hi_closed)
        elif kind == "gap":
            shift = moved(rng, p.lo, near) - p.lo
            parts[j] = Interval(p.lo + shift, p.hi + shift, p.lo_closed, p.hi_closed)
        elif kind == "flag":
            flags = [p.lo_closed, p.hi_closed]
            flags[rng.randrange(2)] ^= True
            parts[j] = Interval(p.lo, p.hi, *flags)
        elif kind == "drop":
            del parts[j]
        elif kind == "swap":
            k = rng.randrange(len(parts))
            parts[j], parts[k] = parts[k], parts[j]
        elif kind == "length":
            l = rng.choice((2 * l, l / 2, F(3, 2) * l, F(-1) * l, F(0), F(1, l.denominator + 1),
                            F(1, l.denominator - 1) if l.denominator > 1 else l,
                            F(2, l.denominator)))
            if rng.random() < 0.5:  # the gaps follow the claimed length
                side, parts = "gaps", [Interval.open(g.midpoint() - l / 2, g.midpoint() + l / 2)
                                       for g in lv.gaps]
            else:
                side, parts = "gaps", list(lv.gaps)
        else:
            if rng.random() < 0.5:
                return dataclasses.replace(c, depth=c.depth + rng.choice((-1, 1)))
            lv = dataclasses.replace(lv, n=lv.n + rng.choice((-1, 1)))
    except ValueError:
        return None
    level = dataclasses.replace(lv, gap_length=l, **{side: tuple(parts)})
    return dataclasses.replace(c, levels=c.levels[:n - 1] + (level,) + c.levels[n:])


#: The message of each kind of violation, as a fragment no other kind holds.
VIOLATION_KINDS = ("but", "is numbered", "gaps, found", "remnants, found", "unit fraction",
                   "exceeds half", "is not open", "!=", "closures of gaps", "unions intersect",
                   "remnant union", "is not closed", ">= (2/3)", "misplaced", "decreased at",
                   "is not below", "is degenerate", "ends at or before", "neighborhood misses")


class TestVerifyAgainstReference:
    """verify_cantor decides its scalar claims on one integer lattice; the
    plain-Fraction verifier is the reference, report byte for byte."""

    def test_tampered_ladders(self):
        rng = random.Random(131)
        bases = base_ladders(rng)
        seen, failed, runs = Counter(), 0, 0
        while runs < 1000:
            c = tampered(rng, rng.choice(bases))
            if c is None:
                continue
            if rng.random() < 0.3:  # a second defect, maybe on another level
                c = tampered(rng, c) or c
            k_max = rng.randint(1, 5)
            got = verify_cantor(c, k_max)
            assert json.dumps(got.to_json_dict()) == \
                json.dumps(reference_verify(c, k_max).to_json_dict()), got
            runs += 1
            failed += not got.passed
            seen.update(kind for kind in VIOLATION_KINDS
                        if any(kind in v for v in got.violations))
        for c in bases:
            assert verify_cantor(c, 4) == reference_verify(c, 4)
            assert verify_cantor(c, 4).passed
        assert failed > 900, failed
        assert set(seen) == set(VIOLATION_KINDS), seen


class TestCover:
    def test_depth_insufficient(self, default6):
        with pytest.raises(ValueError):
            truncated_union_cover(default6, N=6, k_max=1)

    def test_two_four(self, default6):
        report = truncated_union_cover(default6, N=2, k_max=4)
        assert report.enclosure_ok
        assert report.bound == 4 * TWO_THIRDS ** 6
        assert report.uncovered_measure < report.bound
        assert report.passed

    def test_monotone_in_k_max(self, default6):
        # k_max = 1 is refused: its bound 32/27 is not below the skeleton's 50/63
        with pytest.raises(ValueError, match=r"N=2, k_max=1 .* = 32/27, not below the "
                                             r"skeleton measure 50/63$"):
            truncated_union_cover(default6, N=2, k_max=1)
        measures = [truncated_union_cover(default6, N=2, k_max=k).uncovered_measure
                    for k in range(2, 5)]
        assert all(b <= a for a, b in zip(measures, measures[1:]))

    def test_json_round_trip_shape(self, default6):
        d = truncated_union_cover(default6, N=1, k_max=2).to_json_dict()
        assert set(d) == {"N", "k_max", "uncovered", "uncovered_measure",
                          "enclosure_ok", "bound", "within_bound", "pass"}
        d2 = default6.to_json_dict()
        assert d2["depth"] == 6
        assert d2["levels"][0]["l"] == "1/9"
        assert d2["levels"][0]["gaps"] == ["(4/9,5/9)"]


class TestRefusals:
    """Every refusal by exception type and a fragment of its message."""

    @pytest.fixture(scope="class")
    def ladder4(self):
        return build_cantor(MiddleThirdOracle(), 4)

    @pytest.mark.parametrize("call, error, fragment", [
        (lambda c: c.remnant(0, 2), IndexError, "level 0 has a single remnant"),
        (lambda c: verify_cantor(c, 0), ValueError, "k_max must be positive"),
        (lambda c: truncated_union_cover(c, 0, 1), ValueError, "N and k_max must be positive"),
    ], ids=["remnant-level-zero", "verify-kmax-zero", "cover-N-zero"])
    def test_refused(self, ladder4, call, error, fragment):
        with pytest.raises(error) as err:
            call(ladder4)
        assert fragment in str(err.value)

    def test_level_zero_is_the_unit_interval(self, ladder4):
        assert ladder4.remnant_set(0) == IntervalSet((Interval.closed(0, 1),))
        assert ladder4.remnant(0, 1) == Interval.closed(0, 1)
