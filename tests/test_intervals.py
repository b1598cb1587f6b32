import copy
import dataclasses
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain, product
from math import lcm

import pytest

import fraction_kernel as ref
from affcopy import intervals
from affcopy.intervals import (EMPTY, Interval, IntervalSet, as_fraction,
                               intersection_of_translates, normalize, union_all,
                               union_of_translates)
from affcopy.propcheck import random_fraction, random_interval_set, run_kernel_property_suite

F = Fraction


def iv(text):
    """The interval written as ``[lo,hi)`` and the like: a bracket for a
    closed end, a parenthesis for an open one."""
    s = text.strip()
    if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
        raise ValueError(f"malformed interval {text!r}")
    body = s[1:-1].split(",")
    if len(body) != 2:
        raise ValueError(f"malformed interval {text!r}")
    return Interval(body[0].strip(), body[1].strip(), s[0] == "[", s[-1] == "]")


def iset(*texts):
    return normalize([iv(t) for t in texts])


def is_point(p):
    return p.lo == p.hi


class TestIntervalBasics:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval.open(1, 0)

    def test_degenerate_point_needs_closed_ends(self):
        assert Interval.point(F(1, 3)).length == 0
        with pytest.raises(ValueError):
            Interval(F(1), F(1), True, False)

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1E+4301", "-2.5e-4_301", " 7e5000 ",
                                      "1e-\u0664\u0663\u0660\u0661"])
    def test_a_decimal_exponent_past_the_cap_is_refused(self, text):
        # Fraction(text) would build the power of ten first. The last text
        # writes 4301 in Arabic-Indic digits, which Fraction and int read too.
        assert intervals.MAX_DECIMAL_EXPONENT == 4300
        with pytest.raises(ValueError, match="decimal exponent .* above the cap 4300"):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "-1.5E+4_300", " 2e-0004300 ", "5",
                                      "-3/7", "0.25", "1e-\u0664\u0663\u0660\u0660"])
    def test_a_decimal_exponent_up_to_the_cap_is_read(self, text):
        assert as_fraction(text) == Fraction(text)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Interval.open(0.5, 1)

    def test_membership_respects_flags(self):
        half = iset("[0,1)")
        assert half.contains_point(0)
        assert half.contains_point(F(1, 2))
        assert not half.contains_point(1)

    def test_parse_round_trip(self):
        for text in ["(0,1)", "[0,1]", "[1/3,2/3)", "(-5/2,7]"]:
            assert str(iv(text)) == text

    @pytest.mark.parametrize("text", ["0,1", "[0;1]"])
    def test_parse_refuses_malformed_text(self, text):
        with pytest.raises(ValueError) as err:
            iv(text)
        assert str(err.value) == f"malformed interval {text!r}"


class TestNormalize:
    def test_overlapping_merge(self):
        assert iset("(0,1/2)", "(1/4,3/4)") == iset("(0,3/4)")

    def test_touching_closed_endpoint_merges(self):
        assert iset("(0,1/2)", "[1/2,1)") == iset("(0,1)")

    def test_missing_interior_point_stays_split(self):
        got = iset("(0,1/2)", "(1/2,1)")
        assert len(got) == 2
        assert got.to_strings() == ["(0,1/2)", "(1/2,1)"]

    def test_constructor_rejects_mergeable_parts(self):
        with pytest.raises(ValueError):
            IntervalSet((Interval.open(0, F(1, 2)), Interval.closed(F(1, 2), 1)))


class TestAffine:
    def test_shift(self):
        assert iset("(1/3,2/3)").affine(1, F(-1, 3)) == iset("(0,1/3)")

    def test_reflection(self):
        assert iset("(0,1)").affine(-1, 0) == iset("(-1,0)")

    def test_scale_and_shift_preserves_flags(self):
        got = iset("[0,1/4)", "(1/2,1)").affine(2, 1)
        assert got == iset("[1,3/2)", "(2,3)")

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            iset("(0,1)").affine(0, 1)


class TestBoolean:
    def test_complement_within(self):
        got = iset("(4/9,5/9)").complement_within(iv("[0,1]"))
        assert got == iset("[0,4/9]", "[5/9,1]")

    def test_complement_can_leave_degenerate_edges(self):
        got = iset("(0,1)").complement_within(iv("[0,1]"))
        assert got == iset("[0,0]", "[1,1]")
        assert got.measure() == 0

    def test_intersect(self):
        assert iset("(0,1/2)").intersect(iset("(1/4,1)")) == iset("(1/4,1/2)")

    def test_union_identity(self):
        assert EMPTY.union(iset("[2,3]")) == iset("[2,3]")

    def test_difference_respects_flags(self):
        got = iset("[0,1]").difference(iset("(0,1)"))
        assert got == iset("[0,0]", "[1,1]")


class TestMeasure:
    def test_flags_do_not_matter(self):
        assert iset("(0,1/2)", "[1/2,1)").measure() == 1

    def test_empty(self):
        assert EMPTY.measure() == 0
        with pytest.raises(ValueError, match="no longest part"):
            EMPTY.longest()

    def test_two_parts(self):
        assert iset("[0,4/9]", "[5/9,1]").measure() == F(8, 9)

    def test_degenerate_points(self):
        points = iset("[-1,-1]", "[0,0]", "[1/3,1/3]")
        assert points.measure() == 0
        assert points.longest() == iv("[-1,-1]")
        assert iset("[0,0]", "(1,3/2)").longest() == iv("(1,3/2)")

    def test_longest_picks_the_first_of_a_tie(self):
        tied = iset("[1/2,1]", "(2,5/2]", "(3,7/2)", "[4,4]")
        assert tied.longest() == iv("[1/2,1]")
        assert IntervalSet(tied.parts).longest() == iv("[1/2,1]")
        assert iset("[0,1/3]", "(1,2)", "[3,4)").longest() == iv("(1,2)")

    def test_cuts_agree_with_fraction_sums(self):
        # measure() and longest() read the integer cuts; the oracles are the
        # Fraction sum of lengths and max by length (the first maximum)
        rng = random.Random(67)
        ties = 0
        for _ in range(1500):
            kernel = random_interval_set(rng, max_parts=6)
            if rng.random() < 0.3:
                kernel = kernel.union(normalize([Interval.point(random_fraction(rng))]))
            if rng.random() < 0.3:  # far-apart translates: equal lengths tie
                kernel = union_of_translates(kernel, rng.sample(range(-500, 500, 100), 3))
            built = IntervalSet(kernel.parts)
            assert kernel._lattice is not None
            want = sum((p.length for p in kernel.parts), F(0))
            lengths = [p.length for p in kernel.parts]
            ties += len(lengths) > len(set(lengths))
            for s in (kernel, built):
                assert s.measure() == want
                if s:
                    assert s.longest() == max(s.parts, key=lambda p: p.length)
                else:
                    with pytest.raises(ValueError):
                        s.longest()
        assert ties > 300


class TestLeftNeighborhood:
    def test_single_interval_formula(self):
        got = iset("(1/3,2/3)").left_neighborhood(F(1, 6))
        assert got == iset("(1/6,2/3)")

    def test_per_part_then_normalize(self):
        got = iset("(0,1/4)", "(1/2,3/4)").left_neighborhood(F(1, 8))
        assert got == iset("(-1/8,1/4)", "(3/8,3/4)")

    def test_contains_star(self):
        s = iset("(0,1/4)", "(1/2,1)")
        assert s.left_neighborhood(F(1, 100)).issuperset(s.star())

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            iset("(0,1)").left_neighborhood(0)

    def test_cuts_against_the_reference(self):
        # mixed flags and degenerate points, radii on the set's lattice and
        # off it, and radii wide enough to merge neighbouring parts
        rng = random.Random(101)
        seen = Counter()
        for _ in range(1500):
            s = mixed_set(rng)
            if rng.random() < 0.5:
                r = random_fraction(rng, span=8, max_den=6, positive=True)
            else:
                r = F(rng.randint(1, 40), rng.choice((7, 11, 13, 101, 2 ** 61 - 1)))
            got, want = s.left_neighborhood(r), ref.left_neighborhood(s, r)
            same(got, want)
            seen["point"] += any(is_point(p) for p in s.parts)
            seen["merged"] += len(got) < len(s)
            seen["new denominator"] += s._lattice[0] % r.denominator != 0
        assert min(seen.values()) > 200, seen


class TestStar:
    def test_single(self):
        assert iset("(1/3,2/3)").star() == iset("[1/3,2/3)")

    def test_multiple_parts(self):
        assert iset("(0,1/4)", "(1/2,1)").star() == iset("[0,1/4)", "[1/2,1)")

    def test_touching_closures_rejected(self):
        with pytest.raises(ValueError):
            iset("(0,1/2)", "(1/2,1)").star()

    def test_degenerate_part_rejected(self):
        with pytest.raises(ValueError):
            iset("[1,1]").star()


class TestQueries:
    def test_contains_point_binary_search(self):
        s = iset("(0,1)", "[2,3)", "(4,5]")
        for x, expect in [(F(1, 2), True), (0, False), (2, True), (3, False),
                          (4, False), (5, True), (10, False)]:
            assert s.contains_point(x) is expect

    def test_superset(self):
        big = iset("(0,1)", "[2,4]")
        assert big.issuperset(iset("(1/4,1/2)", "[2,3)"))
        assert not big.issuperset(iset("[0,1/2)"))
        assert not big.issuperset(iset("(3,5)"))

    def test_serialization_round_trip(self):
        s = iset("(0,1/3)", "[1/2,2/3]")
        assert iset(*s.to_strings()) == s

    def test_superset_matches_union_definition(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = random_interval_set(rng), random_interval_set(rng)
            for big, small in ((a, b), (a.union(b), b), (a, a.intersect(b))):
                assert big.issuperset(small) is (big.union(small) == big)


def naive_union_of_translates(s, shifts):
    return ref.normalize([p for t in shifts for p in ref.translate(s, t).parts])


def naive_intersection_of_translates(s, shifts, within):
    out = within
    for t in shifts:
        out = ref.intersect(out, ref.translate(s, t))
    return out


class TestTranslatePrimitives:
    def test_union_matches_naive_definition(self):
        rng = random.Random(31)
        for _ in range(400):
            s = random_interval_set(rng)
            shifts = [random_fraction(rng, span=6, max_den=6)
                      for _ in range(rng.randint(0, 6))]  # unsorted, with repeats
            assert union_of_translates(s, shifts) == naive_union_of_translates(s, shifts)

    def test_intersection_matches_naive_definition(self):
        rng = random.Random(32)
        for _ in range(400):
            s, within = random_interval_set(rng, max_parts=6), random_interval_set(rng)
            shifts = [random_fraction(rng, span=3, max_den=4)
                      for _ in range(rng.randint(0, 4))]
            assert (intersection_of_translates(s, shifts, within)
                    == naive_intersection_of_translates(s, shifts, within))

    def test_edge_cases(self):
        s = iset("(0,1)", "[2,3]", "[5,5]", "(6,7]")
        assert union_of_translates(s, []) == EMPTY
        assert union_of_translates(EMPTY, [0, 1]) == EMPTY
        assert intersection_of_translates(s, [], iset("[0,9]")) == iset("[0,9]")
        assert intersection_of_translates(EMPTY, [0], iset("[0,9]")) == EMPTY
        # translates whose spans meet in no point, [0,3) and [3,6), with a gap
        # translate on either side of the point 3 where one span ends
        assert intersection_of_translates(iset("[0,1)", "[2,3)"), [0, 3], iset("[0,9]")) == EMPTY
        # mixed endpoint flags: closed translates absorb open ones and points
        assert union_of_translates(s, ["1", -1]).to_strings() == [
            "(-1,0)", "[1,2]", "[3,4]", "(5,6]", "(7,8]"]
        # open translates that only share an endpoint stay separated by it
        assert len(union_of_translates(iset("(0,1)"), [1, 0])) == 2
        assert union_of_translates(iset("(0,1)"), [F(1, 2), 0, F(-1, 2)]) == iset("(-1/2,3/2)")

    def test_intersection_reads_an_iterator_of_shifts_in_one_pass(self):
        got = intersection_of_translates(iset("(0,1)"), iter([0, 10, 20]), iset("[0,1]"))
        assert got == EMPTY

    # the translates chain into runs (intervals._translate_runs); each case
    # below checks both functions against the Fraction reference

    def both_against_the_reference(self, s, shifts, within=None):
        within = iset("[-40,40]") if within is None else within
        same(union_of_translates(s, shifts), naive_union_of_translates(s, shifts))
        same(intersection_of_translates(s, shifts, within),
             naive_intersection_of_translates(s, shifts, within))

    def test_duplicate_zero_and_negative_shifts(self):
        rng = random.Random(34)
        seen = Counter()
        for _ in range(400):
            s, within = mixed_set(rng), random_interval_set(rng, max_parts=6)
            pool = [random_fraction(rng, span=3, max_den=4) for _ in range(rng.randint(1, 4))]
            shifts = [rng.choice(pool + [0, -abs(pool[0])]) for _ in range(rng.randint(1, 9))]
            self.both_against_the_reference(s, shifts, within)
            seen["duplicate"] += len(set(shifts)) < len(shifts)
            seen["zero"] += 0 in shifts
            seen["negative"] += min(shifts) < 0
            seen["all negative"] += max(shifts) < 0
        assert min(seen.values()) > 40, seen

    def test_a_generator_of_shifts_is_read_once(self):
        rng = random.Random(35)
        for _ in range(100):
            s, within = mixed_set(rng), random_interval_set(rng)
            shifts = [random_fraction(rng, span=3, max_den=5) for _ in range(rng.randint(0, 8))]
            for translates, args in ((union_of_translates, ()),
                                     (intersection_of_translates, (within,))):
                reads = []
                got = translates(s, (reads.append(t) or t for t in shifts), *args)
                assert reads == shifts
                assert got == translates(s, shifts, *args)
            self.both_against_the_reference(s, shifts, within)

    def test_a_single_shift(self):
        rng = random.Random(36)
        for _ in range(200):
            s, within = mixed_set(rng), random_interval_set(rng)
            t = random_fraction(rng, span=4, max_den=7)
            same(union_of_translates(s, [t]), ref.translate(s, t))
            same(intersection_of_translates(s, [t], within),
                 ref.intersect(within, ref.translate(s, t)))
            self.both_against_the_reference(s, [t, t], within)

    def test_point_parts(self):
        points = iset("[0,0]", "[1/2,1/2]", "[1,1]")
        self.both_against_the_reference(points, [0, F(1, 2), 1, F(3, 2)])
        assert union_of_translates(points, [0, F(1, 2)]) == iset(
            "[0,0]", "[1/2,1/2]", "[1,1]", "[3/2,3/2]")
        # a point gap between two parts, and points beside intervals
        self.both_against_the_reference(iset("[0,1)", "(1,2]"), [0, F(1, 3), F(2, 3)])
        self.both_against_the_reference(iset("[-1,-1]", "(0,1)", "[2,2]", "[3,4]"),
                                        [0, 1, 2, F(-1, 2)])
        rng = random.Random(37)
        for _ in range(200):
            dots = ref.normalize([Interval.point(random_fraction(rng, span=4, max_den=3))
                                  for _ in range(rng.randint(1, 5))])
            shifts = [random_fraction(rng, span=2, max_den=3) for _ in range(rng.randint(1, 5))]
            self.both_against_the_reference(dots, shifts, random_interval_set(rng))

    @pytest.mark.parametrize("lo_closed, hi_closed", list(product((True, False), repeat=2)))
    def test_a_step_equal_to_the_length(self, lo_closed, hi_closed):
        # translates k*w of an interval of length w meet at the ends k*w:
        # they fuse unless both ends are open, which keeps every k*w out
        w, M = F(3, 7), 6
        part = IntervalSet((Interval(0, w, lo_closed, hi_closed),))
        shifts = [k * w for k in range(M)]
        self.both_against_the_reference(part, shifts)
        union = union_of_translates(part, shifts[::-1])
        fused = lo_closed or hi_closed
        assert len(union) == (1 if fused else M)
        assert union.measure() == M * w
        assert all(union.contains_point(k * w) is fused for k in range(1, M))
        # the same meeting rule for the gap of a set's translates: the gap
        # (1, 1 + w) between the parts, with the flags the parts leave it
        gapped = IntervalSet((Interval(-1, 1, True, not lo_closed),
                              Interval(1 + w, 3, not hi_closed, True)))
        self.both_against_the_reference(gapped, shifts, iset("[-2,9]"))
        hull = IntervalSet((Interval.closed(-1 + shifts[-1], 3),))  # every hull translate
        gap = IntervalSet((Interval(1, 1 + w, lo_closed, hi_closed),))
        assert hull.difference(intersection_of_translates(gapped, shifts, hull)) == (
            hull.intersect(union_of_translates(gap, shifts)))

    @pytest.mark.parametrize("step, M", [(F(1, 5), 7), (F(1, 2), 7), (F(1, 2) + F(1, 97), 7),
                                         (F(3, 2), 5), (F(1, 2), 1)])
    def test_the_runs_of_one_interval_have_a_closed_form_count(self, step, M):
        # one interval of length w = 1/2 under the shifts k*step: one run
        # when step <= w, else M runs, for a closed or a half-open interval
        w = F(1, 2)
        for part in (Interval.closed(0, w), Interval.half_open(0, w)):
            s = IntervalSet((part,))
            shifts = [k * step for k in range(M)] * 2  # each twice, one order reversed
            shifts[M:] = shifts[M:][::-1]
            D, (cuts,), moves = intervals._aligned((s,), shifts)
            runs = intervals._translate_runs(cuts, moves)
            assert len(runs) == (1 if step <= w else M)
            assert runs == intervals._merge(runs)  # the runs are the union
            assert len(union_of_translates(s, shifts)) == len(runs)
            self.both_against_the_reference(s, shifts)


def same(got, want):
    # the cut queries run first, while a kernel result is still undecoded
    size, measure = len(got), got.measure()
    longest = got.longest() if got else None
    assert got == want
    assert size == len(want) and measure == want.measure()
    assert longest == (max(want.parts, key=lambda p: p.length) if want else None)
    rebuilt = IntervalSet(got.parts)  # the output passes the canonical checks
    # the kernel's stored lattice takes no part in equality, hash or repr
    assert rebuilt == got and hash(rebuilt) == hash(got) and repr(rebuilt) == repr(got)
    for s in (got, rebuilt):  # read from the stored cuts, and encoded afresh
        assert s.measure() == sum((p.length for p in want.parts), F(0))
        if s:
            assert s.longest() == max(want.parts, key=lambda p: p.length)


class TestLazyResults:
    """A kernel result keeps its ``(D, cuts)`` and decodes its parts on first read."""

    @staticmethod
    def results(seed):
        rng = random.Random(seed)
        for _ in range(300):
            s, within = mixed_set(rng), random_interval_set(rng, max_parts=6)
            shifts = [random_fraction(rng, span=3, max_den=5) for _ in range(rng.randint(0, 4))]
            yield intersection_of_translates(s, shifts, within)
            yield normalize([*s, *within])

    def test_cut_queries_leave_the_parts_undecoded(self):
        nonempty = 0
        for got in self.results(73):
            answers = (len(got), bool(got), got.is_empty, got.measure(),
                       got.longest() if got else None)
            assert got._parts is None
            built = IntervalSet(got.parts)
            assert answers == (len(built), bool(built), built.is_empty, built.measure(),
                               max(built, key=lambda p: p.length) if built else None)
            nonempty += bool(got)
        assert nonempty > 300

    def test_a_decoded_result_is_an_ordinary_set(self):
        for got in self.results(79):
            built = IntervalSet(got.parts)
            assert got.parts is got.parts  # decoded once
            assert built == got and hash(built) == hash(got) and repr(built) == repr(got)
            assert repr(got) == f"IntervalSet(parts={got.parts!r})"
            for twin in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
                assert twin == got and hash(twin) == hash(got) and repr(twin) == repr(got)

    def test_results_are_immutable(self):
        got = normalize([iv("[0,1]")])
        for name in ("parts", "_parts", "_lattice"):
            with pytest.raises(FrozenInstanceError):
                setattr(got, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(got, name)
        assert got == iset("[0,1]")

    def test_longest_decodes_only_the_part_it_returns(self):
        got = normalize([iv("[0,1]"), iv("[1/2,3/2]"), iv("(2,3)"), iv("[5/2,7/2)")])
        assert got.longest() == iv("[0,3/2]")
        assert got._parts is None
        assert [p.lo for p in got.parts] == [0, 2]
        assert got == iset("[0,3/2]", "(2,7/2)")


def mixed_set(rng):
    """A random set with degenerate points added; zero and negative endpoints occur."""
    points = [Interval.point(random_fraction(rng, span=4, max_den=3))
              for _ in range(rng.randint(0, 3))]
    return ref.union(random_interval_set(rng, max_parts=5), ref.normalize(points))


def primes(count):
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    return found


class TestIntegerKernelAgainstReference:
    """The integer-cut kernel against the Fraction-cut reference in fraction_kernel."""

    def test_set_algebra(self):
        rng = random.Random(41)
        for _ in range(600):
            a, b, c = mixed_set(rng), mixed_set(rng), mixed_set(rng)
            raw = list(a.parts + b.parts) + [Interval.point(0), Interval.closed(-1, 0)]
            rng.shuffle(raw)
            same(normalize(raw), ref.normalize(raw))
            same(a.union(b), ref.union(a, b))
            same(union_all([a, b, c]), ref.union(ref.union(a, b), c))
            same(a.intersect(b), ref.intersect(a, b))
            same(a.difference(b), ref.difference(a, b))
            for window in (Interval.closed(-2, 2), Interval.point(0), Interval.open(0, 1)):
                same(a.complement_within(window), ref.difference(IntervalSet((window,)), a))

    def test_merge_matches_the_sweep_over_its_last_range(self):
        # the reference sweep keeps the open range as the last list entry
        def swept(*groups):
            merged = []
            for lo, hi in sorted(chain(*groups)):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
                else:
                    merged.append((lo, hi))
            return merged

        assert intervals._merge() == intervals._merge([], []) == []
        rng = random.Random(47)
        for _ in range(2000):
            # touching, nested and repeated ranges, in one to three groups
            groups = [[(lo, lo + rng.randint(1, 6))
                       for lo in rng.choices(range(-20, 20), k=rng.randint(0, 6))]
                      for _ in range(rng.randint(1, 3))]
            assert intervals._merge(*groups) == swept(*groups)

    def test_zero_negative_and_degenerate_endpoints(self):
        a = iset("[-1,0)", "[0,0]", "(0,1/2]", "[3/4,3/4]", "(1,2)")
        b = iset("(-1/2,0]", "[1/2,1]", "[2,2]")
        assert a == iset("[-1,1/2]", "[3/4,3/4]", "(1,2)")
        for x, y in ((a, b), (b, a)):
            same(x.union(y), ref.union(x, y))
            same(x.intersect(y), ref.intersect(x, y))
            same(x.difference(y), ref.difference(x, y))
        assert a.intersect(b).to_strings() == ["(-1/2,0]", "[1/2,1/2]", "[3/4,3/4]"]
        assert a.difference(b).to_strings() == ["[-1,-1/2]", "(0,1/2)", "(1,2)"]

    def test_two_hundred_parts_with_distinct_prime_denominators(self):
        rng = random.Random(43)
        ps = primes(400)
        rng.shuffle(ps)
        sets = []
        for dens in (ps[:200], ps[200:]):
            parts = []
            for p, q in zip(dens[::2], dens[1::2]):
                lo = F(rng.randint(-5 * p, 5 * p), p)
                parts.append(Interval(lo, lo + F(rng.randint(1, q), q), rng.random() < 0.5,
                                      rng.random() < 0.5))
                parts.append(Interval.point(F(rng.randint(-5 * q, 5 * q), q)))
            assert len(parts) == 200
            same(normalize(parts), ref.normalize(parts))
            sets.append(ref.normalize(parts))
        a, b = sets
        same(a.union(b), ref.union(a, b))
        same(a.intersect(b), ref.intersect(a, b))
        same(a.difference(b), ref.difference(a, b))
        shifts = [F(1, p) for p in ps[:20]]
        same(union_of_translates(a, shifts), naive_union_of_translates(a, shifts))

    def test_lazy_chain_with_growing_denominators(self):
        rng = random.Random(47)
        for _ in range(40):
            s = ref.difference(iset("[-3,3]"), random_interval_set(rng, max_parts=3))
            within = mixed_set(rng)
            shifts = [F(rng.randint(-2, 2), 3 ** m) for m in range(1, 30)]
            want = naive_intersection_of_translates(s, shifts, within)
            # an iterator of shifts and the same shifts listed give the same set
            for given in (iter(shifts), shifts):
                same(intersection_of_translates(s, given, within), want)
            same(union_of_translates(s, shifts), naive_union_of_translates(s, shifts))


def on_lattice(rng, D):
    """A kernel result on the lattice D exactly, and its twin built by the
    reference kernel from the same input intervals."""
    def x():
        return F(rng.randint(-3 * D, 3 * D), D)

    # a point of denominator D fixes the lattice, even if another part absorbs it
    parts = [Interval.point(F(1 + D * rng.randint(-3, 2), D))]
    for _ in range(rng.randint(0, 5)):
        lo, hi = sorted((x(), x()))
        parts.append(Interval.point(lo) if lo == hi else
                     Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    rng.shuffle(parts)
    got = normalize(parts)
    assert got._lattice[0] == D and got._parts is None
    return got, ref.normalize(parts)


class TestOperandLattices:
    """union, intersect and difference read each operand's stored cuts and
    carry both to the lcm of the two lattices; the operands stay undecoded."""

    OPS = ((IntervalSet.union, ref.union), (IntervalSet.intersect, ref.intersect),
           (IntervalSet.difference, ref.difference))

    @pytest.mark.parametrize("d1, d2", [
        (6, 10), (9, 4), (12, 18), (7, 5),    # neither D divides the other
        (3, 12), (35, 5), (8, 8), (1, 6),     # one D divides the other
    ])
    def test_kernel_operands_against_the_reference(self, d1, d2):
        rng = random.Random(100 * d1 + d2)
        for _ in range(120):
            (a, ra), (b, rb) = on_lattice(rng, d1), on_lattice(rng, d2)
            for op, want in self.OPS:
                got = op(a, b)
                assert got._lattice[0] == lcm(d1, d2)
                same(got, want(ra, rb))
            same(union_all([a, b, a]), ref.union(ra, rb))
            assert a._parts is None and b._parts is None
            assert a == ra and b == rb  # compared on the cuts, still undecoded
            assert a._parts is None and b._parts is None

    def test_kernel_and_constructor_operands_mix(self):
        rng = random.Random(67)
        for _ in range(300):
            (a, ra), (_, built) = on_lattice(rng, rng.randint(1, 12)), on_lattice(rng, 5)
            for op, want in self.OPS:
                same(op(a, built), want(ra, built))
                same(op(built, a), want(built, ra))
            shifts = [random_fraction(rng, span=3, max_den=7) for _ in range(rng.randint(0, 3))]
            same(intersection_of_translates(a, shifts, built),
                 naive_intersection_of_translates(ra, shifts, built))
            same(intersection_of_translates(built, shifts, a),
                 naive_intersection_of_translates(built, shifts, ra))
            same(union_of_translates(a, shifts), naive_union_of_translates(ra, shifts))
            assert a._parts is None


class TestEquality:
    """Equality compares cut lists on a common lattice while either side is
    undecoded; it never depends on which D a result happens to carry."""

    def test_a_result_on_a_finer_lattice_equals_the_built_set(self):
        got = normalize([iv("[0,1/2]"), iv("[1/3,1)"), iv("(3/2,7/4]")])
        built = IntervalSet((iv("[0,1)"), iv("(3/2,7/4]")))
        assert got._lattice[0] == 12 and got._parts is None  # not the minimal 4
        assert got == built and built == got
        assert got._parts is None
        assert got == normalize([iv("[0,1)"), iv("(3/2,7/4]")])  # two lattices, both undecoded
        assert hash(got) == hash(built)  # hash reads the parts
        assert got._parts is not None
        assert got == built and built == got

    def test_one_endpoint_flag_apart_is_unequal(self):
        got = normalize([iv("[0,1/2]"), iv("[1/3,1)")])
        for other in (iset("[0,1]"), iset("(0,1)"), IntervalSet((iv("[0,1]"),)),
                      normalize([iv("[0,1/6]"), iv("[1/6,1]")]), iset("[0,1)", "[2,2]")):
            assert got != other and other != got
        assert got._parts is None
        assert got == IntervalSet((iv("[0,1)"),))

    def test_a_set_is_unequal_to_a_number(self):
        assert (iset("[0,1]") == 5) is False
        assert iset("[0,1]") != 5

    def test_cut_equality_matches_part_equality(self):
        rng = random.Random(71)
        outcomes = set()
        for _ in range(400):
            (a, ra), (b, rb) = on_lattice(rng, rng.randint(1, 6)), on_lattice(rng, rng.randint(1, 6))
            # the midpoint of a part is a member: the set stays, the lattice may refine
            twin = normalize([*ra.parts, Interval.point(ra.parts[-1].midpoint())])
            for other, built in ((b, rb), (twin, ra)):
                want = ra.parts == built.parts
                assert (a == other) is want and (a == built) is want and (ra == other) is want
                outcomes.add(want)
            assert a._parts is None and b._parts is None and twin._parts is None
            assert (a.parts == b.parts) is (a == b) and a == twin
        assert outcomes == {False, True}


def checked_build(cuts, D):
    """The set of int cut ranges, built through the checking constructors."""
    return IntervalSet(tuple(Interval(F(lo >> 1, D), F(hi >> 1, D), not lo & 1, bool(hi & 1))
                             for lo, hi in cuts))


def raises_value_error(build, *args):
    try:
        return build(*args), False
    except ValueError:
        return None, True


def grid_interval(rng):
    """A valid interval on the grid {0, 1/2, 1}: degenerate points, shared
    endpoints and every flag combination occur."""
    lo, hi = sorted(F(rng.randint(0, 2), 2) for _ in range(2))
    if lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


class TestChecksOnCuts:
    """The kernel checks its results on the int cuts; the constructors compare
    endpoints. Both must agree with the cut-tuple definitions."""

    def test_decode_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            intervals._decode([(5, 5)], 1)

    def test_decode_rejects_mergeable_neighbours(self):
        with pytest.raises(ValueError):
            intervals._decode([(0, 4), (4, 6)], 1)

    def test_decode_raises_exactly_when_the_constructors_do(self):
        rng = random.Random(53)
        outcomes = set()
        for _ in range(3000):
            D = rng.randint(1, 4)
            cuts = [(rng.randint(-12, 12), rng.randint(-12, 12))
                    for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.7:  # mostly sorted, so that valid lists occur often
                flat = sorted(c for r in cuts for c in r)
                cuts = list(zip(flat[::2], flat[1::2]))
            want, want_error = raises_value_error(checked_build, cuts, D)
            got, got_error = raises_value_error(intervals._decode, cuts, D)
            assert got_error == want_error, cuts
            assert got == want, cuts
            outcomes.add(got_error)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("cuts", [
        [(5, 5)], [(6, 5)],          # an empty range
        [(0, 6), (4, 8)],            # overlapping neighbours
        [(0, 4), (4, 6)],            # [0,2) then [2,3): mergeable
        [(1, 4), (3, 6)],            # (0,2) then (1,3)
    ])
    def test_from_cuts_rejects_what_is_not_canonical(self, cuts):
        # a set is built from a cut list only when the list is canonical;
        # from_ends merges such ranges instead, before it builds
        with pytest.raises(ValueError):
            intervals._decode(cuts, 1)

    def test_from_cuts_equals_the_constructor_on_the_same_cuts(self):
        # random cut lists: building from the cuts raises exactly when the
        # constructor does, and otherwise builds the same set, on the given
        # lattice, its parts left undecoded
        rng = random.Random(107)
        outcomes = Counter()
        for _ in range(3000):
            D = rng.randint(1, 6)
            flat = sorted(rng.randint(-9, 9) for _ in range(2 * rng.randint(0, 4)))
            cuts = list(zip(flat[::2], flat[1::2]))
            want, want_error = raises_value_error(checked_build, cuts, D)
            got, got_error = raises_value_error(intervals._decode, cuts, D)
            assert got_error == want_error, (cuts, D)
            if not got_error:
                assert got._lattice == (D, cuts) and got._parts is None
                same(got, want)
                assert got == IntervalSet(want.parts)
            outcomes[got_error] += 1
        assert min(outcomes[True], outcomes[False]) > 500, outcomes
        with pytest.raises(ValueError):
            IntervalSet.from_ends(0, [])

    def test_from_ends_equals_normalize_of_the_same_intervals(self):
        # random range lists on a small grid, in any order: overlaps, shared
        # ends with every flag pair, and closed points all occur
        rng = random.Random(107)
        touching, shapes = set(), Counter()
        for _ in range(3000):
            D = rng.randint(1, 6)
            ranges = []
            for _ in range(rng.randint(0, 5)):
                lo, hi = sorted(rng.randint(-8, 8) for _ in range(2))
                hi = lo if rng.random() < 0.2 else hi
                closed = (True, True) if lo == hi else (rng.random() < 0.5, rng.random() < 0.5)
                ranges.append((lo, hi, *closed))
            got = IntervalSet.from_ends(D, iter(ranges))
            want = normalize([Interval(F(lo, D), F(hi, D), a, b) for lo, hi, a, b in ranges])
            assert got._lattice[0] == D and got._parts is None
            same(got, want)
            touching |= {(x[3], y[2]) for x in ranges for y in ranges if x[1] == y[0] and x != y}
            shapes["point"] += any(lo == hi for lo, hi, *_ in ranges)
            shapes["overlap"] += any(x[0] < y[0] < x[1] for x in ranges for y in ranges)
            shapes["merged"] += len(got) < len(ranges)
        assert touching == {(a, b) for a in (False, True) for b in (False, True)}
        assert min(shapes.values()) > 500, shapes

    def test_from_ends_takes_canonical_ranges_without_a_merge(self, monkeypatch):
        # ranges whose cuts already strictly increase build the same set with
        # no sort and no merge; out-of-order, overlapping or touching ranges
        # still reach the merge
        rng = random.Random(109)
        cases = []
        for _ in range(600):
            D, count = rng.randint(1, 6), rng.randint(0, 5)
            if rng.random() < 0.5:  # distinct sorted ends: canonical with any flags
                flat = sorted(rng.sample(range(-12, 12), 2 * count))
                ranges = [(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
                          for lo, hi in zip(flat[::2], flat[1::2])]
            else:
                ranges = []
                for _ in range(count):
                    lo, hi = sorted(rng.randint(-8, 8) for _ in range(2))
                    hi = lo if rng.random() < 0.2 else hi
                    closed = (True, True) if lo == hi else (rng.random() < 0.5,
                                                            rng.random() < 0.5)
                    ranges.append((lo, hi, *closed))
            cases.append((D, ranges, IntervalSet.from_ends(D, ranges)))

        def no_merge(*groups):
            raise AssertionError("merged")

        monkeypatch.setattr(intervals, "_merge", no_merge)
        outcomes = Counter()
        for D, ranges, want in cases:
            cuts = [(2 * lo + (not a), 2 * hi + b) for lo, hi, a, b in ranges]
            canonical = all(x < y for x, y in zip(chain(*cuts), list(chain(*cuts))[1:]))
            if canonical:
                got = IntervalSet.from_ends(D, ranges)
                assert got._lattice == (D, cuts) and got._parts is None
                same(got, want)
            else:
                with pytest.raises(AssertionError, match="merged"):
                    IntervalSet.from_ends(D, ranges)
            outcomes[canonical, len(ranges) > 1] += 1
        # a single valid range is always canonical
        assert set(outcomes) == {(True, False), (True, True), (False, True)}, outcomes
        assert min(outcomes.values()) > 50, outcomes

    @pytest.mark.parametrize("D, ranges", [
        (0, []), (-1, [(0, 1, True, True)]),    # no lattice
        (1, [(2, 2, False, False)]),            # an open point
        (1, [(2, 2, True, False)]),             # a half-open point
        (3, [(2, 1, True, True)]),              # an inverted range
        (3, [(0, 9, True, True), (5, 4, True, True)]),  # inverted, inside another range
    ], ids=["D=0", "D=-1", "open-point", "half-open-point", "inverted", "inverted-inside"])
    def test_from_ends_refuses_what_is_not_an_interval(self, D, ranges):
        with pytest.raises(ValueError, match="lattice D must be positive" if D < 1
                           else "empty or inverted range"):
            IntervalSet.from_ends(D, ranges)

    def test_interval_set_matches_the_cut_rule(self):
        rng = random.Random(59)
        seen = set()
        for _ in range(3000):
            prev, cur = grid_interval(rng), grid_interval(rng)
            canonical = ref.end_cut(prev) < ref.start_cut(cur)
            _, error = raises_value_error(IntervalSet, (prev, cur))
            assert error == (not canonical), (prev, cur)
            seen.add((prev.hi == cur.lo, prev.hi_closed, cur.lo_closed, canonical))
        # shared endpoints with all four flag combinations were exercised
        assert {(True, a, b) for a in (False, True) for b in (False, True)} <= \
            {key[:3] for key in seen}

    def test_contains_matches_the_cut_rule(self):
        rng = random.Random(61)
        for _ in range(3000):
            part = grid_interval(rng)
            x = F(rng.randint(-1, 5), 4)
            assert IntervalSet((part,)).contains_point(x) == \
                (ref.start_cut(part) <= (x, 0) < ref.end_cut(part)), (part, x)


class Sub(Fraction):
    """A Fraction subclass that counts its comparisons: the constructors keep
    it, and compare it by its own methods."""

    compared = 0

    def __lt__(self, other):
        Sub.compared += 1
        return super().__lt__(other)

    def __gt__(self, other):
        Sub.compared += 1
        return super().__gt__(other)


#: Large primes, so that denominators drawn from them are coprime.
PRIMES = (2 ** 61 - 1, 10 ** 9 + 7, 2 ** 31 - 1, 65537)


def rational_pool(rng):
    """Zero, integers, negatives, and pairs of nearly equal values over
    coprime large denominators."""
    pool = [F(0), F(1), F(-2)]
    for _ in range(4):
        p, q = rng.sample(PRIMES, 2)
        k = rng.randint(-p, p)
        pool += [F(k, p), F(k * q // p, q), F(k * q // p + 1, q)]
    return pool


def as_input(rng, x):
    """x as one of the inputs the constructors take: the Fraction itself, an
    int, a 'p/q' string, a Fraction subclass, or (rarely) a float."""
    kind = rng.choice(("fraction", "fraction", "int", "str", "sub", "float"))
    if kind == "int" and x.denominator == 1:
        return int(x)
    if kind == "str":
        return f"{x.numerator}/{x.denominator}"
    if kind == "sub":
        return Sub(x)
    if kind == "float" and rng.random() < 0.3:
        return float(x)
    return x


def outcome(build, *args):
    """What build(*args) returns, or the type and message of its error."""
    try:
        return build(*args)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


def reference_interval(lo, hi, lo_closed, hi_closed):
    """The Interval rule by Fraction comparisons: its endpoints as stored,
    or the type and message of its error."""
    for x in (lo, hi):
        if isinstance(x, float):
            return TypeError, "floats are not allowed; pass a Fraction, int or 'p/q' string"
    lo, hi = (x if isinstance(x, Fraction) else Fraction(x) for x in (lo, hi))
    if lo > hi:
        return ValueError, f"interval endpoints out of order: {lo} > {hi}"
    if lo == hi and not (lo_closed and hi_closed):
        return ValueError, "empty interval: equal endpoints need both ends closed"
    return lo, hi


def reference_set(parts):
    """The IntervalSet rule by Fraction comparisons: the parts, or the type
    and message of its error."""
    for prev, cur in zip(parts, parts[1:]):
        if prev.hi > cur.lo or (prev.hi == cur.lo and (prev.hi_closed or cur.lo_closed)):
            return ValueError, f"parts not canonical: {prev} followed by {cur}; use normalize()"
    return parts


class TestValidationAgainstReference:
    """Interval and IntervalSet compare two exact Fractions on their
    cross-multiplied numerators; the rules written with Fraction comparisons
    are the reference, error types and messages included."""

    def test_interval(self):
        rng = random.Random(137)
        seen = set()
        for _ in range(3000):
            pool = rational_pool(rng)
            lo, hi = (as_input(rng, x) for x in rng.choices(pool, k=2))
            flags = (rng.random() < 0.5, rng.random() < 0.5)
            want = reference_interval(lo, hi, *flags)
            Sub.compared = 0
            got = outcome(Interval, lo, hi, *flags)
            if Sub in (type(lo), type(hi)) and want[0] is not TypeError:
                assert Sub.compared, (lo, hi)
            if isinstance(got, Interval):
                assert (got.lo, got.hi, got.lo_closed, got.hi_closed) == (*want, *flags)
                assert (type(got.lo), type(got.hi)) == tuple(map(type, want)), (lo, hi)
                seen.add(("ok", is_point(got), Sub in (type(got.lo), type(got.hi))))
            else:
                assert got == want, (lo, hi, flags)
                seen.add(got[1][:5])
        assert {("ok", False, False), ("ok", False, True), ("ok", True, False),
                ("ok", True, True), "inter", "empty", "float"} <= seen, seen

    def test_interval_set(self):
        rng = random.Random(139)
        seen = set()
        for _ in range(3000):
            pool = sorted(rational_pool(rng))
            parts = []
            for _ in range(rng.randint(2, 4)):  # mostly sorted, so that both outcomes occur
                i = rng.randrange(len(pool))
                lo, hi = pool[i], pool[min(i + rng.randint(0, 2), len(pool) - 1)]
                if rng.random() < 0.3:
                    lo, hi = Sub(lo), Sub(hi)
                parts.append(Interval(lo, hi, True, True) if lo == hi else
                             Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            parts.sort(key=lambda p: p.lo)
            want = reference_set(tuple(parts))
            got = outcome(IntervalSet, parts)
            if isinstance(got, IntervalSet):
                assert got.parts == want
            else:
                assert got == want, parts
            for prev, cur in zip(parts, parts[1:]):
                if prev.hi >= cur.lo:
                    seen.add((prev.hi == cur.lo, prev.hi_closed, cur.lo_closed))
        # overlaps, and shared endpoints with all four flag pairs, occurred
        assert {(True, a, b) for a in (False, True) for b in (False, True)} <= seen, seen
        assert any(not shared for shared, _, _ in seen), seen


#: Denominators new to every seeded lattice, up to the prime 2^61 - 1.
NEW_DENOMINATORS = (3, 7, 11, 101, 2 ** 61 - 1)


def touching_set(rng):
    """Parts with ends on the grid k/6 and random flags, each starting at or
    just past the last one's end, normalized: degenerate points and
    neighbours whose closures touch occur often."""
    parts, edge = [], F(rng.randint(-6, 6), 6)
    for _ in range(rng.randint(1, 5)):
        lo = edge + F(rng.choice((0, 0, 1)), 6)
        edge = lo + F(rng.randint(0, 3), 6)
        parts.append(Interval.point(lo) if lo == edge else
                     Interval(lo, edge, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(parts)


def cut_member_inputs(seed, count):
    """Seeded sets of every kind: random sets, sets with degenerate points or
    touching closures, constructor-built sets, and kernel results on lattices
    finer than their parts need (intersections of translates and left
    neighborhoods over new denominators)."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            yield random_interval_set(rng, max_parts=6)
        elif kind == 1:
            yield mixed_set(rng)
        elif kind == 2:
            yield touching_set(rng)
        elif kind == 3:
            yield IntervalSet(rng.choice((mixed_set, touching_set))(rng).parts)
        elif kind == 4:
            shifts = [F(rng.randint(-9, 9), rng.choice(NEW_DENOMINATORS))
                      for _ in range(rng.randint(1, 3))]
            yield intersection_of_translates(mixed_set(rng), shifts, iset("[-30,30]"))
        else:
            r = F(rng.randint(1, 9), rng.choice(NEW_DENOMINATORS))
            yield random_interval_set(rng, max_parts=6).left_neighborhood(r)


def new_rational(rng):
    """A small rational over a denominator new to the seeded lattices."""
    return F(rng.randint(-40, 40), rng.choice(NEW_DENOMINATORS))


class TestCutMembersAgainstReference:
    """affine, translate, star, closure and contains_point run on the cuts;
    the parts-based versions in fraction_kernel are the reference."""

    def test_affine_and_translate(self):
        rng = random.Random(151)
        scales = (1, -1, 2, -3, F(1, 3), F(-5, 2), F(7, 4), F(-1, 2 ** 61 - 1))
        seen = Counter()
        for s in cut_member_inputs(151, 1500):
            scale = rng.choice(scales) if rng.random() < 0.5 else new_rational(rng) or 1
            shift = rng.choice((0, random_fraction(rng), new_rational(rng)))
            same(s.affine(scale, shift), ref.affine(s, scale, shift))
            same(s.translate(shift), ref.affine(s, 1, shift))
            seen["negative" if scale < 0 else "unit" if scale == 1 else "positive"] += 1
            seen["new denominator"] += s._lattice[0] % F(shift).denominator != 0
        assert min(seen.values()) > 50, seen  # and translate runs the unit scale on every set
        for zero in (0, F(0), "0/5"):
            for affine in (IntervalSet.affine, ref.affine):
                with pytest.raises(ValueError, match="scale must be nonzero"):
                    affine(iset("(0,1)"), zero, 1)

    def test_star(self):
        seen = Counter()
        for s in cut_member_inputs(157, 1500):
            want, want_error = raises_value_error(ref.star, s)
            got, got_error = raises_value_error(IntervalSet.star, s)
            assert got_error == want_error, s
            if not got_error:
                same(got, want)
            seen[got_error, any(is_point(p) for p in s.parts)] += 1
        assert min(seen.values()) > 30, seen  # (True, False): touching closures alone
        for bad in (iset("[1,1]"), iset("(0,1/2)", "(1/2,1)"), iset("[0,1)", "(1,2]", "[3,3]")):
            for star in (IntervalSet.star, ref.star):
                with pytest.raises(ValueError, match="^star undefined"):
                    star(bad)

    def test_closure(self):
        merged = 0
        for s in cut_member_inputs(163, 1500):
            got = s.closure()
            same(got, ref.closure(s))
            merged += len(got) < len(s)
        assert merged > 50, merged

    def test_contains_point(self):
        # every endpoint with every flag, points one step over a new
        # denominator off each end, midpoints, points over new denominators,
        # and off-lattice points next to every cut: strictly between an end
        # and the lattice points 1/D on either side of it, near both
        rng = random.Random(167)
        seen = Counter()
        for s in cut_member_inputs(167, 1500):
            D = s._lattice[0]
            points = [new_rational(rng), random_fraction(rng)]
            for p in s.parts:
                step = F(1, D * rng.choice(NEW_DENOMINATORS))
                points += [p.lo, p.hi, p.lo - step, p.lo + step, p.hi - step, p.hi + step,
                           (p.lo + p.hi) / 2]
                for end in (p.lo, p.hi):
                    q = rng.choice(NEW_DENOMINATORS)
                    for r in (1, rng.randrange(1, q), q - 1):
                        points += [end - F(r, D * q), end + F(r, D * q)]
            for x in points:
                got = s.contains_point(x)
                assert got is ref.contains_point(s, x), (s, x)
                for p in s.parts:
                    for end, closed in ((p.lo, p.lo_closed), (p.hi, p.hi_closed)):
                        if x == end:
                            seen["end", closed, got] += 1
                        elif abs(x - end) * D < 1:
                            seen["off an end", closed, got] += 1
        # a canonical set holds an end exactly when it is closed
        assert set(seen) == {("end", True, True), ("end", False, False)} | {
            ("off an end", closed, got) for closed in (False, True) for got in (False, True)}
        assert min(seen.values()) > 100, seen


def same_fraction(got, want):
    """Equal to the constructor's Fraction and alike in every form: Fraction's
    ``==`` compares numerator and denominator, so an unreduced value fails."""
    assert type(got) is Fraction and got == want
    assert got.as_integer_ratio() == want.as_integer_ratio()
    assert hash(got) == hash(want) and str(got) == str(want)
    assert pickle.loads(pickle.dumps(got)) == want


def same_interval(got, want):
    """Equal as values and alike in every form: hash, text, pickle, field types."""
    assert got == want
    assert hash(got) == hash(want) and str(got) == str(want)
    assert pickle.loads(pickle.dumps(got)) == want
    same_fraction(got.lo, want.lo)
    same_fraction(got.hi, want.hi)
    assert type(got.lo_closed) is bool is type(got.hi_closed)


def flagged_intervals(rng, count):
    """Seeded ends with every flag pair, and a closed point at each left end."""
    for _ in range(count):
        lo = F(rng.randint(-50, 50), rng.randint(1, 30))
        hi = lo + F(rng.randint(1, 40), rng.choice((1, 7, 2 ** 61 - 1)))
        for lo_closed, hi_closed in product((False, True), repeat=2):
            yield Interval(lo, hi, lo_closed, hi_closed)
        yield Interval.point(lo)


def over_one_denominator(lo, hi, t=1):
    """Fractions lo and hi as the ints split_around takes: their numerators
    over t times the lcm of their denominators, and that denominator."""
    den = lcm(lo.denominator, hi.denominator) * t
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


class TestUncheckedParts:
    """Interval.translate, Interval.split_around and the kernel's part decoder
    build their parts without ``__post_init__``, and translates, splits,
    decoded parts and ``measure`` their Fractions without the Fraction
    constructor; each must equal the checked construction of the same value."""

    def test_reduced_matches_the_constructor(self):
        # _reduced sets the two slots Fraction has on every supported Python
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        rng = random.Random(199)
        seen = Counter()
        for _ in range(3000):
            n = rng.randint(-2 ** rng.randint(0, 4000), 2 ** rng.randint(0, 4000))
            d = rng.randint(1, 2 ** rng.randint(0, 3000))
            kind = rng.randrange(5)
            if kind == 0:
                n = 0
            elif kind == 1:
                d = 1
            elif kind == 2:  # a multiple of d, sometimes negative
                n = d * rng.randint(-2 ** 64, 2 ** 64)
            elif kind == 3:  # a shared factor to divide out
                g = rng.randint(2, 2 ** 200)
                n, d = n * g, d * g
            same_fraction(intervals._reduced(n, d), Fraction(n, d))
            seen[kind] += 1
            seen["negative" if n < 0 else "zero" if n == 0 else "positive"] += 1
            seen["whole" if n % d == 0 else "proper"] += 1
        assert len(seen) == 10 and min(seen.values()) > 300, seen

    def test_split_around_matches_the_checked_constructor(self):
        rng = random.Random(197)
        seen = Counter()
        for p in flagged_intervals(rng, 300):
            if not (p.lo_closed and p.hi_closed) or is_point(p):
                continue
            # two distinct cut points strictly inside, some over huge
            # denominators, as ints over their lcm or over a multiple of it
            n = rng.choice((3, 7, 2 ** 61 - 1))
            i, j = sorted(rng.sample(range(1, n), 2))
            lo, hi = (p.lo + p.length * F(i, n), p.lo + p.length * F(j, n))
            t = rng.choice((1, rng.randint(2, 2 ** 61 - 1)))
            left, gap, right = p.split_around(*over_one_denominator(lo, hi, t))
            same_interval(left, Interval(p.lo, lo, True, True))
            same_interval(gap, Interval(lo, hi, False, False))
            same_interval(right, Interval(hi, p.hi, True, True))
            seen[n] += 1
            seen["lcm" if t == 1 else "multiple"] += 1
        assert len(seen) == 5 and min(seen.values()) > 50, seen

    @pytest.mark.parametrize("k, lo, hi", [
        ("[0,1]", 0, "1/2"), ("[0,1]", "1/2", 1), ("[0,1]", 0, 1),  # touching an end
        ("[0,1]", 2, 3), ("[0,1]", -1, "1/2"), ("[0,1]", "1/2", 2),  # outside K
        ("[0,1]", "2/3", "1/3"), ("[0,1]", "1/2", "1/2"),            # reversed or empty
        ("(0,1]", "1/3", "2/3"), ("[0,1)", "1/3", "2/3"), ("(0,1)", "1/3", "2/3"),  # open ends
        ("[1/2,1/2]", "1/2", "1/2"), ("[1/2,1/2]", "1/3", "2/3"),    # a point K
    ])
    def test_split_around_refuses_every_other_shape(self, k, lo, hi):
        with pytest.raises(ValueError, match="cannot split"):
            iv(k).split_around(*over_one_denominator(F(lo), F(hi)))

    @pytest.mark.parametrize("k, lo, hi, den", [
        ("[0,1]", 1, 2, 0), ("[0,1]", -1, -2, -3), ("[-1,1]", 1, 2, -3),  # den <= 0
        ("[0,1]", 2, 1, 3), ("[0,1]", 2, 2, 6), ("[-1,1]", 1, -1, 5),     # lo >= hi
    ])
    def test_split_around_refuses_a_bad_denominator_or_order(self, k, lo, hi, den):
        with pytest.raises(ValueError, match="cannot split"):
            iv(k).split_around(lo, hi, den)

    @pytest.mark.parametrize("lo, hi, den", [
        (F(1, 3), 2, 3), (1, F(2), 3), (1, 2, F(3)), (1, "2", 3), (0.25, 2, 3), (1, 2, 3.0),
    ], ids=["fraction-lo", "fraction-hi", "fraction-den", "str-hi", "float-lo", "float-den"])
    def test_split_around_takes_ints_only(self, lo, hi, den):
        with pytest.raises(TypeError, match="int ends"):
            iv("[0,1]").split_around(lo, hi, den)

    def test_translate_matches_the_checked_constructor(self):
        rng = random.Random(191)
        fixed = (0, -3, 7, "0", "-5/6", "22/7", F(-1, 2 ** 61 - 1), F(2 ** 64 + 1, 3 ** 40))
        seen = Counter()
        for p in flagged_intervals(rng, 300):
            t = F(rng.choice(fixed) if rng.random() < 0.5 else new_rational(rng))
            # the same shift as a Fraction, a 'p/q' string and, when whole, an int
            shifts = [t, f"{t.numerator}/{t.denominator}"] + [t.numerator] * (t.denominator == 1)
            for shift in shifts:
                got = p.translate(shift)
                same_interval(got, Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed))
                same_interval(got, ref.translate(IntervalSet((p,)), shift).parts[0])
                seen[type(shift).__name__] += 1
            seen["zero" if t == 0 else "negative" if t < 0 else "positive"] += 1
            seen["point" if is_point(p) else (p.lo_closed, p.hi_closed)] += 1
        assert len(seen) == 11 and min(seen.values()) > 50, seen
        for bad in (0.5, 0.0, -1e-300):
            with pytest.raises(TypeError, match="floats are not allowed"):
                Interval.open(0, 1).translate(bad)

    def test_a_fraction_subclass_reads_as_its_value(self):
        # the kernel reads every ratio from Fraction's two slots, which a
        # subclass inherits: as a shift, an end or a probe it is its value
        rng = random.Random(211)
        seen = Counter()
        for p in flagged_intervals(rng, 300):
            t, r = new_rational(rng), F(rng.randint(1, 40), rng.choice(NEW_DENOMINATORS))
            scale = rng.choice((F(-3, 7), F(5, 2), t or F(1)))
            plain = IntervalSet((p,))
            q = Interval(Sub(p.lo), Sub(p.hi), p.lo_closed, p.hi_closed)
            s = IntervalSet((q,))
            assert s == plain and s.measure() == p.length
            want = Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed)
            for got in (p.translate(Sub(t)), q.translate(t), q.translate(Sub(t))):
                same_interval(got, want)
                same_interval(got, ref.translate(plain, t).parts[0])
            assert s.translate(Sub(t)) == ref.translate(plain, t)
            assert s.affine(Sub(scale), Sub(t)) == ref.affine(plain, scale, t)
            assert s.left_neighborhood(Sub(r)) == ref.left_neighborhood(plain, r)
            shifts = [t, new_rational(rng)]
            assert union_of_translates(s, map(Sub, shifts)) == naive_union_of_translates(
                plain, shifts)
            step = F(1, rng.choice(NEW_DENOMINATORS))
            for x in (p.lo, p.hi, p.lo - step, p.lo + step, p.hi - step, p.hi + step, t):
                got = s.contains_point(Sub(x))
                assert got is ref.contains_point(plain, x) is plain.contains_point(x), (p, x)
                seen[got] += 1
            seen["point" if is_point(p) else (p.lo_closed, p.hi_closed)] += 1
        assert len(seen) == 7 and min(seen.values()) > 50, seen

    def test_decoded_parts_match_the_checked_constructor(self):
        # the reference builds every part through the checked constructor,
        # and its measure is the Fraction sum of the part lengths
        rng = random.Random(193)
        seen = Counter()
        for s in cut_member_inputs(193, 600):
            other, shift = mixed_set(rng), new_rational(rng)
            for got, want in ((s.union(other), ref.union(s, other)),
                              (s.intersect(other), ref.intersect(s, other)),
                              (s.translate(shift), ref.translate(s, shift))):
                same_fraction(got.measure(), sum((p.length for p in want.parts), F(0)))
                assert got._parts is None  # parts below are decoded on this read
                assert len(got.parts) == len(want.parts)
                for part, checked in zip(got.parts, want.parts):
                    same_interval(part, checked)
                    seen["point" if is_point(part) else (part.lo_closed, part.hi_closed)] += 1
        assert len(seen) == 5 and min(seen.values()) > 50, seen


def test_kernel_property_suite_smoke():
    report = run_kernel_property_suite(seed=20250810, instances=120)
    assert report.passed, report.failures
    assert report.checks_run == 120 * 9


@dataclasses.dataclass(frozen=True)
class Tiny(intervals.Report):
    small: Fraction
    big: object = dataclasses.field(metadata={"json": "huge"})


@dataclasses.dataclass(frozen=True)
class Outer(intervals.Report):
    name: str
    inner: tuple


class TestReportText:
    """A value past the 4,300 digits ``str()`` writes is refused by the
    report and field it sits in, not by the interpreter's bare message."""

    HUGE = F(1, 10 ** 4300)  # a 4,301-digit denominator

    @pytest.mark.parametrize("big", [HUGE, Interval.closed(0, HUGE),
                                     IntervalSet((Interval.closed(0, HUGE),)), (F(1), HUGE)],
                             ids=["fraction", "interval", "interval-set", "tuple"])
    def test_a_value_too_long_to_print_is_named(self, big):
        with pytest.raises(ValueError) as err:
            Tiny(F(1, 2), big).to_json_dict()
        assert str(err.value).startswith(
            "report Tiny, field huge: value too long to print (Exceeds the limit (4300 digits)")

    def test_a_nested_report_names_its_own_field(self):
        with pytest.raises(ValueError) as err:
            Outer("outer", (Tiny(F(1), F(2)), Tiny(F(1), self.HUGE))).to_json_dict()
        assert str(err.value).startswith("report Tiny, field huge: value too long to print")

    def test_the_longest_printable_value_prints(self):
        longest = F(1, 10 ** 4299)  # 4,300 digits
        assert Tiny(F(1, 2), longest).to_json_dict() == {"small": "1/2",
                                                         "huge": str(longest)}
