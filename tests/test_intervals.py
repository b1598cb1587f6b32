import random
from fractions import Fraction

import pytest

from affcopy.intervals import (EMPTY, Interval, IntervalSet, intersection_of_translates,
                               normalize, union_all, union_of_translates)
from affcopy.propcheck import random_fraction, random_interval_set, run_kernel_property_suite

F = Fraction


def iv(text):
    return Interval.parse(text)


def iset(*texts):
    return normalize([Interval.parse(t) for t in texts])


class TestIntervalBasics:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval.open(1, 0)

    def test_degenerate_point_needs_closed_ends(self):
        assert Interval.point(F(1, 3)).length == 0
        with pytest.raises(ValueError):
            Interval(F(1), F(1), True, False)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Interval.open(0.5, 1)

    def test_membership_respects_flags(self):
        half = iv("[0,1)")
        assert half.contains(0)
        assert half.contains(F(1, 2))
        assert not half.contains(1)

    def test_parse_round_trip(self):
        for text in ["(0,1)", "[0,1]", "[1/3,2/3)", "(-5/2,7]"]:
            assert str(Interval.parse(text)) == text


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

    def test_two_parts(self):
        assert iset("[0,4/9]", "[5/9,1]").measure() == F(8, 9)


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
        assert IntervalSet.from_strings(s.to_strings()) == s

    def test_superset_matches_union_definition(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = random_interval_set(rng), random_interval_set(rng)
            for big, small in ((a, b), (a.union(b), b), (a, a.intersect(b))):
                assert big.issuperset(small) is (big.union(small) == big)


def naive_union_of_translates(s, shifts):
    return normalize([p.translate(t) for p in s.parts for t in shifts])


def naive_intersection_of_translates(s, shifts, within):
    out = within
    for t in shifts:
        out = out.intersect(s.translate(t))
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
        # mixed endpoint flags: closed translates absorb open ones and points
        assert union_of_translates(s, ["1", -1]).to_strings() == [
            "(-1,0)", "[1,2]", "[3,4]", "(5,6]", "(7,8]"]
        # open translates that only share an endpoint stay separated by it
        assert len(union_of_translates(iset("(0,1)"), [1, 0])) == 2
        assert union_of_translates(iset("(0,1)"), [F(1, 2), 0, F(-1, 2)]) == iset("(-1/2,3/2)")

    def test_intersection_stops_at_first_empty_result(self):
        evaluated = []

        def shifts():
            for t in (0, 10, 20):
                evaluated.append(t)
                yield t
            raise AssertionError("shift evaluated after the chain went empty")

        got = intersection_of_translates(iset("(0,1)"), shifts(), iset("[0,1]"))
        assert got == EMPTY
        assert evaluated == [0, 10]


def test_kernel_property_suite_smoke():
    report = run_kernel_property_suite(seed=20250810, instances=120)
    assert report.passed, report.failures
    assert report.checks_run == 120 * 9
