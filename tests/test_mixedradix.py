import random
from fractions import Fraction

import pytest

from affcopy.expbounds import (ceil_even, compare_with_exp, even_upper_exp_quotient,
                               exp_bounds)
from affcopy.intervals import Interval
from affcopy.mixedradix import (DigitVector, alternate_digits, branch_index,
                                chain_point_check, check_h_condition, default_schedule,
                                digits_of, f_membership, make_system, nested_intersect,
                                premeasure_bound)

F = Fraction

GEOMETRY_SCHEDULE = (4, 14, 40, 120, 360, 1080)


@pytest.fixture(scope="module")
def sys2():
    return make_system((4, 14))


@pytest.fixture(scope="module")
def geo6():
    return make_system(GEOMETRY_SCHEDULE)


class TestExpBounds:
    def test_e_fourth_bracket(self):
        lo, hi = exp_bounds(4, 30)
        assert lo < hi
        # e^4 = 54.598150...
        assert F(5459, 100) < lo and hi < F(5460, 100)

    def test_bracket_tightens(self):
        lo1, hi1 = exp_bounds(4, 10)
        lo2, hi2 = exp_bounds(4, 40)
        assert lo1 <= lo2 < hi2 <= hi1

    def test_compare(self):
        assert compare_with_exp(56, 4) is True
        assert compare_with_exp(48, 4) is False
        assert compare_with_exp(3, 1) is True
        assert compare_with_exp(F(27, 10), 1) is False
        assert compare_with_exp(1, 0) is True

    def test_even_quotient(self):
        assert ceil_even(F(273, 20)) == 14  # 13.65
        assert ceil_even(F(14)) == 14
        assert ceil_even(F(13)) == 14
        assert even_upper_exp_quotient(4, 4) == 14


class TestSchedules:
    def test_default_depth_two(self):
        assert default_schedule(2).radices == (4, 14)

    def test_h_condition_frozen(self):
        assert check_h_condition((4, 14), 2) is True
        assert check_h_condition((4, 12), 2) is False

    def test_level_one_always_certified(self, sys2):
        assert sys2.h_verified[0] is True

    def test_default_depth_three_certified(self):
        sys3 = default_schedule(3)
        assert sys3.h_verified == (True, True, True)
        assert sys3.radices[2] % 2 == 0
        # the third radix is astronomically large but exact
        assert sys3.radices[2] > 10 ** 22

    def test_fallback_levels_uncertified(self):
        sys4 = default_schedule(4)
        assert sys4.radices[3] == 2 * sys4.radices[2]
        assert sys4.h_verified[3] is False

    def test_budget_infeasible_status(self):
        sys4 = default_schedule(4)
        assert check_h_condition(sys4.radices, 4) is None

    def test_h_condition_stops_at_the_budget(self):
        # 4 * 14 * 38 passes the budget; multiplying out the rest of the
        # prefix for every level made certifying a schedule quadratic
        class Unread(int):
            def __rmul__(self, other):
                raise AssertionError("radix multiplied after the budget was passed")

        radices = (4, 14, 38) + (Unread(76),) * 1000
        assert check_h_condition(radices, 1001, exponent_budget=512) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            make_system((2, 14))
        with pytest.raises(ValueError):
            make_system((4, 13))
        with pytest.raises(ValueError):
            make_system((4, 14, 12))


class TestDigits:
    def test_five_eighths(self, sys2):
        got = digits_of(F(5, 8), sys2, 2)
        assert got == DigitVector(integer_part=0, digits=(2, 7), exact=True)
        assert got.value(sys2) == F(5, 8)

    def test_zero(self, sys2):
        assert digits_of(0, sys2, 2).digits == (0, 0)

    def test_boundary_alternative(self, sys2):
        primary = digits_of(F(1, 4), sys2, 2)
        assert primary.digits == (1, 0) and primary.exact
        twin = alternate_digits(F(1, 4), sys2, 2)
        assert twin is not None
        assert twin.digits == (0, 13)
        assert not twin.exact

    def test_no_alternative_without_termination(self, sys2):
        assert alternate_digits(F(1, 3), sys2, 2) is None

    def test_integer_borrows_from_integer_part(self, sys2):
        twin = alternate_digits(3, sys2, 2)
        assert twin.integer_part == 2
        assert twin.digits == (3, 13)

    def test_reconstruction_on_grid(self, geo6):
        rng = random.Random(6021)
        p6 = geo6.product(6)
        for _ in range(100):
            x = F(rng.randint(-2 * p6, 2 * p6), p6)
            got = digits_of(x, geo6, 6)
            assert got.exact
            assert got.value(geo6) == x

    def test_negative_values(self, sys2):
        got = digits_of(F(-3, 8), sys2, 2)
        assert got.integer_part == -1
        assert got.value(sys2) == F(-3, 8)


class TestMembership:
    def test_half_is_member_level_one(self, sys2):
        assert f_membership(F(1, 2), 1, sys2) is True

    def test_right_endpoint_member_via_twin(self, sys2):
        assert f_membership(F(1, 4), 1, sys2) is True
        assert f_membership(F(1, 4) + F(1, 56), 2, sys2) is True

    def test_interior_non_member(self, sys2):
        assert f_membership(F(3, 8), 1, sys2) is False
        assert f_membership(F(1, 10), 2, sys2) is False

    def test_level_geometry_by_enumeration(self, sys2):
        # inside [0, 1/4): the level-2 set is [0,1/56] plus [1/8, 1/8+1/56];
        # the next block starts a new member interval at 1/4 itself
        member_blocks = [Interval.closed(0, F(1, 56)),
                         Interval.closed(F(1, 8), F(1, 8) + F(1, 56))]
        step = F(1, 8 * 56)
        x = F(0)
        while x < F(1, 4):
            expect = any(b.contains(x) for b in member_blocks)
            assert f_membership(x, 2, sys2) is expect, x
            x += step
        assert f_membership(F(1, 4), 2, sys2) is True

    def test_branch_index_frozen(self):
        assert [branch_index(u) for u in (1, 2, 3, 4, 6, 8)] == [1, 2, 1, 3, 2, 4]

    def test_branch_partition(self):
        for u in range(1, 2 ** 10 + 1):
            j = branch_index(u)
            assert u % 2 ** (j - 1) == 0
            assert (u // 2 ** (j - 1)) % 2 == 1


class TestNestedIntersect:
    def test_zero_offsets_frozen(self, sys2):
        chain = nested_intersect([F(0), F(0)], sys2, 2)
        assert chain.final == Interval.closed(0, F(1, 56))

    def test_depth_one_is_shifted_seed(self, geo6):
        chain = nested_intersect([F(3, 7)], geo6, 1)
        assert chain.final == Interval.closed(F(3, 7), F(3, 7) + F(1, 4))

    def test_final_length_and_nesting(self, geo6):
        rng = random.Random(90125)
        for _ in range(100):
            alpha = [F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(3)]
            chain = nested_intersect(alpha, geo6, 6)
            assert chain.final.length == F(1, geo6.product(6))
            windows = [s.window for s in chain.steps]
            for outer, inner in zip(windows, windows[1:]):
                assert outer.lo <= inner.lo and inner.hi <= outer.hi
            samples = [chain.final.lo, chain.final.midpoint(), chain.final.hi,
                       chain.final.lo + chain.final.length / 3]
            assert chain_point_check(chain, geo6, samples)

    def test_certificate_shape(self, sys2):
        d = nested_intersect([F(1, 3), F(0)], sys2, 2).to_json_dict()
        assert d["U"] == 2
        assert d["branch"] == [1, 2]


class TestPremeasure:
    def test_stage_one_equality(self, sys2):
        got = premeasure_bound(sys2, j=1, k=1)
        assert got.level == 1
        assert got.cover_count == 2
        assert got.bound == 2
        assert got.target == 2
        assert got.meets_target and got.certified

    def test_stage_two_certified_schedule(self):
        sys3 = default_schedule(3)
        got = premeasure_bound(sys3, j=1, k=2)
        assert got.level == 3
        assert got.bound == 1 == got.target
        assert got.meets_target and got.certified

    def test_uncertified_level_flagged(self, geo6):
        got = premeasure_bound(geo6, j=1, k=2)
        assert got.level == 3
        assert got.bound == 1
        assert got.meets_target
        assert not got.certified

    def test_branch_two(self, geo6):
        got = premeasure_bound(geo6, j=2, k=2)
        assert got.level == 6
        expected_count = geo6.product(6) // ((geo6.radix(2) // 2) * (geo6.radix(6) // 2))
        assert got.cover_count == expected_count
        assert got.bound == F(2, geo6.radix(2) // 2) == F(2, 7)

    def test_schedule_too_short(self, sys2):
        with pytest.raises(ValueError):
            premeasure_bound(sys2, j=1, k=2)

    def test_branch_refused_before_its_level_is_built(self):
        sys4 = make_system(GEOMETRY_SCHEDULE[:4])
        assert premeasure_bound(sys4, j=3, k=1).level == 4  # the last level still admits
        with pytest.raises(ValueError, match="schedule too short: branch 4 needs a level "
                                             "of at least 2\\^3"):
            premeasure_bound(sys4, j=4, k=1)
