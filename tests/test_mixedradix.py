import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from affcopy import mixedradix
from affcopy.expbounds import (ceil_even, compare_with_exp, even_upper_exp_quotient,
                               exp_bounds)
from affcopy.intervals import Interval, IntervalSet
from affcopy.mixedradix import (branch_index, chain_point_check, check_h_condition,
                                default_schedule, f_membership, make_system, nested_intersect,
                                premeasure_bound)

F = Fraction

GEOMETRY_SCHEDULE = (4, 14, 40, 120, 360, 1080)


@dataclass(frozen=True)
class DigitVector:
    """A finite-depth expansion; ``exact`` marks a zero remainder, i.e. the
    reconstruction [x] + sum(digit_n / P_n) reproduces the source."""

    integer_part: int
    digits: tuple
    exact: bool

    def value(self, system):
        return F(self.integer_part) + sum(F(d, system.product(n))
                                          for n, d in enumerate(self.digits, 1))


def digits_of(x, system, depth):
    """The greedy expansion of x to the given depth, digit by digit in
    Fraction arithmetic: with its borrow twin below, the reference that
    f_membership's one residue is checked against."""
    x = F(x)
    integer_part = x.numerator // x.denominator
    y = x - integer_part
    digits = []
    for n in range(1, depth + 1):
        y *= system.radix(n)
        d = y.numerator // y.denominator
        digits.append(d)
        y -= d
    return DigitVector(integer_part=integer_part, digits=tuple(digits), exact=y == 0)


def borrow_twin(x, system, depth):
    """The borrow twin by its definition: decrement the last nonzero digit, or
    the integer part when every digit is zero, and fill every later digit n
    with M_n - 1."""
    primary = digits_of(x, system, depth)
    digits = list(primary.digits)
    pivot = max((n for n, d in enumerate(digits, 1) if d), default=0)
    if pivot:
        digits[pivot - 1] -= 1
    digits[pivot:] = [system.radix(n) - 1 for n in range(pivot + 1, depth + 1)]
    return DigitVector(integer_part=primary.integer_part - (pivot == 0),
                       digits=tuple(digits), exact=False)


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
        assert compare_with_exp(F(99, 100), 0) is False

    def test_even_quotient(self):
        assert ceil_even(F(273, 20)) == 14  # 13.65
        assert ceil_even(F(14)) == 14
        assert ceil_even(F(13)) == 14
        assert even_upper_exp_quotient(4, 4) == 14

    def test_even_quotient_at_zero(self):
        # e^0 = 1 exactly, and the first bracket already says so
        for d in range(1, 13):
            assert even_upper_exp_quotient(0, d) == ceil_even(F(1, d))


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

    def test_the_budget_and_depth_ranges_are_inclusive(self):
        # a prior product equal to the budget is still decided, one above is
        # not; a passed budget stops the product before the last factor
        assert check_h_condition((4, 14), 2, exponent_budget=4) is True
        assert check_h_condition((4, 14), 2, exponent_budget=3) is None
        assert check_h_condition((4, 14, 10 ** 30), 3, exponent_budget=4) is None
        assert check_h_condition((4,), 1, exponent_budget=1) is True
        # default_schedule takes the certified radix at p == budget, not the fallback
        assert default_schedule(2, exponent_budget=4).radices == (4, 14)
        assert default_schedule(2, exponent_budget=4).h_verified == (True, True)
        assert default_schedule(2, exponent_budget=3).radices == (4, 8)
        # both ends of the budget range are accepted
        assert default_schedule(2, exponent_budget=0).h_verified == (False, False)
        assert make_system((4, 14), mixedradix.MAX_EXPONENT_BUDGET).h_verified == (True, True)
        # and both ends of the depth range
        assert default_schedule(1).radices == (4,)
        assert default_schedule(mixedradix.MAX_DEPTH).depth == mixedradix.MAX_DEPTH

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
        twin = borrow_twin(F(1, 4), sys2, 2)
        assert twin.digits == (0, 13)
        assert twin.value(sys2) == F(1, 4) - F(1, 56)

    def test_no_alternative_without_termination(self, sys2):
        # 1/56 is a member only through its twin; a point just past it is
        # off the 1/P_2 lattice, so it has no twin and its greedy digit 1 rules
        assert f_membership(F(1, 56), 2, sys2) is True
        past = F(1, 56) + F(1, 56 * 23)
        assert digits_of(past, sys2, 2).digits == (0, 1)
        assert f_membership(past, 2, sys2) is False
        assert f_membership(F(1, 3), 2, sys2) is False  # digits (1, 4), no twin

    def test_integer_borrows_from_integer_part(self, sys2):
        twin = borrow_twin(3, sys2, 2)
        assert twin.integer_part == 2
        assert twin.digits == (3, 13)
        assert twin.value(sys2) == 3 - F(1, 56)

    def test_twin_follows_the_borrow_rule(self):
        # the twin is the terminating expansion of x - 1/P_depth
        rng = random.Random(2727)
        seen = set()
        for _ in range(400):
            radices = [2 * rng.randint(2, 10)]
            for _ in range(rng.randint(0, 4)):
                radices.append(radices[-1] + 2 * rng.randint(0, 3))
            system = make_system(radices, exponent_budget=8)  # certification plays no part
            depth = rng.randint(1, system.depth)
            p = system.product(depth)
            kind = rng.choice(("positive", "negative", "zero", "integer"))
            k = {"positive": rng.randint(1, 3 * p), "negative": rng.randint(-3 * p, -1),
                 "zero": 0, "integer": p * rng.randint(-3, 3)}[kind]
            x = F(k, p)
            seen.add(kind)
            twin = borrow_twin(x, system, depth)
            assert twin.value(system) == x - F(1, p)
            assert twin.digits == digits_of(x - F(1, p), system, depth).digits
        assert seen == {"positive", "negative", "zero", "integer"}

    @pytest.mark.parametrize("depth", [-1, 0, 3])
    @pytest.mark.parametrize("x", [F(1, 4), F(1, 3)])
    def test_twin_refuses_a_depth_outside_the_schedule(self, sys2, x, depth):
        # 1/4 has a borrow twin at every level and 1/3 none; either way
        # f_membership checks the level first, with digits_of's message
        with pytest.raises(ValueError, match=r"^depth must be in 1\.\.2$"):
            f_membership(x, depth, sys2)

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

    def test_membership_matches_the_digits_of_both_expansions(self):
        # the residue form against its definition: digit n of the greedy
        # expansion, or of the borrow twin when x*P_n is an integer, is 0 or M_n/2
        rng = random.Random(3030)
        seen = set()
        for _ in range(2400):
            radices = [2 * rng.randint(2, 12)]
            for _ in range(rng.randint(0, 5)):
                radices.append(radices[-1] + 2 * rng.randint(0, 4))
            system = make_system(radices, exponent_budget=8)  # certification plays no part
            n = rng.randint(1, system.depth)
            p = system.product(n)
            kind = rng.choice(("positive", "negative", "zero", "integer"))
            k = {"positive": rng.randint(1, 3 * p), "negative": rng.randint(-3 * p, -1),
                 "zero": 0, "integer": p * rng.randint(-3, 3)}[kind]
            x = F(k, p)
            if rng.random() < 0.5:  # just past a lattice point, never on one
                x += F(rng.randint(1, 28), 29 * p)
            on_lattice = (x * p).denominator == 1
            seen.add((kind, on_lattice))
            half = system.radix(n) // 2
            expect = digits_of(x, system, n).digits[n - 1] in (0, half) or (
                on_lattice and borrow_twin(x, system, n).digits[n - 1] in (0, half))
            assert f_membership(x, n, system) is expect, (radices, n, x)
        assert seen == {(kind, on_lattice) for kind in ("positive", "negative", "zero", "integer")
                        for on_lattice in (False, True)}

    def test_level_geometry_by_enumeration(self, sys2):
        # inside [0, 1/4): the level-2 set is [0,1/56] plus [1/8, 1/8+1/56];
        # the next block starts a new member interval at 1/4 itself
        member_blocks = IntervalSet((Interval.closed(0, F(1, 56)),
                                     Interval.closed(F(1, 8), F(1, 8) + F(1, 56))))
        step = F(1, 8 * 56)
        x = F(0)
        while x < F(1, 4):
            expect = member_blocks.contains_point(x)
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

    def test_a_product_of_exactly_the_bit_cap_is_admitted(self):
        # P_2 = 4 * 2^11997 has exactly MAX_PRODUCT_BITS bits; one more is refused
        cap = mixedradix.MAX_PRODUCT_BITS
        at_cap = make_system((4, 2 ** (cap - 3)))
        assert at_cap.product(2).bit_length() == cap
        assert premeasure_bound(at_cap, j=2, k=1).level == 2
        with pytest.raises(ValueError, match=f"P_2 has {cap + 1} bits, above MAX_PRODUCT_BITS"):
            premeasure_bound(make_system((4, 2 ** (cap - 2))), j=2, k=1)


class TestRefusals:
    """Every refusal by exception type and a fragment of its message."""

    @pytest.mark.parametrize("call, error, fragment", [
        (lambda: check_h_condition((4, 14), 3), ValueError, "level 3 outside the schedule"),
        (lambda: check_h_condition((4, 14), 0), ValueError, "level 0 outside the schedule"),
        (lambda: make_system(()), ValueError, "schedule is empty"),
        (lambda: branch_index(0), ValueError, "index must be positive"),
        (lambda: nested_intersect([0], make_system((4, 14)), 2), ValueError,
         "need offsets for branches 1..2, got 1"),
        (lambda: premeasure_bound(make_system((4, 14)), 0, 1), ValueError,
         "j and k must be positive"),
        (lambda: premeasure_bound(make_system((4, 14)), 1, 0), ValueError,
         "j and k must be positive"),
        (lambda: exp_bounds(-1), ValueError, "exponent must be nonnegative"),
        (lambda: even_upper_exp_quotient(3, 0), ValueError, "divisor must be positive"),
        (lambda: make_system((4, 14), -1), ValueError, "exponent budget -1 is negative"),
        (lambda: default_schedule(2, -5), ValueError, "exponent budget -5 is negative"),
        (lambda: make_system((4, 6, 9)), ValueError, "radix 9 at level 3 is odd"),
        (lambda: make_system((4, 8, 6)), ValueError, "radices decrease at level 3"),
    ], ids=["h-level-past", "h-level-zero", "empty-schedule", "branch-zero", "few-offsets",
            "premeasure-j", "premeasure-k", "exp-negative", "quotient-divisor",
            "system-budget-negative", "schedule-budget-negative", "odd-radix",
            "decreasing-radices"])
    def test_refused(self, call, error, fragment):
        with pytest.raises(error) as err:
            call()
        assert fragment in str(err.value)
