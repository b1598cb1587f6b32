"""Mixed-radix digit machinery over a schedule of even radices.

Real numbers expand as [x] + sum of digit_n / (M_1*...*M_n) with digits in
[0, M_n - 1]. The level-n constraint set F_n keeps the numbers whose n-th
digit is 0 or M_n/2 under either expansion (the terminating expansion and its
borrow-and-carry twin), which makes F_n a union of closed intervals of length
1/P_n spaced 1/(2*P_(n-1)) apart. Constraint families are dispatched by the
2-adic branch index, and a deterministic nested-interval walk produces, at
any finite depth, a closed interval every point of which satisfies all
shifted digit constraints simultaneously.

The schedule certification ties the radix growth to the dimension gauge
x -> -1/ln(x): level n is certified when ln(P_n) >= P_(n-1), decided through
rational brackets on e^(P_(n-1)). Certification gets infeasible fast (the
gauge forces essentially doubly exponential growth), so geometry and
certification are deliberately decoupled: digit machinery needs only even,
non-decreasing radices, while the generalized-premeasure cover bound consumes
the certification flags and says so when a level is uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from affcopy.expbounds import compare_with_exp, even_upper_exp_quotient
from affcopy.intervals import Interval, RationalLike, Report, as_fraction

DEFAULT_EXPONENT_BUDGET = 512
#: Largest exponent budget. Certifying a level brackets e^(P_(n-1)), and the
#: cost grows steeply with the exponent: on a 2-core VM (Python 3.11) one
#: bracket took 0.5 s at P_(n-1) = 1,024 (4.4 s at 2,048), and a schedule whose
#: sixth product lies next to e^1024 took 5.5 s to certify at this cap.
MAX_EXPONENT_BUDGET = 1024
#: Most levels a schedule may have. A system keeps every product P_n, so memory
#: grows with the square of the depth: ``appendix-schedule --depth 256`` takes
#: 0.02 s and 18 MB, and 256 radices of 4,300 digits (the longest int a flag
#: parses) 4.1 s and 78 MB.
MAX_DEPTH = 256
#: Longest product P_n, in bits, that a walk or a cover bound may reach (a
#: walk's offsets count too: P_n's bits plus each offset's). Their reports
#: print rationals over P_n, and ``str()`` writes at most 4,300 decimal
#: digits (about 14,284 bits): on a 2-core VM (Python 3.11) and the default
#: schedule, ``appendix-intersect`` printed its walk to P_110 (13,883 bits)
#: and failed to print P_118 (15,374 bits) after 0.43 s, or P_256 after 5.4 s.
#: The default schedule's P_99 has 11,936 bits, and the walk to it takes 0.22 s.
MAX_PRODUCT_BITS = 12_000


@dataclass(frozen=True)
class MixedRadixSystem(Report):
    """Radix schedule M_1..M_depth with exact products and per-level
    certification flags (h_verified[n-1] says level n is certified)."""

    radices: Tuple[int, ...]
    products: Tuple[int, ...] = field(metadata={"json": None})
    h_verified: Tuple[bool, ...]

    @property
    def depth(self) -> int:
        return len(self.radices)

    def radix(self, n: int) -> int:
        return self.radices[n - 1]

    def product(self, n: int) -> int:
        """P_n = M_1 * ... * M_n, with P_0 = 1."""
        if n == 0:
            return 1
        return self.products[n - 1]


def check_h_condition(radices: Sequence[int], n: int,
                      exponent_budget: int = DEFAULT_EXPONENT_BUDGET) -> Optional[bool]:
    """Decide ln(P_n) >= P_(n-1), i.e. P_n >= e^(P_(n-1)), or None when the
    prior product exceeds the exponent budget (never guessed). The product
    stops as soon as it passes the budget, so a level past it costs a few
    small multiplications, not the whole prefix."""
    if n < 1 or n > len(radices):
        raise ValueError(f"level {n} outside the schedule")
    p_prev = 1
    for i in range(n - 1):
        if p_prev > exponent_budget:
            break
        p_prev *= radices[i]
    if p_prev > exponent_budget:
        return None
    return compare_with_exp(Fraction(p_prev * radices[n - 1]), p_prev)


def _check_budget(exponent_budget: int) -> None:
    if exponent_budget > MAX_EXPONENT_BUDGET:
        raise ValueError(f"exponent budget {exponent_budget} exceeds "
                         f"MAX_EXPONENT_BUDGET = {MAX_EXPONENT_BUDGET}")


def _check_product_bits(system: MixedRadixSystem, level: int) -> None:
    bits = system.product(level).bit_length()
    if bits > MAX_PRODUCT_BITS:
        raise ValueError(f"level {level}: P_{level} has {bits} bits, above "
                         f"MAX_PRODUCT_BITS = {MAX_PRODUCT_BITS}")


def make_system(radices: Sequence[int],
                exponent_budget: int = DEFAULT_EXPONENT_BUDGET) -> MixedRadixSystem:
    """Validate a schedule and certify every level the budget allows."""
    radices = tuple(int(m) for m in radices)
    if not radices:
        raise ValueError("schedule is empty")
    if len(radices) > MAX_DEPTH:
        raise ValueError(f"{len(radices)} levels exceed MAX_DEPTH = {MAX_DEPTH}")
    _check_budget(exponent_budget)
    if radices[0] < 4:
        raise ValueError("first radix must be at least 4")
    for i, m in enumerate(radices):
        if m % 2 != 0:
            raise ValueError(f"radix {m} at level {i + 1} is odd")
        if i and m < radices[i - 1]:
            raise ValueError(f"radices decrease at level {i + 1}")
    products = []
    p = 1
    for m in radices:
        p *= m
        products.append(p)
    verified = tuple(check_h_condition(radices, n, exponent_budget) is True
                     for n in range(1, len(radices) + 1))
    return MixedRadixSystem(radices=radices, products=tuple(products),
                            h_verified=verified)


def default_schedule(depth: int,
                     exponent_budget: int = DEFAULT_EXPONENT_BUDGET) -> MixedRadixSystem:
    """M_1 = 4; each next radix is the smallest even integer at or above
    e^(P_(n-1)) / P_(n-1) while that bound fits the budget, then doubles as a
    documented fallback (those levels simply stay uncertified)."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
    _check_budget(exponent_budget)
    radices = [4]
    p = 4
    for _ in range(2, depth + 1):
        if p <= exponent_budget:
            m = max(radices[-1], even_upper_exp_quotient(p, p))
        else:
            m = 2 * radices[-1]
        radices.append(m)
        p *= m
    return make_system(radices, exponent_budget)


# ---------------------------------------------------------------------------
# digit expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DigitVector(Report):
    """Finite-depth expansion; ``exact`` marks a zero remainder, i.e. the
    reconstruction [x] + sum(digit_n / P_n) reproduces the source."""

    integer_part: int
    digits: Tuple[int, ...]
    exact: bool

    def value(self, system: MixedRadixSystem) -> Fraction:
        total = Fraction(self.integer_part)
        for n, d in enumerate(self.digits, 1):
            total += Fraction(d, system.product(n))
        return total


def digits_of(x: RationalLike, system: MixedRadixSystem, depth: int) -> DigitVector:
    """Greedy expansion of x to the given depth."""
    if not 1 <= depth <= system.depth:
        raise ValueError(f"depth must be in 1..{system.depth}")
    x = as_fraction(x)
    integer_part = x.numerator // x.denominator
    y = x - integer_part
    digits = []
    for n in range(1, depth + 1):
        y *= system.radix(n)
        d = y.numerator // y.denominator
        digits.append(d)
        y -= d
    return DigitVector(integer_part=integer_part, digits=tuple(digits), exact=y == 0)


def alternate_digits(x: RationalLike, system: MixedRadixSystem,
                     depth: int) -> Optional[DigitVector]:
    """The borrow twin of a terminating expansion, truncated at depth.

    Decrement the last nonzero digit (or the integer part when the fraction
    vanishes) and fill everything after it with M_n - 1; the result equals x
    only as an infinite expansion, so it is reported with exact=False. None
    when the greedy expansion does not terminate within depth.
    """
    primary = digits_of(x, system, depth)
    if not primary.exact:
        return None
    digits = list(primary.digits)
    pivot = 0
    for n in range(depth, 0, -1):
        if digits[n - 1] > 0:
            pivot = n
            break
    if pivot == 0:
        integer_part = primary.integer_part - 1
    else:
        integer_part = primary.integer_part
        digits[pivot - 1] -= 1
    for n in range(pivot + 1, depth + 1):
        digits[n - 1] = system.radix(n) - 1
    return DigitVector(integer_part=integer_part, digits=tuple(digits), exact=False)


def f_membership(x: RationalLike, n: int, system: MixedRadixSystem) -> bool:
    """Whether the level-n digit constraint holds: digit n is 0 or M_n/2
    under the greedy expansion or under its borrow twin."""
    primary = digits_of(x, system, n)
    half = system.radix(n) // 2
    if primary.digits[n - 1] in (0, half):
        return True
    twin = alternate_digits(x, system, n)
    return twin is not None and twin.digits[n - 1] in (0, half)


def branch_index(u: int) -> int:
    """The greatest v with 2^(v-1) dividing u; routes step u to constraint
    family u with the branch-v offset."""
    if u < 1:
        raise ValueError("index must be positive")
    return (u & -u).bit_length()


# ---------------------------------------------------------------------------
# nested-interval walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    u: int
    branch: int
    offset: Fraction
    base: Interval  # the level-u constraint interval C_u (closed, length 1/P_u)

    @property
    def window(self) -> Interval:
        return self.base.translate(self.offset)


@dataclass(frozen=True)
class NestedChain:
    steps: Tuple[ChainStep, ...]

    @property
    def final(self) -> Interval:
        return self.steps[-1].window

    def to_json_dict(self) -> dict:
        return {
            "U": len(self.steps),
            "interval": str(self.final),
            "alphas": [str(s.offset) for s in self.steps],
            "branch": [s.branch for s in self.steps],
        }


def nested_intersect(alpha: Sequence[RationalLike], system: MixedRadixSystem,
                     depth: int) -> NestedChain:
    """Walk the constraint families to the given depth.

    Starts from [0, 1/M_1] shifted by the branch-1 offset and, at each step
    u, picks the leftmost level-u constraint interval whose shifted copy fits
    inside the previous window. The level-u starts are all multiples of
    1/(2*P_(u-1)) while the window is 1/P_(u-1) long and the interval only
    1/P_u, so an admissible choice always exists; failing to find one would
    be an arithmetic bug and aborts.
    """
    if not 1 <= depth <= system.depth:
        raise ValueError(f"depth must be in 1..{system.depth}")
    _check_product_bits(system, depth)
    offsets = [as_fraction(a) for a in alpha]
    # every window end is a multiple of 1/P_depth plus an offset, so its
    # numerator and denominator have about the offset's bits plus P_depth's
    product_bits = system.product(depth).bit_length()
    for j, a in enumerate(offsets, 1):
        bits = max(a.numerator.bit_length(), a.denominator.bit_length())
        if bits + product_bits > MAX_PRODUCT_BITS:
            raise ValueError(f"offset {j}: {bits} bits, with the {product_bits} bits of "
                             f"P_{depth}, above MAX_PRODUCT_BITS = {MAX_PRODUCT_BITS}")
    need = max(branch_index(u) for u in range(1, depth + 1))
    if len(offsets) < need:
        raise ValueError(f"need offsets for branches 1..{need}, got {len(offsets)}")

    base = Interval.closed(0, Fraction(1, system.product(1)))
    steps = [ChainStep(u=1, branch=1, offset=offsets[0], base=base)]
    window = steps[0].window
    for u in range(2, depth + 1):
        j = branch_index(u)
        a = offsets[j - 1]
        spacing = Fraction(1, 2 * system.product(u - 1))
        length = Fraction(1, system.product(u))
        s = math.ceil((window.lo - a) / spacing) * spacing
        candidate = Interval.closed(s, s + length)
        shifted = candidate.translate(a)
        if not (window.lo <= shifted.lo and shifted.hi <= window.hi):
            raise RuntimeError(f"no admissible constraint interval at step {u}; "
                               "arithmetic bug")
        steps.append(ChainStep(u=u, branch=j, offset=a, base=candidate))
        window = shifted
    return NestedChain(steps=tuple(steps))


def chain_point_check(chain: NestedChain, system: MixedRadixSystem,
                      points: Sequence[RationalLike]) -> bool:
    """Exact digit-membership of sample points: every x among the points must
    satisfy x - offset_u in F_u for each step u."""
    for x in points:
        x = as_fraction(x)
        for step in chain.steps:
            if not f_membership(x - step.offset, step.u, system):
                return False
    return True


# ---------------------------------------------------------------------------
# premeasure cover bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PremeasureBound:
    """Cover of the branch-j constraint intersection by level-n* intervals,
    n* = (2k-1)*2^(j-1): the cover count, the certified gauge bound
    count / P_(n*-1) (valid when level n* is certified), and the target
    1/2^(k-2) it must not exceed."""

    j: int
    k: int
    level: int
    cover_count: int
    interval_length: Fraction
    bound: Fraction
    target: Fraction
    meets_target: bool
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "level": self.level,
            "cover_count": str(self.cover_count),
            "interval_length": str(self.interval_length),
            "bound": str(self.bound),
            "target": str(self.target),
            "meets_target": self.meets_target,
            "certified": self.certified,
        }


def premeasure_bound(system: MixedRadixSystem, j: int, k: int) -> PremeasureBound:
    """Evaluate the unit-window cover estimate at stage k of branch j."""
    if j < 1 or k < 1:
        raise ValueError("j and k must be positive")
    if j - 1 >= system.depth.bit_length():  # then 2^(j-1) > depth: refuse before building it
        raise ValueError(f"schedule too short: branch {j} needs a level of at least 2^{j - 1}")
    level = (2 * k - 1) * 2 ** (j - 1)
    if level > system.depth:
        raise ValueError(f"schedule too short: stage needs level {level}")
    _check_product_bits(system, level)
    selected = [(2 * l - 1) * 2 ** (j - 1) for l in range(1, k + 1)]
    denom = 1
    for idx in selected:
        denom *= system.radix(idx) // 2
    count = Fraction(system.product(level), denom)
    if count.denominator != 1:
        raise RuntimeError(f"cover count {count} at level {level} is not an integer")
    bound = Fraction(int(count), system.product(level - 1))
    simplified = Fraction(2)
    for idx in selected[:-1]:
        simplified /= Fraction(system.radix(idx), 2)
    if bound != simplified:
        raise RuntimeError(f"cover bound {bound} differs from its closed form {simplified}")
    target = Fraction(2) ** (2 - k)
    return PremeasureBound(
        j=j,
        k=k,
        level=level,
        cover_count=int(count),
        interval_length=Fraction(1, system.product(level)),
        bound=bound,
        target=target,
        meets_target=bound <= target,
        certified=system.h_verified[level - 1],
    )
