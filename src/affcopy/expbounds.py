"""Certified two-sided rational bounds on e^p for nonnegative integer p.

The lower bound is a partial sum of the exponential series; the upper bound
adds a proven tail majorant. With K terms and K >= 2p the tail
sum_(k>K) p^k/k! is below 2*p^(K+1)/(K+1)!, since the ratio of consecutive
terms is at most p/(K+2) <= 1/2. Comparisons against e^p refine K until the
bracket excludes the queried rational; for p >= 1 the bracket shrinks to an
irrational point, so every rational query terminates, and for p = 0 the
first bracket is already exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from affcopy.intervals import RationalLike, as_fraction

#: Most series terms a bracket may take before a decider gives up.
MAX_TERMS = 1 << 20


def exp_bounds(p: int, terms: Optional[int] = None) -> Tuple[Fraction, Fraction]:
    """Rational lo < e^p < hi for p >= 1. At p = 0 every term past the first
    vanishes, tail included, so the bracket is exactly (1, 1)."""
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    k_top = max(2 * p, 8) if terms is None else max(terms, 2 * p, 8)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, k_top + 1):
        term = term * p / k
        total += term
    tail = 2 * term * p / (k_top + 1)
    return total, total + tail


def _brackets(p: int) -> Iterator[Tuple[Fraction, Fraction]]:
    """The brackets on e^p at max(2p, 8) terms, doubling the terms each time;
    ArithmeticError once they would pass MAX_TERMS."""
    terms = max(2 * p, 8)
    while terms <= MAX_TERMS:
        yield exp_bounds(p, terms)
        terms *= 2
    raise ArithmeticError(f"bracket for e^{p} still open at MAX_TERMS = {MAX_TERMS} terms")


def compare_with_exp(value: RationalLike, p: int) -> bool:
    """Exact truth of ``value >= e^p``, decided by refining the bracket."""
    v = as_fraction(value)
    for lo, hi in _brackets(p):
        if v >= hi:
            return True
        if v <= lo:
            return False


def ceil_even(x: Fraction) -> int:
    """Smallest even integer >= x."""
    c = math.ceil(x)
    return c if c % 2 == 0 else c + 1


def even_upper_exp_quotient(p: int, divisor: int) -> int:
    """Smallest even integer >= e^p / divisor, pinned exactly.

    Refine the bracket until both ends agree on the even ceiling; e^p over a
    rational divisor is irrational for p >= 1, so the loop terminates.
    """
    if divisor <= 0:
        raise ValueError("divisor must be positive")
    for lo, hi in _brackets(p):
        hi_even = ceil_even(hi / divisor)
        if ceil_even(lo / divisor) == hi_even:
            return hi_even
