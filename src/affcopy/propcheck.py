"""Seeded randomized checks of the kernel's set and neighborhood algebra.

Each property is an exact identity or inclusion between IntervalSets; a
single failing instance is reported with enough detail to replay it. The
suite is deterministic for a fixed seed and is shared by the test suite and
the ``prop-suite`` CLI subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Tuple

from affcopy.intervals import Interval, IntervalSet, Report, normalize, union_all


def random_fraction(rng: random.Random, span: int = 24, max_den: int = 12,
                    positive: bool = False) -> Fraction:
    return Fraction(*_draw(rng, span, max_den, positive))


def _draw(rng: random.Random, span: int = 24, max_den: int = 12,
          positive: bool = False) -> Tuple[int, int]:
    """The numerator and denominator :func:`random_fraction` draws, each by
    ``randrange(a, b + 1)``: ``randint(a, b)`` is its documented alias, one
    call deeper."""
    return rng.randrange(1 if positive else -span, span + 1), rng.randrange(1, max_den + 1)


def _plus_draw(p: int, q: int, rng: random.Random, span: int = 24) -> Tuple[int, int]:
    """p/q plus a positive :func:`random_fraction` draw, added on ints (the
    ratio is not reduced): the same draws as ``p/q + random_fraction(rng,
    span, positive=True)`` without the Fraction addition."""
    n, d = _draw(rng, span, positive=True)
    return p * d + n * q, q * d


def _interval_draw(rng: random.Random) -> Tuple[int, int, int, int, bool, bool]:
    """What :func:`random_interval` draws: its ends a/b and c/e, neither
    reduced, and its two flags."""
    a, b = _draw(rng)
    c, e = _plus_draw(a, b, rng)
    return a, b, c, e, rng.random() < 0.5, rng.random() < 0.5


def random_interval(rng: random.Random) -> Interval:
    a, b, c, e, lo_closed, hi_closed = _interval_draw(rng)
    return Interval(Fraction(a, b), Fraction(c, e), lo_closed, hi_closed)


def random_interval_set(rng: random.Random, max_parts: int = 4) -> IntervalSet:
    """The normalized union of up to ``max_parts`` :func:`random_interval`
    draws."""
    return _union_of_draws([_interval_draw(rng) for _ in range(rng.randint(0, max_parts))])


def random_open_disjoint(rng: random.Random, max_parts: int = 4) -> IntervalSet:
    """A union of open intervals whose closures are pairwise disjoint."""
    draws = []
    edge = _draw(rng)
    for _ in range(rng.randint(1, max_parts)):
        lo = _plus_draw(*edge, rng, span=6)
        hi = _plus_draw(*lo, rng, span=6)
        draws.append((*lo, *hi, False, False))
        edge = _plus_draw(*hi, rng, span=6)
    return _union_of_draws(draws)


def _union_of_draws(draws: list) -> IntervalSet:
    """The set :func:`normalize` makes of the intervals from a/b to c/e, one
    ``(a, b, c, e, lo_closed, hi_closed)`` per draw, built from the ints: over
    the lcm D of the reduced denominators each end is the int ``a*D/b``."""
    D = 1
    for a, b, c, e, _, _ in draws:
        D = lcm(D, b // gcd(a, b), e // gcd(c, e))
    return IntervalSet.from_ends(D, [(a * D // b, c * D // e, lo_closed, hi_closed)
                                     for a, b, c, e, lo_closed, hi_closed in draws])


Check = Callable[[random.Random], Optional[str]]

#: Most instances per property :func:`run_kernel_property_suite` runs. Time is
#: linear in it: on a 2-core VM (Python 3.11) ``prop-suite --instances 10000``
#: takes 4.1-4.8 s (0.4-0.5 s at 1000).
MAX_INSTANCES = 10_000


def _check_left_nbhd_single(rng: random.Random) -> Optional[str]:
    # B_-(<a,b>, r) is exactly (a-r, b>, b's flag kept, and it contains [a,b).
    iv = random_interval(rng)
    r = random_fraction(rng, positive=True)
    got = IntervalSet((iv,)).left_neighborhood(r)
    want = IntervalSet((Interval(iv.lo - r, iv.hi, False, iv.hi_closed),))
    if got != want:
        return f"B_-({iv},{r}) = {got}, expected {want}"
    if not got.issuperset(IntervalSet((Interval.half_open(iv.lo, iv.hi),))):
        return f"B_-({iv},{r}) does not contain [{iv.lo},{iv.hi})"
    return None


def _check_left_nbhd_union(rng: random.Random) -> Optional[str]:
    # Left neighborhoods commute with unions.
    sets = [random_open_disjoint(rng) for _ in range(rng.randint(1, 3))]
    r = random_fraction(rng, positive=True)
    joined = union_all(sets)
    lhs = union_all([s.left_neighborhood(r) for s in sets])
    rhs = joined.left_neighborhood(r)
    if lhs != rhs:
        return f"union of B_- {lhs} != B_- of union {rhs} (r={r})"
    return None


def _check_left_nbhd_star(rng: random.Random) -> Optional[str]:
    # For open parts with disjoint closures, B_-(S, r) contains star(S).
    s = random_open_disjoint(rng)
    r = random_fraction(rng, positive=True)
    if not s.left_neighborhood(r).issuperset(s.star()):
        return f"B_-({s},{r}) does not contain {s.star()}"
    return None


def _check_left_nbhd_monotone_set(rng: random.Random) -> Optional[str]:
    small = random_interval_set(rng)
    big = small.union(random_interval_set(rng))
    r = random_fraction(rng, positive=True)
    if not big.left_neighborhood(r).issuperset(small.left_neighborhood(r)):
        return f"B_- not monotone in the set: {small} inside {big}, r={r}"
    return None


def _check_left_nbhd_monotone_radius(rng: random.Random) -> Optional[str]:
    s = random_interval_set(rng)
    p, q = _draw(rng, positive=True)
    r, bigger = Fraction(p, q), Fraction(*_plus_draw(p, q, rng))
    if not s.left_neighborhood(bigger).issuperset(s.left_neighborhood(r)):
        return f"B_- not monotone in the radius on {s}: r={r} vs {bigger}"
    return None


def _check_translate_complement(rng: random.Random) -> Optional[str]:
    # Complement-within commutes with translation.
    a = random_interval_set(rng)
    w = random_interval(rng)
    t = random_fraction(rng)
    lhs = a.complement_within(w).translate(t)
    rhs = a.translate(t).complement_within(w.translate(t))
    if lhs != rhs:
        return f"translate/complement mismatch: {lhs} != {rhs} (t={t})"
    return None


def _check_affine_distributes(rng: random.Random) -> Optional[str]:
    a = random_interval_set(rng)
    b = random_interval_set(rng)
    p, q = _draw(rng)
    scale = Fraction(p, q) if p else Fraction(1, 2)
    t = random_fraction(rng)
    image_a, image_b = a.affine(scale, t), b.affine(scale, t)
    if a.union(b).affine(scale, t) != image_a.union(image_b):
        return f"affine does not distribute over union (scale={scale}, t={t})"
    if a.intersect(b).affine(scale, t) != image_a.intersect(image_b):
        return f"affine does not distribute over intersect (scale={scale}, t={t})"
    return None


def _check_normalize_idempotent(rng: random.Random) -> Optional[str]:
    raw = [random_interval(rng) for _ in range(rng.randint(0, 5))]
    once = normalize(raw)
    twice = normalize(once.parts)
    if once != twice:
        return f"normalize not idempotent on {raw}"
    return None


def _check_measure(rng: random.Random) -> Optional[str]:
    a = random_interval_set(rng)
    b = random_interval_set(rng).difference(a)
    measure = a.measure()
    if a.union(b).measure() != measure + b.measure():
        return f"measure not additive on disjoint {a} and {b}"
    t = random_fraction(rng)
    for scale in (1, -1):
        if a.affine(scale, t).measure() != measure:
            return f"measure not invariant under scale {scale}, shift {t} on {a}"
    return None


KERNEL_PROPERTIES: Tuple[Tuple[str, Check], ...] = (
    ("left_nbhd_single_interval", _check_left_nbhd_single),
    ("left_nbhd_union", _check_left_nbhd_union),
    ("left_nbhd_contains_star", _check_left_nbhd_star),
    ("left_nbhd_monotone_set", _check_left_nbhd_monotone_set),
    ("left_nbhd_monotone_radius", _check_left_nbhd_monotone_radius),
    ("translate_complement", _check_translate_complement),
    ("affine_distributes", _check_affine_distributes),
    ("normalize_idempotent", _check_normalize_idempotent),
    ("measure_additive_invariant", _check_measure),
)


@dataclass(frozen=True)
class PropertyReport(Report):
    seed: int
    instances: int
    checks_run: int
    failures: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_kernel_property_suite(seed: int, instances: int) -> PropertyReport:
    """Run every kernel property on `instances` fresh random cases each."""
    if not 1 <= instances <= MAX_INSTANCES:
        raise ValueError(f"instances must be in 1..{MAX_INSTANCES}, got {instances}")
    failures = []
    checks = 0
    for name, check in KERNEL_PROPERTIES:
        rng = random.Random(f"{seed}/{name}")
        for i in range(instances):
            checks += 1
            problem = check(rng)
            if problem is not None:
                failures.append(f"{name}[{i}]: {problem}")
    return PropertyReport(seed=seed, instances=instances, checks_run=checks,
                          failures=tuple(failures))
