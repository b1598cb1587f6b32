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
from typing import Callable, Optional, Tuple

from affcopy.intervals import Interval, IntervalSet, Report, normalize, union_all


def random_fraction(rng: random.Random, span: int = 24, max_den: int = 12,
                    positive: bool = False) -> Fraction:
    num = rng.randint(1 if positive else -span, span)
    return Fraction(num, rng.randint(1, max_den))


def random_interval(rng: random.Random) -> Interval:
    a = random_fraction(rng)
    b = a + random_fraction(rng, positive=True)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def random_interval_set(rng: random.Random, max_parts: int = 4) -> IntervalSet:
    return normalize([random_interval(rng) for _ in range(rng.randint(0, max_parts))])


def random_open_disjoint(rng: random.Random, max_parts: int = 4) -> IntervalSet:
    """A union of open intervals whose closures are pairwise disjoint."""
    parts = []
    edge = random_fraction(rng)
    for _ in range(rng.randint(1, max_parts)):
        lo = edge + random_fraction(rng, span=6, positive=True)
        hi = lo + random_fraction(rng, span=6, positive=True)
        parts.append(Interval.open(lo, hi))
        edge = hi + random_fraction(rng, span=6, positive=True)
    return IntervalSet(tuple(parts))


Check = Callable[[random.Random], Optional[str]]

#: Most instances per property :func:`run_kernel_property_suite` runs. Time is
#: linear in it: on a 2-core VM (Python 3.11) ``prop-suite --instances 10000``
#: takes 7.2 s (0.7-0.9 s at 1000).
MAX_INSTANCES = 10_000


def _check_left_nbhd_single(rng: random.Random) -> Optional[str]:
    # B_-((a,b), r) is exactly (a-r, b), and it contains [a,b).
    lo = random_fraction(rng)
    iv = Interval.open(lo, lo + random_fraction(rng, positive=True))
    r = random_fraction(rng, positive=True)
    got = IntervalSet((iv,)).left_neighborhood(r)
    want = IntervalSet((Interval.open(iv.lo - r, iv.hi),))
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
    r = random_fraction(rng, positive=True)
    bigger = r + random_fraction(rng, positive=True)
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
    scale = random_fraction(rng)
    if scale == 0:
        scale = Fraction(1, 2)
    t = random_fraction(rng)
    if a.union(b).affine(scale, t) != a.affine(scale, t).union(b.affine(scale, t)):
        return f"affine does not distribute over union (scale={scale}, t={t})"
    if a.intersect(b).affine(scale, t) != a.affine(scale, t).intersect(b.affine(scale, t)):
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
    if a.union(b).measure() != a.measure() + b.measure():
        return f"measure not additive on disjoint {a} and {b}"
    t = random_fraction(rng)
    for scale in (1, -1):
        if a.affine(scale, t).measure() != a.measure():
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
