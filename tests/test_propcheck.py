"""The property suite checks a pinned stream of instances, and each of its
properties fails when the kernel it checks is broken."""

import hashlib
import random
from fractions import Fraction

import pytest

from affcopy import intervals
from affcopy.intervals import Interval, IntervalSet, as_fraction, normalize
from affcopy.propcheck import (KERNEL_PROPERTIES, random_fraction, random_interval,
                               random_interval_set, random_open_disjoint,
                               run_kernel_property_suite)

#: sha256 of the repr of the first 3,000 outputs of each generator, each from
#: its own fixed seed, and of the generator's state after them (CPython's
#: Mersenne Twister and ``randrange``)
STREAM_DIGEST = "017c1c58d6e5699ba01c1515b0fea777c1c89aa3c82ed9f5676594ce0ed7a0c7"


def test_the_generators_draw_a_pinned_stream():
    # any change to a draw, to the order of the draws or to a value built
    # from them moves the digest, so the suite keeps checking these instances
    digest = hashlib.sha256()
    for draw in (random_fraction, random_interval, random_interval_set, random_open_disjoint):
        rng = random.Random(f"stream/{draw.__name__}")
        for _ in range(3000):
            digest.update(repr(draw(rng)).encode())
        digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == STREAM_DIGEST


def test_the_set_generators_build_the_sets_of_their_draws():
    # random_interval_set is normalize() of random_interval draws, and
    # random_open_disjoint the canonical set of open parts built here by
    # Fraction addition, from the same draws in the same order; each on the
    # lattice those constructions pick, so the kernel calls see the same ints
    for seed in range(500):
        fast, slow = random.Random(seed), random.Random(seed)
        drawn = random_interval_set(fast, max_parts=6)
        built = normalize([random_interval(slow) for _ in range(slow.randint(0, 6))])
        assert drawn._lattice == built._lattice
        drawn = random_open_disjoint(fast)
        parts, edge = [], random_fraction(slow)
        for _ in range(slow.randint(1, 4)):
            lo = edge + random_fraction(slow, span=6, positive=True)
            hi = lo + random_fraction(slow, span=6, positive=True)
            parts.append(Interval.open(lo, hi))
            edge = hi + random_fraction(slow, span=6, positive=True)
        built = IntervalSet(tuple(parts))
        assert drawn._lattice == built._lattice and drawn.parts == built.parts
        assert fast.getstate() == slow.getstate()


real_merge = intervals._merge
real_left_neighborhood = IntervalSet.left_neighborhood
real_affine = IntervalSet.affine


def moves_both_ends(self, r):
    # B_-(S, r) taken as S - r: the right ends move too
    return self.translate(-as_fraction(r))


def widens_first_part_only(self, r):
    return real_left_neighborhood(IntervalSet(self.parts[:1]), r).union(
        IntervalSet(self.parts[1:]))


def keeps_closed_left_flag(self, r):
    # [a,b] -> [a-r,b]: B_- with the left end of each closed-left part kept closed
    return normalize([Interval(p.lo - as_fraction(r), p.hi, p.lo_closed, p.hi_closed)
                      for p in self.parts])


def drops_left_operand(self, other):
    return other


def ignores_shift(self, scale, shift=0):
    return real_affine(self, scale)


def drops_last_image_part(self, scale, shift=0):
    return IntervalSet(real_affine(self, scale, shift).parts[:-1])


def merge_drops_last_range(*groups):
    return real_merge(*groups)[:-1]


def counts_first_part_only(self):
    return self.parts[0].length if self.parts else Fraction(0)


#: property name -> (owner, attribute, a faulty stand-in it must catch)
FAULTS = {
    "left_nbhd_single_interval": (IntervalSet, "left_neighborhood", moves_both_ends),
    "left_nbhd_union": (IntervalSet, "left_neighborhood", widens_first_part_only),
    "left_nbhd_contains_star": (IntervalSet, "star", IntervalSet.closure),
    "left_nbhd_monotone_set": (IntervalSet, "union", drops_left_operand),
    "left_nbhd_monotone_radius": (IntervalSet, "left_neighborhood", moves_both_ends),
    "translate_complement": (IntervalSet, "affine", ignores_shift),
    "affine_distributes": (IntervalSet, "affine", drops_last_image_part),
    "normalize_idempotent": (intervals, "_merge", merge_drops_last_range),
    "measure_additive_invariant": (IntervalSet, "measure", counts_first_part_only),
}


def test_every_property_has_a_fault():
    assert set(FAULTS) == {name for name, _ in KERNEL_PROPERTIES}


@pytest.mark.parametrize("name", [name for name, _ in KERNEL_PROPERTIES])
def test_each_property_fails_on_a_broken_kernel(monkeypatch, name):
    assert run_kernel_property_suite(1, 50).passed
    owner, attribute, fault = FAULTS[name]
    monkeypatch.setattr(owner, attribute, fault)
    report = run_kernel_property_suite(1, 50)
    assert name in {failure.split("[")[0] for failure in report.failures}
    assert report.checks_run == 9 * 50


def test_the_single_interval_identity_checks_the_left_flag(monkeypatch):
    # the four other left-neighborhood properties are inclusions that the
    # extra point a-r does not break; the identity draws both flags to see it
    monkeypatch.setattr(IntervalSet, "left_neighborhood", keeps_closed_left_flag)
    report = run_kernel_property_suite(1, 50)
    assert "left_nbhd_single_interval" in {failure.split("[")[0] for failure in report.failures}
    assert report.checks_run == 9 * 50
