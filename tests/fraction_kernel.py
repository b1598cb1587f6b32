"""Reference kernel for the tests: the sort-and-sweep over ``(Fraction, flag)``
cut tuples that ``affcopy.intervals`` ran before it encoded cuts as ints, and
the parts-based ``affine``, ``star``, ``closure`` and ``contains_point`` it
ran before those read the int cuts.

A cut ``(x, 0)`` sits at the point ``x`` and ``(x, 1)`` immediately after it;
an interval covers the half-open cut range ``[start_cut, end_cut)``. The sweeps
below compare Fractions directly and share no code with the integer kernel, so
the differential tests and the brute-force oracles check the library against
an independent implementation.
"""

from bisect import bisect_right
from typing import Iterable, Tuple

from affcopy.intervals import Cut, Interval, IntervalSet, as_fraction

Range = Tuple[Cut, Cut]


def ranges(s: IntervalSet) -> list:
    return [(p.start_cut, p.end_cut) for p in s.parts]


def from_ranges(rs: Iterable[Range]) -> IntervalSet:
    # Interval's own checks reject an empty range (start cut >= end cut)
    return IntervalSet(tuple(Interval(lo, hi, lo_flag == 0, hi_flag == 1)
                             for (lo, lo_flag), (hi, hi_flag) in rs))


def union_of_ranges(rs: Iterable[Range]) -> IntervalSet:
    """Sort cut ranges by start, then fuse adjacent or overlapping ones."""
    merged: list = []
    for start, end in sorted(rs, key=lambda r: r[0]):
        last = merged[-1][1] if merged else None
        if last and (start[0] < last[0] or (start[0] == last[0] and start[1] <= last[1])):
            if end[0] > last[0] or (end[0] == last[0] and end[1] > last[1]):
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return from_ranges(merged)


def normalize(intervals: Iterable[Interval]) -> IntervalSet:
    return union_of_ranges((iv.start_cut, iv.end_cut) for iv in intervals)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return union_of_ranges(ranges(a) + ranges(b))


def intersect(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    out: list = []
    a, b = ranges(x), ranges(y)
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return from_ranges(out)


def difference(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    out: list = []
    b = ranges(y)
    j = 0
    for start, end in ranges(x):
        cur = start
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            if b[k][1] > cur:
                cur = b[k][1]
            if cur >= end:
                break
            k += 1
        if cur < end:
            out.append((cur, end))
    return from_ranges(out)


def translate(s: IntervalSet, t) -> IntervalSet:
    return IntervalSet(tuple(p.translate(t) for p in s.parts))


def left_neighborhood(s: IntervalSet, r) -> IntervalSet:
    """Each range [start, end) widened to start just after lo - r, then fused."""
    return union_of_ranges(((start[0] - r, 1), end) for start, end in ranges(s))


def affine(s: IntervalSet, scale, shift=0) -> IntervalSet:
    """Each part's image under x -> scale*x + shift; a negative scale swaps
    each part's ends and flags and reverses the parts."""
    a, t = as_fraction(scale), as_fraction(shift)
    if a == 0:
        raise ValueError("scale must be nonzero")
    if a > 0:
        return IntervalSet(tuple(Interval(a * p.lo + t, a * p.hi + t, p.lo_closed, p.hi_closed)
                                 for p in s.parts))
    return IntervalSet(tuple(Interval(a * p.hi + t, a * p.lo + t, p.hi_closed, p.lo_closed)
                             for p in reversed(s.parts)))


def star(s: IntervalSet) -> IntervalSet:
    """Every part (a,b) or [a,b] as [a,b); ValueError for a degenerate part
    or two parts whose closures touch."""
    for p in s.parts:
        if p.is_point:
            raise ValueError(f"star undefined for degenerate part {p}")
    for prev, cur in zip(s.parts, s.parts[1:]):
        if prev.hi >= cur.lo:
            raise ValueError(f"star undefined: closures of {prev} and {cur} touch")
    return IntervalSet(tuple(Interval.half_open(p.lo, p.hi) for p in s.parts))


def closure(s: IntervalSet) -> IntervalSet:
    return normalize([p.closure() for p in s.parts])


def contains_point(s: IntervalSet, x) -> bool:
    """Bisect the parts' start cuts for the cut (x, 0)."""
    cut = (as_fraction(x), 0)
    i = bisect_right(s.parts, cut, key=lambda p: p.start_cut)
    return i > 0 and cut < s.parts[i - 1].end_cut
