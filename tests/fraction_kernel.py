"""Reference kernel for the tests: the sort-and-sweep over ``(Fraction, flag)``
cut tuples that ``affcopy.intervals`` ran before it encoded cuts as ints.

A cut ``(x, 0)`` sits at the point ``x`` and ``(x, 1)`` immediately after it;
an interval covers the half-open cut range ``[start_cut, end_cut)``. The sweeps
below compare Fractions directly and share no code with the integer kernel, so
the differential tests and the brute-force oracles check the library against
an independent implementation.
"""

from typing import Iterable, Tuple

from affcopy.intervals import Cut, Interval, IntervalSet

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
