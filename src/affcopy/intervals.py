"""Exact interval-set arithmetic over the rationals.

Every scalar is a ``fractions.Fraction``; nothing in this module (or this
package) touches floating point. An :class:`Interval` carries per-endpoint
open/closed flags so that open, closed and half-open intervals share one
representation, and an :class:`IntervalSet` is the canonical form of a finite
union: parts sorted by left endpoint, pairwise disjoint, and never mergeable.
Structural equality of two canonical sets is therefore exact set equality.

Internally each interval maps to a half-open range of *cuts*. A cut ``(x, 0)``
sits at the point ``x`` itself and ``(x, 1)`` immediately after it; an
interval covers ``[start_cut, end_cut)`` where a closed left endpoint starts
at ``(lo, 0)``, an open one at ``(lo, 1)``, a closed right endpoint ends at
``(hi, 1)`` and an open one at ``(hi, 0)``. Union, intersection and
complement reduce to sweeps over sorted half-open cut ranges, and the
canonical adjacency rule -- ``(a,b) | [b,c)`` merges to ``(a,c)`` while
``(a,b) | (b,c)`` keeps two parts separated by the missing point ``b`` --
falls out of cut equality with no special cases.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Tuple, Union

RationalLike = Union[int, Fraction, str]

#: A cut is a position on the doubled line: (x, 0) is the point x, (x, 1) is
#: the position immediately after it. Tuples compare lexicographically.
Cut = Tuple[Fraction, int]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints and ``p/q`` strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; pass a Fraction, int or 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval with per-endpoint open/closed flags.

    Valid shapes are ``lo < hi`` with any flags, or the degenerate point
    ``[a,a]`` (both endpoints closed). Degenerate points exist only as an
    internal convenience, e.g. window-edge leftovers of complements; the
    operations that promise nondegenerate intervals reject them.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("empty interval: equal endpoints need both ends closed")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def open(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(as_fraction(lo), as_fraction(hi), False, False)

    @staticmethod
    def closed(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(as_fraction(lo), as_fraction(hi), True, True)

    @staticmethod
    def half_open(lo: RationalLike, hi: RationalLike) -> "Interval":
        """The left-closed, right-open interval [lo, hi)."""
        return Interval(as_fraction(lo), as_fraction(hi), True, False)

    @staticmethod
    def point(x: RationalLike) -> "Interval":
        return Interval(as_fraction(x), as_fraction(x), True, True)

    # -- cut representation -------------------------------------------------

    @property
    def start_cut(self) -> Cut:
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def end_cut(self) -> Cut:
        return (self.hi, 1 if self.hi_closed else 0)

    # -- queries ------------------------------------------------------------

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_open(self) -> bool:
        return not self.lo_closed and not self.hi_closed

    def contains(self, x: RationalLike) -> bool:
        cut = (as_fraction(x), 0)
        return self.start_cut <= cut < self.end_cut

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, True, True)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- transforms ----------------------------------------------------------

    def translate(self, shift: RationalLike) -> "Interval":
        t = as_fraction(shift)
        moved = object.__new__(Interval)  # a translate keeps the shape: no checks
        moved.__dict__.update(self.__dict__, lo=self.lo + t, hi=self.hi + t)
        return moved

    def scaled(self, scale: RationalLike, shift: RationalLike = 0) -> "Interval":
        """Image under x -> scale*x + shift; scale < 0 swaps the endpoints."""
        a = as_fraction(scale)
        t = as_fraction(shift)
        if a == 0:
            raise ValueError("scale must be nonzero")
        if a > 0:
            return Interval(a * self.lo + t, a * self.hi + t, self.lo_closed, self.hi_closed)
        return Interval(a * self.hi + t, a * self.lo + t, self.hi_closed, self.lo_closed)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"

    @staticmethod
    def parse(text: str) -> "Interval":
        s = text.strip()
        if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
            raise ValueError(f"malformed interval {text!r}")
        body = s[1:-1].split(",")
        if len(body) != 2:
            raise ValueError(f"malformed interval {text!r}")
        return Interval(as_fraction(body[0].strip()), as_fraction(body[1].strip()),
                        s[0] == "[", s[-1] == "]")


@dataclass(frozen=True)
class IntervalSet:
    """A canonical finite disjoint union of intervals.

    The constructor insists on canonical input (sorted, no two parts
    overlapping or mergeable); use :func:`normalize` to canonicalize an
    arbitrary collection. Equality of two IntervalSets is exact equality of
    the point sets they denote.
    """

    parts: Tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for prev, cur in zip(self.parts, self.parts[1:]):
            if cur.start_cut <= prev.end_cut:
                raise ValueError(
                    f"parts not canonical: {prev} followed by {cur}; use normalize()")

    # -- basics ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def _ranges(self) -> list[Tuple[Cut, Cut]]:
        return [(p.start_cut, p.end_cut) for p in self.parts]

    @staticmethod
    def _from_ranges(ranges: Iterable[Tuple[Cut, Cut]]) -> "IntervalSet":
        # Interval's own checks reject an empty range (start cut >= end cut)
        return IntervalSet(tuple(Interval(lo, hi, lo_flag == 0, hi_flag == 1)
                                 for (lo, lo_flag), (hi, hi_flag) in ranges))

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _union_of_ranges(self._ranges() + other._ranges())

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Tuple[Cut, Cut]] = []
        a, b = self._ranges(), other._ranges()
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
        return IntervalSet._from_ranges(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Tuple[Cut, Cut]] = []
        b = other._ranges()
        j = 0
        for start, end in self._ranges():
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
        return IntervalSet._from_ranges(out)

    def complement_within(self, window: Interval) -> "IntervalSet":
        """Points of ``window`` not in this set."""
        return IntervalSet((window,)).difference(self)

    # -- measure & geometry ----------------------------------------------------

    def measure(self) -> Fraction:
        """Total length; endpoint flags do not affect the value."""
        return sum((p.length for p in self.parts), Fraction(0))

    def affine(self, scale: RationalLike, shift: RationalLike = 0) -> "IntervalSet":
        """Image set {scale*x + shift : x in self}; scale must be nonzero."""
        a = as_fraction(scale)
        if a == 0:
            raise ValueError("scale must be nonzero")
        mapped = [p.scaled(a, shift) for p in self.parts]
        if a < 0:
            mapped.reverse()
        return IntervalSet(tuple(mapped))

    def translate(self, shift: RationalLike) -> "IntervalSet":
        return self.affine(1, shift)

    def left_neighborhood(self, r: RationalLike) -> "IntervalSet":
        """The set {x - t : x in self, 0 <= t < r} for r > 0.

        Pointwise, each part gains an open left margin of width r while its
        right endpoint flag survives; for a union of open parts this is the
        per-part map (a,b) -> (a-r, b) followed by canonicalization.
        """
        rr = as_fraction(r)
        if rr <= 0:
            raise ValueError("left_neighborhood needs r > 0")
        widened = [Interval(p.lo - rr, p.hi, False, p.hi_closed) for p in self.parts]
        return normalize(widened)

    def star(self) -> "IntervalSet":
        """Replace every part (a,b) or [a,b] by [a,b).

        Requires nondegenerate parts with pairwise disjoint closures, so the
        half-open images are still separated.
        """
        for p in self.parts:
            if p.is_point:
                raise ValueError(f"star undefined for degenerate part {p}")
        for prev, cur in zip(self.parts, self.parts[1:]):
            if prev.hi >= cur.lo:
                raise ValueError(f"star undefined: closures of {prev} and {cur} touch")
        return IntervalSet(tuple(Interval.half_open(p.lo, p.hi) for p in self.parts))

    def closure(self) -> "IntervalSet":
        return normalize([p.closure() for p in self.parts])

    # -- queries ----------------------------------------------------------------

    def contains_point(self, x: RationalLike) -> bool:
        cut = (as_fraction(x), 0)
        i = bisect_right(self.parts, cut, key=lambda p: p.start_cut)
        return i > 0 and cut < self.parts[i - 1].end_cut

    def issuperset(self, other: "IntervalSet") -> bool:
        return other.difference(self).is_empty

    # -- text form ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " | ".join(str(p) for p in self.parts)

    def to_strings(self) -> list[str]:
        """JSON-ready list of interval strings."""
        return [str(p) for p in self.parts]

    @staticmethod
    def from_strings(texts: Iterable[str]) -> "IntervalSet":
        return normalize([Interval.parse(t) for t in texts])


EMPTY = IntervalSet(())


def _union_of_ranges(ranges: Iterable[Tuple[Cut, Cut]]) -> IntervalSet:
    """The one sort-and-sweep: sort cut ranges by start, then fuse adjacent or
    overlapping ones into a canonical set. Cuts compare point first: one
    Fraction comparison in the usual strict case, where a tuple makes two."""
    merged: list[Tuple[Cut, Cut]] = []
    for start, end in sorted(ranges, key=lambda r: r[0]):
        last = merged[-1][1] if merged else None
        if last and (start[0] < last[0] or (start[0] == last[0] and start[1] <= last[1])):
            if end[0] > last[0] or (end[0] == last[0] and end[1] > last[1]):
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return IntervalSet._from_ranges(merged)


def normalize(intervals: Iterable[Interval]) -> IntervalSet:
    """Canonicalize any finite collection of intervals.

    The result has identical point membership: overlapping or mergeable parts
    fuse, order is restored, and nothing else changes.
    """
    return _union_of_ranges((iv.start_cut, iv.end_cut) for iv in intervals)


def union_all(sets: Iterable[IntervalSet]) -> IntervalSet:
    """Union of many canonical sets in one sort-and-sweep pass."""
    return _union_of_ranges(r for s in sets for r in s._ranges())


def union_of_translates(s: IntervalSet, shifts: Iterable[RationalLike]) -> IntervalSet:
    """Union of the translates s + t over all shifts, in one sort-and-sweep.

    Cuts are shifted directly, parts in the outer loop, so for sorted shifts
    each part's translates arrive as one sorted run.
    """
    ts = [as_fraction(t) for t in shifts]
    return _union_of_ranges([((lo + t, lo_flag), (hi + t, hi_flag))
                             for (lo, lo_flag), (hi, hi_flag) in s._ranges() for t in ts])


def intersection_of_translates(s: IntervalSet, shifts: Iterable[RationalLike],
                               within: IntervalSet) -> IntervalSet:
    """``within`` intersected with every translate s + t, stopping at the
    first empty result; shifts after it are never evaluated."""
    out = within
    for t in shifts:
        out = out.intersect(s.translate(t))
        if out.is_empty:
            break
    return out
