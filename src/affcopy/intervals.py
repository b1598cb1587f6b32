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

Every set is held as its cuts over one lattice ``D``, the cut ``(x, flag)``
encoded as the int ``2*x*D + flag``, which orders exactly as the tuple does.
The constructor encodes its parts once, over the lcm of their endpoint
denominators, and checks canonical form on those ints; a kernel result keeps
its operands' common lattice and is checked on its cuts the same way, and so
is a set that :meth:`IntervalSet.from_cuts` builds from given cuts over a
given D.
Canonical means the cuts strictly increase, which is exactly the
:class:`Interval` shape rule within each range and the canonical rule between
neighbours, so a kernel result skips both constructors and decodes its parts
to Fraction endpoints (``c >> 1`` over ``D``, flag ``c & 1``) only when
``parts`` is first read.
Only :class:`Interval` compares Fractions, on cross-multiplied numerators.
Every set operation, transform and query reads the cuts: ``len``, truth,
``is_empty``, ``==``, union, intersection, difference, ``measure``,
``longest`` (which decodes only the part it returns), ``affine``,
``translate``, ``left_neighborhood``, ``star``, ``closure``,
``contains_point`` and pickling. Only ``parts``, ``hash``, ``repr``, ``str``,
iteration and ``to_strings`` decode the parts.
One helper, ``_aligned``, sizes the common lattice: it carries several sets
to the lcm D of their lattices and of any shifts' denominators (``2xD + f``
becomes ``2xDk + f``) and turns each shift t into the cut move ``2tD``, so a
chain of translates stays on one lattice, sized once from all its shifts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter, lt
from typing import Callable, Iterable, Iterator, Tuple, Union

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


@dataclass(frozen=True, slots=True)
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
        lo, hi = self.lo, self.hi
        if (lo.__class__ is Fraction is hi.__class__
                and lo.numerator * hi.denominator < hi.numerator * lo.denominator):
            return  # the usual case: exact Fractions in order, one int comparison
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            object.__setattr__(self, "lo", as_fraction(self.lo))
            object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:  # one comparison in the usual case
            if self.lo > self.hi:
                raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
            if not (self.lo_closed and self.hi_closed):
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
        x = as_fraction(x)
        return ((self.lo < x or (self.lo_closed and x == self.lo))
                and (x < self.hi or (self.hi_closed and x == self.hi)))

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, True, True)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- transforms ----------------------------------------------------------

    def translate(self, shift: RationalLike) -> "Interval":
        t = as_fraction(shift)
        n, d = t.numerator, t.denominator
        lo, hi = self.lo, self.hi  # a translate keeps the shape: no checks
        return _part(Fraction(lo.numerator * d + n * lo.denominator, lo.denominator * d),
                     Fraction(hi.numerator * d + n * hi.denominator, hi.denominator * d),
                     self.lo_closed, self.hi_closed)

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


class IntervalSet:
    """A canonical finite disjoint union of intervals.

    The constructor insists on canonical input (sorted, no two parts
    overlapping or mergeable); use :func:`normalize` to canonicalize an
    arbitrary collection. Equality of two IntervalSets is exact equality of
    the point sets they denote. Instances are immutable.
    """

    #: ``_lattice`` is the set's ``(D, cuts)``; ``_parts`` caches the
    #: Interval tuple, None until a kernel result is first read.
    __slots__ = ("_parts", "_lattice")

    def __init__(self, parts: Iterable[Interval]) -> None:
        parts = tuple(parts)
        D = _denominator(parts)
        cuts = _encode(parts, D)
        # canonical iff each end cut is below the next start cut: a shared
        # endpoint must be missing from both parts
        for i, ((_, end), (start, _)) in enumerate(zip(cuts, cuts[1:])):
            if end >= start:
                raise ValueError(f"parts not canonical: {parts[i]} followed by "
                                 f"{parts[i + 1]}; use normalize()")
        _set_parts(self, parts)
        _set_lattice(self, (D, cuts))

    @staticmethod
    def from_cuts(D: int, cuts: Iterable[Tuple[int, int]]) -> "IntervalSet":
        """The set of the half-open int cut ranges ``cuts`` over the lattice
        ``D >= 1``, each cut ``2*x*D + flag``; ValueError unless the cuts
        strictly increase (an empty range, or neighbours that overlap or
        should merge). Its parts are decoded on first read."""
        if D < 1:
            raise ValueError(f"lattice D must be positive, got {D}")
        return _decode([(lo, hi) for lo, hi in cuts], D)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IntervalSet.from_cuts, self._lattice

    @property
    def parts(self) -> Tuple[Interval, ...]:
        """The parts in order; a kernel result decodes them on first read."""
        if self._parts is None:
            D, cuts = self._lattice
            _set_parts(self, tuple(_decode_part(lo, hi, D) for lo, hi in cuts))
        return self._parts

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if len(self) != len(other):
            return False
        # canonical cut lists over one D are equal exactly when the sets are
        _, (a, b), _ = _aligned((self, other))
        return a == b

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"IntervalSet(parts={self.parts!r})"

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:  # also truth: an empty set is falsy
        return len(self._lattice[1])

    @property
    def is_empty(self) -> bool:
        return not len(self)

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _sweep(_merge, self, other)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return _sweep(_intersect, self, other)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return _sweep(_difference, self, other)

    def complement_within(self, window: Interval) -> "IntervalSet":
        """Points of ``window`` not in this set."""
        return IntervalSet((window,)).difference(self)

    # -- measure & geometry ----------------------------------------------------

    def measure(self) -> Fraction:
        """Total length; endpoint flags do not affect the value."""
        D, cuts = self._lattice
        return Fraction(sum(hi >> 1 for _, hi in cuts) - sum(lo >> 1 for lo, _ in cuts), D)

    def longest(self) -> Interval:
        """The first part of greatest length, the only part it decodes;
        ValueError for the empty set."""
        D, cuts = self._lattice
        if not cuts:
            raise ValueError("the empty set has no longest part")
        lengths = [(hi >> 1) - (lo >> 1) for lo, hi in cuts]
        return _decode_part(*cuts[lengths.index(max(lengths))], D)

    def affine(self, scale: RationalLike, shift: RationalLike = 0) -> "IntervalSet":
        """Image set {scale*x + shift : x in self}; scale must be nonzero.

        On D' = lcm(D * den scale, den shift) a cut ``2xD + f`` maps to
        ``2(scale*x + shift)D' + f``. A negative scale reverses the ranges and
        flips every flag, since each start cut comes from an end cut.
        """
        a, t = as_fraction(scale), as_fraction(shift)
        if a == 0:
            raise ValueError("scale must be nonzero")
        d, cuts = self._lattice
        D = lcm(d * a.denominator, t.denominator)
        k = a.numerator * (D // (d * a.denominator))
        move = 2 * t.numerator * (D // t.denominator)
        if k > 0:
            mapped = [(lo + move, hi + move) for lo, hi in _rescale(cuts, k)]
        else:
            mapped = [(move + 1 - hi, move + 1 - lo) for lo, hi in _rescale(cuts[::-1], -k)]
        return _decode(mapped, D)

    def translate(self, shift: RationalLike) -> "IntervalSet":
        return self.affine(1, shift)

    def left_neighborhood(self, r: RationalLike) -> "IntervalSet":
        """The set {x - t : x in self, 0 <= t < r} for r > 0.

        Pointwise, each part gains an open left margin of width r while its
        right endpoint flag survives; for a union of open parts this is the
        per-part map (a,b) -> (a-r, b) followed by canonicalization. On the
        cuts over D' = lcm(D, den r), every start cut ``2*lo*D' + f`` moves
        to the open ``2*(lo - r)*D' + 1``, that is ``(start | 1) - 2*r*D'``,
        and the ranges merge.
        """
        rr = as_fraction(r)
        if rr <= 0:
            raise ValueError("left_neighborhood needs r > 0")
        D, (cuts,), (move,) = _aligned((self,), (rr,))
        return _decode(_merge([((lo | 1) - move, hi) for lo, hi in cuts]), D)

    def star(self) -> "IntervalSet":
        """Replace every part (a,b) or [a,b] by [a,b).

        Requires nondegenerate parts with pairwise disjoint closures, so the
        half-open images are still separated: on the cuts each range becomes
        ``(lo & ~1, hi & ~1)``, which strictly increase exactly then.
        """
        D, cuts = self._lattice
        try:
            return _decode([(lo & ~1, hi & ~1) for lo, hi in cuts], D)
        except ValueError:
            raise ValueError("star undefined: a degenerate part or touching closures") from None

    def closure(self) -> "IntervalSet":
        D, cuts = self._lattice
        return _decode(_merge([(lo & ~1, hi | 1) for lo, hi in cuts]), D)

    # -- queries ----------------------------------------------------------------

    def contains_point(self, x: RationalLike) -> bool:
        """Bisect the cuts, carried to the lattice D*q of x = p/q, for x's
        cut ``2pD``."""
        x = as_fraction(x)
        D, cuts = self._lattice
        cut, q2 = 2 * x.numerator * D, 2 * x.denominator
        i = bisect_right(cuts, cut, key=lambda r: (r[0] >> 1) * q2 | r[0] & 1)
        return i > 0 and cut < ((cuts[i - 1][1] >> 1) * q2 | cuts[i - 1][1] & 1)

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


#: Setters of the IntervalSet slots that bypass its frozen ``__setattr__``.
_set_parts, _set_lattice = (vars(IntervalSet)[name].__set__ for name in IntervalSet.__slots__)


def _part(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> Interval:
    """An Interval built without ``__post_init__``, for a shape already checked."""
    part = object.__new__(Interval)
    object.__setattr__(part, "lo", lo)
    object.__setattr__(part, "hi", hi)
    object.__setattr__(part, "lo_closed", lo_closed)
    object.__setattr__(part, "hi_closed", hi_closed)
    return part


# -- the JSON report format -----------------------------------------------------

class Report:
    """Base of every JSON report dataclass.

    ``to_json_dict`` writes the fields in declaration order, each under its
    own name or under ``field(metadata={"json": key})`` (a key of None leaves
    the field out), and ends with ``"pass"`` when the class defines
    ``passed``. Values are written in their text form: a Fraction as
    ``p/q``, an Interval as ``(lo,hi)``, an IntervalSet as a list of interval
    strings, a tuple as a list and a nested report as its dict.
    """

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            if key is not None:
                out[key] = _json_value(getattr(self, f.name))
        if hasattr(type(self), "passed"):
            out["pass"] = self.passed
        return out


def _json_value(value):
    if isinstance(value, (Fraction, Interval)):
        return str(value)
    if isinstance(value, IntervalSet):
        return value.to_strings()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return value


# -- the integer-cut kernel ---------------------------------------------------

#: Half-open cut ranges ``[start, end)`` over one common denominator D.
_Cuts = list[Tuple[int, int]]
_START, _END = itemgetter(0), itemgetter(1)


def _denominator(parts: Iterable[Interval]) -> int:
    """The lcm of the endpoint denominators (1 for no parts)."""
    return lcm(*{x.denominator for p in parts for x in (p.lo, p.hi)})


def _encode(parts: Iterable[Interval], D: int) -> _Cuts:
    """Cut ranges over D."""
    return [(2 * p.lo.numerator * (D // p.lo.denominator) + (not p.lo_closed),
             2 * p.hi.numerator * (D // p.hi.denominator) + p.hi_closed) for p in parts]


def _decode(cuts: _Cuts, D: int) -> IntervalSet:
    """The set of canonical cut ranges, its parts left to decode on first
    read; ValueError unless the cuts strictly increase (an empty range, or
    neighbours that overlap or should merge)."""
    edges = [c for r in cuts for c in r]
    if not all(map(lt, edges, edges[1:])):
        raise ValueError("kernel result is not a canonical cut list")
    out = object.__new__(IntervalSet)
    _set_parts(out, None)
    _set_lattice(out, (D, cuts))
    return out


def _decode_part(lo: int, hi: int, D: int) -> Interval:
    """The part of the cut range ``[lo, hi)`` over D."""
    return _part(Fraction(lo >> 1, D), Fraction(hi >> 1, D), not lo & 1, bool(hi & 1))


def _rescale(cuts: _Cuts, k: int) -> _Cuts:
    """Cut ranges over D carried to the lattice D*k: 2xD + f becomes 2xDk + f."""
    if k == 1:
        return cuts
    k2 = 2 * k
    return [((lo >> 1) * k2 | lo & 1, (hi >> 1) * k2 | hi & 1) for lo, hi in cuts]


def _aligned(sets: Iterable[IntervalSet],
             shifts: Iterable[RationalLike] = ()) -> Tuple[int, list, list]:
    """The lcm D of the sets' lattices and the shifts' denominators, each
    set's cuts carried to D, and each shift t as the cut move ``2tD``."""
    lattices = [s._lattice for s in sets]
    ts = [as_fraction(t) for t in shifts]
    D = lcm(*(d for d, _ in lattices), *{t.denominator for t in ts})
    return (D, [_rescale(cuts, D // d) for d, cuts in lattices],
            [2 * t.numerator * (D // t.denominator) for t in ts])


def _sweep(sweep: Callable[..., _Cuts], *sets: IntervalSet) -> IntervalSet:
    """Run ``sweep`` on the sets' cut lists, each carried to the lcm D of
    their lattices, and check its result."""
    D, cuts, _ = _aligned(sets)
    return _decode(sweep(*cuts), D)


def _merge(*groups: _Cuts) -> _Cuts:
    """The one sort-and-sweep: fuse overlapping or adjacent cut ranges."""
    merged: _Cuts = []
    for lo, hi in sorted(chain(*groups)):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _intersect(a: _Cuts, b: _Cuts) -> _Cuts:
    """Each range of the shorter list clips the slice of the other it overlaps."""
    if len(a) < len(b):
        a, b = b, a
    out: _Cuts = []
    for lo, hi in b:
        i = bisect_right(a, lo, key=_END)
        j = bisect_left(a, hi, lo=i, key=_START)
        if i < j:
            piece = a[i:j]
            piece[0] = (max(piece[0][0], lo), piece[0][1])
            piece[-1] = (piece[-1][0], min(piece[-1][1], hi))
            out += piece
    return out


def _difference(a: _Cuts, b: _Cuts) -> _Cuts:
    """``a`` intersected with the gaps of ``b`` inside a's span."""
    if not a:
        return []
    edges = [a[0][0]] + [c for r in b for c in r] + [a[-1][1]]
    return _intersect(a, [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi])


EMPTY = IntervalSet(())


def normalize(intervals: Iterable[Interval]) -> IntervalSet:
    """Canonicalize any finite collection of intervals.

    The result has identical point membership: overlapping or mergeable parts
    fuse, order is restored, and nothing else changes.
    """
    parts = tuple(intervals)
    D = _denominator(parts)
    return _decode(_merge(_encode(parts, D)), D)


def union_all(sets: Iterable[IntervalSet]) -> IntervalSet:
    """Union of many canonical sets in one sort-and-sweep pass."""
    return _sweep(_merge, *sets)


def union_of_translates(s: IntervalSet, shifts: Iterable[RationalLike]) -> IntervalSet:
    """Union of the translates s + t over all shifts, in one sort-and-sweep.

    Cuts are shifted directly, parts in the outer loop, so for sorted shifts
    each part's translates arrive as one sorted run.
    """
    D, (cuts,), moves = _aligned((s,), shifts)
    return _decode(_merge([(lo + m, hi + m) for lo, hi in cuts for m in moves]), D)


def intersection_of_translates(s: IntervalSet, shifts: Iterable[RationalLike],
                               within: IntervalSet) -> IntervalSet:
    """``within`` intersected with every translate s + t, stopping at the
    first empty result.

    The chain stays on one lattice: D is the lcm of both operands' lattices
    and every shift's denominator, sized once up front.
    """
    D, (base, out), moves = _aligned((s, within), shifts)
    for move in moves:
        out = _intersect(out, [(lo + move, hi + move) for lo, hi in base])
        if not out:
            break
    return _decode(out, D)
