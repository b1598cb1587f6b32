"""Exact interval-set arithmetic over the rationals.

Every scalar is a ``fractions.Fraction``; nothing in this module (or this
package) touches floating point. An :class:`Interval` carries per-endpoint
open/closed flags so that open, closed and half-open intervals share one
representation, and an :class:`IntervalSet` is the canonical form of a finite
union: parts sorted by left endpoint, pairwise disjoint, and never mergeable.
Structural equality of two canonical sets is therefore exact set equality.

Internally each interval maps to a half-open range of *cuts*. A cut ``(x, 0)``
sits at the point ``x`` itself and ``(x, 1)`` immediately after it; an
interval covers the cuts from its start up to, not including, its end: a
closed left endpoint starts at ``(lo, 0)``, an open one at ``(lo, 1)``, a
closed right endpoint ends at ``(hi, 1)`` and an open one at ``(hi, 0)``.
Union, intersection and complement reduce to sweeps over sorted half-open cut
ranges, and the canonical adjacency rule -- ``(a,b) | [b,c)`` merges to
``(a,c)`` while ``(a,b) | (b,c)`` keeps two parts separated by the missing
point ``b`` -- falls out of cut equality with no special cases.

Every set is held as its cuts over one lattice ``D``, the cut ``(x, flag)``
encoded as the int ``2*x*D + flag``, which orders exactly as the tuple does.
The constructor encodes its parts in one pass that reads each endpoint once,
over the lcm of their endpoint denominators, and checks canonical form on
those ints; a kernel result keeps its operands' common lattice and is
checked on its cuts the same way.
:meth:`IntervalSet.from_ends` takes ends already on a lattice D, as the ints
x*D with their flags, and merges them on the cuts unless they are canonical
already, so no caller writes a cut.
Canonical means the cuts strictly increase, which is exactly the
:class:`Interval` shape rule within each range and the canonical rule between
neighbours, so a kernel result skips both constructors and decodes its parts
to Fraction endpoints (``c >> 1`` over ``D``, flag ``c & 1``) only when
``parts`` is first read. There is one unchecked builder per type, and each
sets its type's slots directly: ``_part`` for :class:`Interval` and
``_reduced`` for ``Fraction``. Those parts, :meth:`Interval.translate` and
:meth:`Interval.split_around` build through ``_part``, since their shape is
known or, for a split, checked on ints first. The parts' endpoints, a
translate's endpoints, a split's two gap ends (given as ints over one
denominator) and ``measure`` build through ``_reduced``, since each is an int
over a positive int: one gcd and none of the constructor's argument
handling.
This is the one module that reads and writes ``Fraction``'s two slots,
``_numerator`` and ``_denominator``, whose names are checked once, at
import: every ratio it reads is two slot loads, not ``as_integer_ratio()``
or the ``numerator``/``denominator`` properties, and ``_reduced`` fills a
new Fraction with two plain attribute stores.
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
set's translates share one lattice, sized once from all its shifts.
Another, ``_translate_runs``, sorts the distinct moves once and chains a
range's translates by neighbouring moves into one run wherever their step is
at most the range's width, exactly when the two overlap or touch; so a union
of translates sorts and sweeps runs, never a list of every translate.
``contains_point`` places x = p/q on the lattice with one ``divmod(p*D, q)``
and bisects the start cuts, with no cut rescaled.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from itertools import chain, starmap
from math import gcd, lcm
from operator import itemgetter, lt, sub
from typing import Callable, Iterable, Iterator, Tuple, Union

RationalLike = Union[int, Fraction, str]

#: The largest decimal exponent magnitude ``as_fraction`` reads from text,
#: the 4,300 digits ``str()`` writes: past it the Fraction constructor would
#: first build a power of ten of as many digits as the exponent asks for.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class ExponentCapError(ValueError):
    """Well-formed text that ``as_fraction`` refuses: its decimal exponent is
    above MAX_DECIMAL_EXPONENT in magnitude. A caller naming the text should
    print this reason, which ``Fraction``'s own errors on malformed text lack."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints and ``p/q`` strings to an exact Fraction; text whose
    decimal exponent is above MAX_DECIMAL_EXPONENT in magnitude is refused
    with a ValueError before any power of ten is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; pass a Fraction, int or 'p/q' string")
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise ExponentCapError(f"decimal exponent {exponent[1]} is above the cap "
                                   f"{MAX_DECIMAL_EXPONENT} in magnitude")
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
                and lo._numerator * hi._denominator < hi._numerator * lo._denominator):
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
        return Interval(lo, hi, False, False)

    @staticmethod
    def closed(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(lo, hi, True, True)

    @staticmethod
    def half_open(lo: RationalLike, hi: RationalLike) -> "Interval":
        """The left-closed, right-open interval [lo, hi)."""
        return Interval(lo, hi, True, False)

    @staticmethod
    def point(x: RationalLike) -> "Interval":
        return Interval(x, x, True, True)

    # -- queries ------------------------------------------------------------

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_open(self) -> bool:
        return not self.lo_closed and not self.hi_closed

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- transforms ----------------------------------------------------------

    def translate(self, shift: RationalLike) -> "Interval":
        if shift.__class__ is not Fraction:
            shift = as_fraction(shift)
        n, d = shift._numerator, shift._denominator
        a, b = self.lo._numerator, self.lo._denominator
        c, e = self.hi._numerator, self.hi._denominator
        # a translate keeps the shape: no checks
        return _part(_reduced(a * d + n * b, b * d), _reduced(c * d + n * e, e * d),
                     self.lo_closed, self.hi_closed)

    def split_around(self, lo: int, hi: int, den: int) -> Tuple[Interval, Interval, Interval]:
        """[self.lo, lo/den], (lo/den, hi/den) and [hi/den, self.hi] of a closed
        interval with self.lo < lo/den < hi/den < self.hi, for ints lo and hi
        over one den > 0, checked by one chain of cross-multiplied int
        comparisons; ValueError on any other shape, TypeError on non-ints.
        The chain a*den < lo*b, lo < hi, hi*d < c*den for self = [a/b, c/d]
        gives den*(cb - ad) > 0, so it holds only for den > 0 and a/b < c/d."""
        if not lo.__class__ is hi.__class__ is den.__class__ is int:
            raise TypeError(f"split_around takes int ends, got {lo!r}, {hi!r} and {den!r}")
        a, b = self.lo._numerator, self.lo._denominator
        c, d = self.hi._numerator, self.hi._denominator
        if not (self.lo_closed and self.hi_closed and a * den < lo * b and lo < hi
                and hi * d < c * den):
            raise ValueError(f"cannot split {self} around ({lo}/{den},{hi}/{den}): need a "
                             "closed interval with the gap strictly inside it")
        x, y = _reduced(lo, den), _reduced(hi, den)
        return (_part(self.lo, x, True, True), _part(x, y, False, False),
                _part(y, self.hi, True, True))

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


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
        D, cuts = _encode(parts)
        # canonical iff each end cut is below the next start cut: a shared
        # endpoint must be missing from both parts
        if not _increasing(cuts):
            i = next(i for i in range(1, len(cuts)) if cuts[i - 1][1] >= cuts[i][0])
            raise ValueError(f"parts not canonical: {parts[i - 1]} followed by "
                             f"{parts[i]}; use normalize()")
        _set_parts(self, parts)
        _set_lattice(self, (D, cuts))

    @staticmethod
    def from_ends(D: int, ranges: Iterable[Tuple[int, int, bool, bool]]) -> "IntervalSet":
        """The union of the intervals from lo/D to hi/D, one ``(lo, hi,
        lo_closed, hi_closed)`` per range, over the lattice ``D >= 1``:
        overlapping or touching ranges merge, in any order. ValueError on an
        empty or inverted range, even one another range covers. Canonical
        ranges, whose cuts already strictly increase, are neither sorted nor
        merged. Its parts are decoded on first read."""
        if D < 1:
            raise ValueError(f"lattice D must be positive, got {D}")
        cuts = [(2 * lo + (not lo_closed), 2 * hi + hi_closed)
                for lo, hi, lo_closed, hi_closed in ranges]
        try:
            return _decode(cuts, D)  # one strict-increase pass checks canonical input
        except ValueError:
            pass
        if not all(starmap(lt, cuts)):
            lo, hi = next(r for r in cuts if r[0] >= r[1])
            raise ValueError(f"empty or inverted range from {Fraction(lo >> 1, D)} "
                             f"to {Fraction(hi >> 1, D)}")
        return _decode(_merge(cuts), D)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        D, cuts = self._lattice
        return _decode, (cuts, D)

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
        (d, a), (e, b) = self._lattice, other._lattice
        if len(a) != len(b):
            return False
        if d != e:  # canonical cut lists over one D are equal exactly when the sets are
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
        return not self._lattice[1]

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
        return _reduced(sum(hi >> 1 for _, hi in cuts) - sum(lo >> 1 for lo, _ in cuts), D)

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
        scale, shift = as_fraction(scale), as_fraction(shift)
        a, q = scale._numerator, scale._denominator
        t, r = shift._numerator, shift._denominator
        if not a:
            raise ValueError("scale must be nonzero")
        d, cuts = self._lattice
        D = lcm(d * q, r)
        k = a * (D // (d * q))
        move = 2 * t * (D // r)
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
        if rr._numerator <= 0:
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
        """Place x = p/q on the lattice D by one ``divmod(p*D, q) = (y, r)``:
        x is the lattice point y when r is 0 and lies strictly between y and
        y + 1 otherwise, so it orders against every cut as the cut
        ``2y + (r != 0)`` does. Bisect the start cuts for it."""
        x = as_fraction(x)
        D, cuts = self._lattice
        y, r = divmod(x._numerator * D, x._denominator)
        cut = 2 * y + (r != 0)
        i = bisect_right(cuts, cut, key=_START)
        return i > 0 and cut < cuts[i - 1][1]

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


#: Setters of the IntervalSet slots that bypass its frozen ``__setattr__``.
_set_parts, _set_lattice = (vars(IntervalSet)[name].__set__ for name in IntervalSet.__slots__)


#: Setters of the Interval slots, which bypass its frozen ``__setattr__``.
_set_lo, _set_hi, _set_lo_closed, _set_hi_closed = (vars(Interval)[f.name].__set__
                                                    for f in fields(Interval))


def _part(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> Interval:
    """An Interval built without ``__post_init__``, for a shape already
    checked: the one unchecked builder, which sets the four slots directly."""
    part = object.__new__(Interval)
    _set_lo(part, lo)
    _set_hi(part, hi)
    _set_lo_closed(part, lo_closed)
    _set_hi_closed(part, hi_closed)
    return part


# This module reads and writes Fraction's two slots directly; checked once here.
if Fraction.__slots__ != ("_numerator", "_denominator"):
    raise ImportError(f"affcopy.intervals needs Fraction's slots _numerator and "
                      f"_denominator, this Python's Fraction has {Fraction.__slots__!r}")


def _reduced(n: int, d: int) -> Fraction:
    """The Fraction n/d for ints n and d > 0, built without the constructor:
    the one unchecked Fraction builder, which divides both by their gcd and
    stores them in the two slots ``_numerator`` and ``_denominator`` (checked
    at import) with plain attribute stores, as ``Fraction``'s own arithmetic
    does with ints it knows to be coprime."""
    g = gcd(n, d)
    x = object.__new__(Fraction)
    x._numerator = n // g
    x._denominator = d // g
    return x


# -- the JSON report format -----------------------------------------------------

class Report:
    """Base of every JSON report dataclass.

    ``to_json_dict`` writes the fields in declaration order, each under its
    own name or under ``field(metadata={"json": key})`` (a key of None leaves
    the field out), and ends with ``"pass"`` when the class defines
    ``passed``. Values are written in their text form: a Fraction as
    ``p/q``, an Interval as ``(lo,hi)``, an IntervalSet as a list of interval
    strings, a tuple as a list and a nested report as its dict. A value
    whose decimal text is longer than ``str()`` writes (4,300 digits by
    default) is refused with a ValueError naming the report and the field.
    """

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            if key is not None:
                try:
                    out[key] = _json_value(getattr(self, f.name))
                except _Unprintable:
                    raise  # a nested report named its own field
                except ValueError as err:  # str() of an int past the digit limit
                    raise _Unprintable(f"report {type(self).__name__}, field {key}: "
                                       f"value too long to print ({err})") from None
        if hasattr(type(self), "passed"):
            out["pass"] = self.passed
        return out


class _Unprintable(ValueError):
    """A report value too long for ``str()``, named by its report and field."""


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


def _encode(parts: Iterable[Interval]) -> Tuple[int, _Cuts]:
    """The lcm D of the endpoint denominators (1 for no parts) and the cut
    ranges over D, in one streaming pass that reads each endpoint's ratio
    once: a part is encoded over the lcm so far, and each run of parts
    encoded before the lcm grew is carried to D at the end."""
    D = 1
    cuts: _Cuts = []
    runs = []  # (end of a run, the lattice its parts were encoded over)
    for p in parts:
        a, b = p.lo._numerator, p.lo._denominator
        c, e = p.hi._numerator, p.hi._denominator
        if D % b or D % e:
            runs.append((len(cuts), D))
            D = lcm(D, b, e)
        cuts.append((2 * a * (D // b) + (not p.lo_closed), 2 * c * (D // e) + p.hi_closed))
    start = 0
    for end, d in runs:  # as _rescale would, but in place: no second list
        k2 = 2 * (D // d)
        for i in range(start, end):
            lo, hi = cuts[i]
            cuts[i] = ((lo >> 1) * k2 | lo & 1, (hi >> 1) * k2 | hi & 1)
        start = end
    return D, cuts


def _increasing(cuts: _Cuts) -> bool:
    """Whether the cuts strictly increase: every range is nonempty and starts
    above the end of the range before it."""
    if cuts:
        end = cuts[0][0] - 1
        for start, stop in cuts:
            if start <= end or stop <= start:
                return False
            end = stop
    return True


def _decode(cuts: _Cuts, D: int) -> IntervalSet:
    """The set of canonical cut ranges, its parts left to decode on first
    read; ValueError unless the cuts strictly increase (an empty range, or
    neighbours that overlap or should merge)."""
    if not _increasing(cuts):
        raise ValueError("kernel result is not a canonical cut list")
    out = object.__new__(IntervalSet)
    _set_parts(out, None)
    _set_lattice(out, (D, cuts))
    return out


def _decode_part(lo: int, hi: int, D: int) -> Interval:
    """The part of the cut range ``[lo, hi)`` over D."""
    return _part(_reduced(lo >> 1, D), _reduced(hi >> 1, D), not lo & 1, bool(hi & 1))


def _rescale(cuts: _Cuts, k: int) -> _Cuts:
    """Cut ranges over D carried to the lattice D*k: 2xD + f becomes 2xDk + f."""
    if k == 1:
        return cuts
    k2 = 2 * k
    return [((lo >> 1) * k2 | lo & 1, (hi >> 1) * k2 | hi & 1) for lo, hi in cuts]


def _aligned(sets: Iterable[IntervalSet],
             shifts: Iterable[RationalLike] = ()) -> Tuple[int, list, list]:
    """The lcm D of the sets' lattices and the shifts' denominators, each
    set's cuts carried to D (a set already on D as it is), and each shift t,
    read from its slots, as the cut move ``2tD``."""
    lattices = [s._lattice for s in sets]
    shifts = [as_fraction(t) for t in shifts]
    D = lcm(*(d for d, _ in lattices), *(t._denominator for t in shifts))
    return (D, [cuts if d == D else _rescale(cuts, D // d) for d, cuts in lattices],
            [2 * t._numerator * (D // t._denominator) for t in shifts])


def _sweep(sweep: Callable[..., _Cuts], *sets: IntervalSet) -> IntervalSet:
    """Run ``sweep`` on the sets' cut lists, each carried to the lcm D of
    their lattices, and check its result."""
    D, cuts, _ = _aligned(sets)
    return _decode(sweep(*cuts), D)


def _merge(*groups: _Cuts) -> _Cuts:
    """The one sort-and-sweep: fuse overlapping or adjacent cut ranges."""
    ranges = sorted(chain(*groups))
    if not ranges:
        return []
    merged: _Cuts = []
    lo, hi = ranges[0]  # the open range
    for start, end in ranges:
        if start > hi:
            merged.append((lo, hi))
            lo, hi = start, end
        elif end > hi:
            hi = end
    merged.append((lo, hi))
    return merged


def _translate_runs(cuts: _Cuts, moves: Iterable[int]) -> _Cuts:
    """Cut ranges whose union is the union of the ranges' translates by
    every move, one per run of chained translates.

    With the distinct moves sorted, the translates of ``[lo, hi)`` by two
    neighbouring moves overlap or touch exactly when their step is at most
    the width ``hi - lo``, whatever the flags, so each stretch of moves
    whose steps all are at most it gives one run, from lo plus its first
    move to hi plus its last. The steps are sorted once, and a range's
    breaks, the steps wider than it, are one bisect of them: O(M log M +
    R log M) time and O(M + R) memory for M moves and R runs.
    """
    moves = sorted(set(moves))
    if not moves:
        return []
    steps = list(map(sub, moves[1:], moves))  # steps[i] leads from move i to move i + 1
    order = sorted(range(len(steps)), key=steps.__getitem__)
    widths = [steps[i] for i in order]
    runs: _Cuts = []
    for lo, hi in cuts:
        ends = [-1, *sorted(order[bisect_right(widths, hi - lo):]), len(moves) - 1]
        runs += [(lo + moves[a + 1], hi + moves[b]) for a, b in zip(ends, ends[1:])]
    return runs


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
    D, cuts = _encode(intervals)
    return _decode(_merge(cuts), D)


def union_all(sets: Iterable[IntervalSet]) -> IntervalSet:
    """Union of many canonical sets in one sort-and-sweep pass."""
    return _sweep(_merge, *sets)


def union_of_translates(s: IntervalSet, shifts: Iterable[RationalLike]) -> IntervalSet:
    """Union of the translates s + t over all shifts, in one sort-and-sweep
    of the runs ``_translate_runs`` chains each part's translates into."""
    D, (cuts,), moves = _aligned((s,), shifts)
    return _decode(_merge(_translate_runs(cuts, moves)), D)


def intersection_of_translates(s: IntervalSet, shifts: Iterable[RationalLike],
                               within: IntervalSet) -> IntervalSet:
    """``within`` intersected with every translate s + t.

    With H the smallest interval holding s (from its first part's start to
    its last part's end, flags kept) and G = H minus s the gaps between its
    parts, x lies in s + t exactly when it lies in H + t and in no G + t. So
    the result is ``within`` intersected with every H + t, one interval,
    minus one sort-and-sweep union of the translates G + t, chained into
    runs by ``_translate_runs``: no intersection per shift. No shifts leave
    ``within``; an empty s with shifts gives the empty set. D is the lcm of
    both operands' lattices and every shift's denominator.
    """
    D, (cuts, out), moves = _aligned((s, within), shifts)
    if not moves:
        return _decode(out, D)
    if not cuts:
        return _decode([], D)
    lo, hi = cuts[0][0] + max(moves), cuts[-1][1] + min(moves)
    if lo >= hi:
        return _decode([], D)
    gaps = [(end, start) for (_, end), (start, _) in zip(cuts, cuts[1:])]
    covered = _merge(_translate_runs(gaps, moves))
    return _decode(_difference(_intersect(out, [(lo, hi)]), covered), D)
