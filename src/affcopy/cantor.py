"""Gap-ladder construction: repeatedly delete an oracle-chosen open interval
from the middle third of every remaining closed interval of [0,1].

Level n deletes 2^(n-1) open gaps of one common length l_n (1/l_n a positive
integer, l_n at most half the previous length), leaving 2^n closed remnants.
The oracle supplies, for any closed interval K, an open subinterval of the
closed middle third of K that misses the oracle's target set; three concrete
oracles are provided (empty target, the classical ternary middle-thirds set,
and finite point sets). Oracles answer on ints: K's ends and the gap's ends
pass as numerator and denominator pairs, so the construction turns only the
shrunk gaps into Fractions. Verification replays every structural claim of
the construction exactly, on the ends of every level read once as ints over
one lattice D; its set-valued claims hand the interval kernel sets built from
those ints. The truncated cover report measures how much of the level-N
remnant skeleton the left neighborhoods of deeper gaps fail to reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

from affcopy.intervals import (EMPTY, Interval, IntervalSet, RationalLike, Report,
                               as_fraction, union_all)

UNIT = Interval.closed(0, 1)
TWO_THIRDS = Fraction(2, 3)

#: Deepest ladder :func:`build_cantor` runs. Level n holds 2^n remnants, so time
#: and memory double per level: on a 2-core VM (Python 3.11) a depth-16 middle-third
#: ladder builds in 1.1-1.6 s at 55 MB peak RSS and verifies (k_max 4, a 135-bit
#: lattice D) in 0.7-0.8 s more at 111 MB; ``cantor-build --depth 16`` takes 2.2-2.7 s
#: and 125 MB, and ``cantor-verify --depth 16 --kmax 4`` 2.1-2.8 s and 111 MB.
#: Deeper requests are refused before anything is built.
MAX_DEPTH = 16


class OracleViolationError(ValueError):
    """An oracle broke its contract while building level n, gap j."""

    def __init__(self, n: int, j: int, reason: str):
        super().__init__(f"oracle violation at level {n}, gap {j}: {reason}")
        self.n = n
        self.j = j
        self.reason = reason


def middle_third(k: Interval) -> Interval:
    """Closed middle third [(2lo + hi)/3, (lo + 2hi)/3] of a closed interval."""
    a, b, c, d = k.lo.numerator, k.lo.denominator, k.hi.numerator, k.hi.denominator
    den = 3 * b * d
    return Interval(Fraction(2 * a * d + c * b, den), Fraction(a * d + 2 * c * b, den),
                    True, True)


def _middle_ninth(a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int]:
    """The open middle ninth ((5lo + 4hi)/9, (4lo + 5hi)/9) of K = [a/b, c/d], as gap ends."""
    den = 9 * b * d
    return 5 * a * d + 4 * c * b, den, 4 * a * d + 5 * c * b, den


# ---------------------------------------------------------------------------
# gap oracles
# ---------------------------------------------------------------------------

class GapOracle:
    """Contract: given a closed interval K, return an open rational interval
    inside the closed middle third of K and disjoint from the target set.
    The same K must always yield the same interval.

    An oracle answers on ints. :meth:`gap_ends` takes K = [a/b, c/d] as
    ``(a, b, c, d)`` with b, d > 0 and returns the open gap (p/q, r/s) as
    ``(p, q, r, s)`` with q, s > 0, not necessarily reduced; :meth:`avoids`
    takes an interval from p/q to r/s (q, s > 0) as ``(p, q, r, s)`` and its
    end flags. Each oracle implements both once.
    """

    name = "oracle"

    def gap_ends(self, a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def avoids(self, p: int, q: int, r: int, s: int, lo_closed: bool,
               hi_closed: bool) -> bool:
        """Whether the interval is disjoint from the target set."""
        raise NotImplementedError


class MiddleThirdOracle(GapOracle):
    """Target set is empty; the gap is the open middle third of the closed
    middle third of K (the open middle ninth, centered)."""

    name = "middle-third"

    gap_ends = staticmethod(_middle_ninth)

    def avoids(self, p: int, q: int, r: int, s: int, lo_closed: bool,
               hi_closed: bool) -> bool:
        return True


class TernaryCantorOracle(GapOracle):
    """Target set is the classical middle-thirds set.

    Inside the middle third of K, locate a full ternary block [i/3^g,
    (i+1)/3^g] (taking the smallest g whose blocks fit twice over) and return
    its open middle third, which is deleted from the target no matter whether
    the block survives. Only meaningful for K inside [0,1].
    """

    name = "ternary-cantor"

    def gap_ends(self, a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int]:
        den = 3 * b * d  # the middle third is [u/den, v/den]
        u, v = 2 * a * d + c * b, a * d + 2 * c * b
        if v <= u:  # no block fits, however small
            raise ValueError(f"K = [{Fraction(a, b)},{Fraction(c, d)}] is degenerate")
        width = 1  # 3^g: blocks of length 1/3^g fit twice when 2 den <= (v - u) 3^g
        while 2 * den > (v - u) * width:
            width *= 3
        i = -(-u * width // den)  # the first block starting in the middle third
        if (i + 1) * den > v * width:
            raise RuntimeError(f"ternary block at {Fraction(i, width)} leaves middle third "
                               f"{Interval(Fraction(u, den), Fraction(v, den), True, True)}")
        return 3 * i + 1, 3 * width, 3 * i + 2, 3 * width

    def avoids(self, p: int, q: int, r: int, s: int, lo_closed: bool,
               hi_closed: bool) -> bool:
        if r < 0 or p > q or (r == 0 and not hi_closed) or (p == q and not lo_closed):
            return True  # off [0,1], or meeting it only at an open end
        # an interval meeting [0,1] misses the target only inside one deleted
        # middle third, the one holding its midpoint. Follow the ternary block
        # [i/w, (i+1)/w] holding the midpoint, as y/den rescaled to the block,
        # until y falls strictly inside the block's middle third; a member's
        # orbit stays in the outer thirds and repeats
        y, den = p * s + r * q, 2 * q * s
        i, w, seen = 0, 1, set()
        while 0 < y < den and y not in seen:
            seen.add(y)
            if 3 * y <= den:
                y, i = 3 * y, 3 * i
            elif 3 * y >= 2 * den:
                y, i = 3 * y - 2 * den, 3 * i + 2
            else:  # the gap ((3i + 1)/3w, (3i + 2)/3w): compare its ends with p/q and r/s
                past_lo = 3 * w * p - (3 * i + 1) * q
                short_of_hi = (3 * i + 2) * s - 3 * w * r
                return ((past_lo > 0 or (past_lo == 0 and not lo_closed))
                        and (short_of_hi > 0 or (short_of_hi == 0 and not hi_closed)))
            w *= 3
        return False


class FinitePointsOracle(GapOracle):
    """Target set is a finite set of rationals. The gap is the open middle
    third of the longest point-free stretch of the middle third of K
    (leftmost on ties); with no point strictly inside, that is the middle
    ninth of K, given as the middle-third oracle's ints over 9bd.

    The sorted points are kept also as ``(numerator, denominator)`` pairs,
    and both methods scan all of them, comparing by cross-multiplication.
    """

    name = "finite-points"

    def __init__(self, points: "tuple[RationalLike, ...]"):
        self.points = tuple(sorted(as_fraction(p) for p in points))
        self._pairs = tuple((p.numerator, p.denominator) for p in self.points)

    def gap_ends(self, a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int]:
        den = 3 * b * d  # the middle third is [u/den, v/den]
        u, v = 2 * a * d + c * b, a * d + 2 * c * b
        stops = [(u, den), *((p, q) for p, q in self._pairs if u * q < p * den < v * q), (v, den)]
        if len(stops) == 2:  # no point inside: the middle-third oracle's ints, over 9bd
            return _middle_ninth(a, b, c, d)
        # the stretch from p/q to r/s has length (rq - ps)/(qs); keep the first longest
        best, num, dnm = 0, -1, 1
        for i, ((p, q), (r, s)) in enumerate(zip(stops, stops[1:])):
            if (r * q - p * s) * dnm > num * q * s:
                best, num, dnm = i, r * q - p * s, q * s
        (p, q), (r, s) = stops[best:best + 2]
        qs = 3 * q * s  # its middle third is ((2p/q + r/s)/3, (p/q + 2r/s)/3)
        return 2 * p * s + r * q, qs, p * s + 2 * r * q, qs

    def avoids(self, p: int, q: int, r: int, s: int, lo_closed: bool,
               hi_closed: bool) -> bool:
        # a point x/y in [p/q, r/s] misses the interval only on an open end
        return all((not lo_closed and x * q == p * y) or (not hi_closed and x * s == r * y)
                   for x, y in self._pairs if p * y <= x * q and x * s <= r * y)


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorLevel(Report):
    """Level n of the ladder: the gaps deleted at this level (left to right,
    all of length gap_length) and the closed remnants left afterwards."""

    n: int
    gap_length: Fraction = field(metadata={"json": "l"})
    gaps: Tuple[Interval, ...]
    remnants: Tuple[Interval, ...]


@dataclass(frozen=True)
class CantorConstruction(Report):
    depth: int
    levels: Tuple[CantorLevel, ...]

    def gap(self, n: int, j: int) -> Interval:
        """The j-th gap of level n (1-based, left to right)."""
        return self.levels[n - 1].gaps[j - 1]

    def remnant(self, n: int, j: int) -> Interval:
        """The j-th closed remnant after level n; level 0 is [0,1] itself."""
        if n == 0:
            if j != 1:
                raise IndexError("level 0 has a single remnant")
            return UNIT
        return self.levels[n - 1].remnants[j - 1]

    def gap_length(self, n: int) -> Fraction:
        return self.levels[n - 1].gap_length

    def open_set(self, n: int) -> IntervalSet:
        """The union of the level-n gaps."""
        return IntervalSet(self.levels[n - 1].gaps)

    def remnant_set(self, n: int) -> IntervalSet:
        if n == 0:
            return IntervalSet((UNIT,))
        return IntervalSet(self.levels[n - 1].remnants)

    def open_sets_through(self, n: int) -> IntervalSet:
        """Union of all gaps of levels 1..n."""
        return union_all([self.open_set(i) for i in range(1, n + 1)])


def build_cantor(oracle: GapOracle, depth: int) -> CantorConstruction:
    """Run the ladder to the given depth.

    Each level queries the oracle once per remnant, takes the largest
    reciprocal-of-integer length not exceeding half the previous level's
    length nor any oracle gap, and shrinks every oracle gap to its centered
    subinterval of that length.

    The per-remnant work runs on the endpoints' numerators and denominators,
    and the oracle answers on ints (:meth:`GapOracle.gap_ends` and
    :meth:`GapOracle.avoids`), so an oracle gap becomes neither Fractions nor
    an Interval unless it breaks the contract. For an oracle gap (p/q, r/s)
    in K = [lo, hi], the containment in the closed middle third is
    3p/q >= 2lo + hi and 3r/s <= lo + 2hi, cross-multiplied; the level length
    is 1/M with M the larger of twice the previous level's M and every
    ceil(qs / (rq - ps)); and the shrunk gap's ends are ((ps + rq)M -+ qs) /
    (2qsM), one Fraction each. A gap over one denominator (q = s, as every
    oracle here answers) never forms qs: its bound is ceil(q / (r - p)) and
    its ends ((p + r)M -+ q) / (2qM).
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    remnants: Tuple[Interval, ...] = (UNIT,)
    levels = []
    m = 0  # 1/m is the previous level's gap length; no bound before level 1
    for n in range(1, depth + 1):
        raw = []
        m *= 2
        for j, k in enumerate(remnants, 1):
            a, b, c, d = k.lo.numerator, k.lo.denominator, k.hi.numerator, k.hi.denominator
            p, q, r, s = oracle.gap_ends(a, b, c, d)
            if q <= 0 or s <= 0:
                raise OracleViolationError(
                    n, j, f"gap ends {(p, q, r, s)} need positive denominators")
            # |gap| = width/qs and its midpoint is mid/(2qs); one denominator q = s is not squared
            width, mid, qs = (r - p, p + r, q) if q == s else (r * q - p * s, p * s + r * q, q * s)
            if width <= 0:
                raise OracleViolationError(n, j, f"gap {_gap(p, q, r, s)} is not a "
                                                 "nondegenerate open interval")
            if 3 * p * b * d < (2 * a * d + c * b) * q or 3 * r * b * d > (a * d + 2 * c * b) * s:
                raise OracleViolationError(n, j, f"gap {_gap(p, q, r, s)} leaves the closed "
                                                 f"middle third {middle_third(k)} of {k}")
            if not oracle.avoids(p, q, r, s, False, False):
                raise OracleViolationError(n, j, f"gap {_gap(p, q, r, s)} meets the target set")
            m = max(m, -(-qs // width))
            raw.append((mid, qs))
        gaps = []
        next_remnants = []
        for k, (mid, qs) in zip(remnants, raw):
            den = 2 * qs * m
            shrunk = Interval(Fraction(mid * m - qs, den), Fraction(mid * m + qs, den),
                              False, False)
            gaps.append(shrunk)
            next_remnants.append(Interval(k.lo, shrunk.lo, True, True))
            next_remnants.append(Interval(shrunk.hi, k.hi, True, True))
        remnants = tuple(next_remnants)
        levels.append(CantorLevel(n=n, gap_length=Fraction(1, m), gaps=tuple(gaps),
                                  remnants=remnants))
    return CantorConstruction(depth=depth, levels=tuple(levels))


def _gap(p: int, q: int, r: int, s: int) -> str:
    """The open gap (p/q, r/s) as ``str`` writes an open Interval, for a
    violation message (a reversed gap makes no Interval)."""
    return f"({Fraction(p, q)},{Fraction(r, s)})"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport(Report):
    depth: int
    k_max: int
    checks_run: int
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _on_lattice(groups: list) -> Tuple[int, list]:
    """The lcm D of the denominators of the rationals in ``groups`` (lists of
    Fractions), and each group as the ints x*D, with one quotient D // d per
    distinct denominator d; each Fraction's ratio is read once."""
    pairs = [[x.as_integer_ratio() for x in group] for group in groups]
    dens = {d for group in pairs for _, d in group}
    D = math.lcm(*dens)
    scale = {d: D // d for d in dens}
    return D, [[n * scale[d] for n, d in group] for group in pairs]


def _set_claims(levels: Tuple[CantorLevel, ...], D: int, ends: list) -> Tuple[list, list]:
    """The set-valued claims of :func:`verify_cantor`, through the interval
    kernel: the violation naming each pair of levels whose gap closures
    meet, and for each level n whether [0,1] minus the gaps of levels 1..n is
    the union of the level-n remnants.

    Every set is built by :meth:`IntervalSet.from_ends` on the verifier's
    lattice D: ``ends`` holds, level after level, the lists of its gaps'
    inf, gaps' sup, remnants' inf and remnants' sup as ints x*D. The
    constructor merges parts out of order or overlapping; that hides nothing,
    since such a gap tuple fails the shape check, and such a remnant tuple
    the child indexing, closedness or count checks."""

    def union_of(parts: Tuple[Interval, ...], los: list, his: list) -> IntervalSet:
        return IntervalSet.from_ends(D, [(lo, hi, p.lo_closed, p.hi_closed)
                                         for p, lo, hi in zip(parts, los, his)])

    def meeting() -> list:
        # closures of different levels are disjoint. Within a level they are
        # (each closure set is canonical), so the union of all of them has as
        # many parts as they have together exactly when no two levels'
        # closures meet; the pairwise pass runs only to name the pairs that
        # do. The closures are freed before the decomposition runs
        closures = [IntervalSet.from_ends(D, [(lo, hi, True, True) for lo, hi in zip(los, his)])
                    for _, los, his in zip(levels, ends[0::4], ends[1::4])]
        if len(union_all(closures)) == sum(map(len, closures)):
            return []
        return [f"closures of level {n} and level {m} gap unions intersect"
                for n in range(1, len(levels) + 1) for m in range(n + 1, len(levels) + 1)
                if not closures[n - 1].intersect(closures[m - 1]).is_empty]

    meeting_pairs = meeting()
    unit = IntervalSet.from_ends(D, [(0, D, True, True)])
    decomposed, gaps_through = [], EMPTY
    for lv, gap_lo, gap_hi, rem_lo, rem_hi in zip(levels, ends[0::4], ends[1::4], ends[2::4],
                                                  ends[3::4]):
        gaps_through = gaps_through.union(union_of(lv.gaps, gap_lo, gap_hi))
        decomposed.append(unit.difference(gaps_through) == union_of(lv.remnants, rem_lo, rem_hi))
    return meeting_pairs, decomposed


def verify_cantor(construction: CantorConstruction, k_max: int) -> InvariantReport:
    """Re-check every structural claim of the ladder, exactly.

    Covers the per-level shape (counts, equal gap lengths, disjoint closures,
    halving reciprocal lengths), the cross-level disjointness of gap
    closures, the remnant decomposition of [0,1], the remnant-size bound
    (2/3)^n, the child indexing, the monotone right-edge approach
    sup K(n,j) - inf K(n+k, 2^k j) < (2/3)^(n+k) for k up to k_max, and the
    per-gap left-neighborhood coverage of [inf parent, sup gap).

    Every claim is decided on ints: every endpoint and gap length x is read
    once as x*D, with D the lcm of all their denominators. The set-valued
    claims (cross-level disjointness, the decomposition) run through the
    interval kernel, on sets built from those ints on the lattice D. Each x*D is then an integer, and x -> x*D is
    strictly increasing and linear, so the ints order, differ and sum exactly
    as the Fractions do: equal lengths compare differences of ints, and the
    remnant bound len < (2/3)^n reads 3^n (hi - lo) < 2^n D. Messages print
    the original Fractions. The coverage claim is one of these, checked in
    closed form. Let the gap have ends a and b and its parent ends lo < hi, so
    r = (2/3)(hi - lo) > 0. The left r-neighborhood of the gap is (a - r, b),
    closed at b when the gap is, and the target [lo, b) is nonempty exactly
    when lo < b. The neighborhood then contains the target exactly when
    a - r < lo, that is 3a < lo + 2hi: strict because the neighborhood is
    open at a - r and the target closed at lo, and blind to the flag at b
    because the target is open there. A degenerate parent (r = 0) and a gap
    ending at or before lo each get a violation of their own, and so do a
    depth that disagrees with the number of levels and a level numbered off
    its place; every check reads the levels by place.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    c = construction
    violations = []
    checks = 0

    def flag(msg: str) -> None:
        violations.append(msg)

    # the checks below walk the levels that are there
    depth = min(c.depth, len(c.levels))
    if c.depth != len(c.levels):
        flag(f"depth {c.depth} but {len(c.levels)} levels")

    # the gap lengths, then each level's gap and remnant ends, as ints over
    # one lattice D: gap_lo[n][j-1] is inf of gap (n,j) times D, and
    # rem_lo[n][j-1] inf K(n,j) times D
    groups = [[lv.gap_length for lv in c.levels]]
    for lv in c.levels:
        groups += ([g.lo for g in lv.gaps], [g.hi for g in lv.gaps],
                   [r.lo for r in lv.remnants], [r.hi for r in lv.remnants])
    D, (lengths, *ends) = _on_lattice(groups)
    meeting, decomposed = _set_claims(c.levels[:depth], D, ends)
    gap_lo, gap_hi = [None] + ends[0::4], [None] + ends[1::4]
    rem_lo, rem_hi = [[0]] + ends[2::4], [[D]] + ends[3::4]
    # the bound (2/3)^n over D is 2^n D / 3^n
    threes = [3 ** n for n in range(depth + 1)]
    twos_D = [2 ** n * D for n in range(depth + 1)]

    # per-level shape
    for n, lv in enumerate(c.levels, 1):
        checks += 1
        if lv.n != n:
            flag(f"level {n} is numbered {lv.n}")
        if len(lv.gaps) != 2 ** (n - 1):
            flag(f"level {n}: expected {2 ** (n - 1)} gaps, found {len(lv.gaps)}")
        if len(lv.remnants) != 2 ** n:
            flag(f"level {n}: expected {2 ** n} remnants, found {len(lv.remnants)}")
        length = lengths[n - 1]
        if lv.gap_length.numerator != 1:  # denominators are positive: 1/m > 0
            flag(f"level {n}: gap length {lv.gap_length} is not a unit fraction")
        if n > 1 and 2 * length > lengths[n - 2]:
            flag(f"level {n}: gap length {lv.gap_length} exceeds half of "
                 f"{c.levels[n - 2].gap_length}")
        los, his = gap_lo[n], gap_hi[n]
        for j, (g, lo, hi) in enumerate(zip(lv.gaps, los, his), 1):
            checks += 1
            if g.lo_closed or g.hi_closed:
                flag(f"level {n} gap {j}: {g} is not open")
            if hi - lo != length:
                flag(f"level {n} gap {j}: length {g.length} != {lv.gap_length}")
        for j, (hi, lo) in enumerate(zip(his, los[1:]), 1):
            checks += 1
            if hi >= lo:
                flag(f"level {n}: closures of gaps {j} and {j + 1} meet")

    # closures of different levels are disjoint (decided by _set_claims)
    checks += depth * (depth - 1) // 2
    violations += meeting

    # remnant decomposition and size bound
    rems = [(UNIT,)] + [lv.remnants for lv in c.levels[:depth]]  # rems[n][j-1] is K(n,j)
    for n in range(1, depth + 1):
        checks += 1
        if not decomposed[n - 1]:  # decided by _set_claims
            flag(f"level {n}: [0,1] minus gaps does not equal the remnant union")
        for j, (r, lo, hi) in enumerate(zip(rems[n], rem_lo[n], rem_hi[n]), 1):
            checks += 1
            if not (r.lo_closed and r.hi_closed):
                flag(f"level {n} remnant {j}: {r} is not closed")
            if threes[n] * (hi - lo) >= twos_D[n]:
                flag(f"level {n} remnant {j}: length {r.length} >= (2/3)^{n}")

    # child indexing
    for n in range(0, depth):
        kids_lo, kids_hi = rem_lo[n + 1], rem_hi[n + 1]
        for j, (lo, hi, left_lo, left_hi, right_lo, right_hi) in enumerate(zip(
                rem_lo[n][:2 ** n], rem_hi[n][:2 ** n], kids_lo[0::2], kids_hi[0::2],
                kids_lo[1::2], kids_hi[1::2]), 1):
            checks += 1
            if not (lo == left_lo and left_hi < right_lo and right_hi == hi):
                left, right = rems[n + 1][2 * j - 2:2 * j]
                flag(f"children of remnant ({n},{j}) misplaced: {left}, {right}")

    # monotone approach of descendant left edges to the parent's right edge
    for n in range(1, depth):
        for j, top in enumerate(rem_hi[n][:2 ** n], 1):
            prev_inf = None
            for k in range(1, min(k_max, depth - n) + 1):
                if (2 ** k) * j > len(rem_lo[n + k]):
                    break  # a short level; the shape check flags its count
                checks += 1
                inf_k = rem_lo[n + k][(2 ** k) * j - 1]
                if prev_inf is not None and inf_k < prev_inf:
                    flag(f"inf of rightmost descendant of ({n},{j}) decreased at k={k}")
                prev_inf = inf_k
                if threes[n + k] * (top - inf_k) >= twos_D[n + k]:
                    flag(f"remnant ({n},{j}): sup - inf of level-{n + k} rightmost "
                         f"descendant is not below (2/3)^{n + k}")

    # left neighborhood of each gap covers [inf parent, sup gap), in the
    # closed form 3a < lo + 2hi of the docstring
    for n in range(1, depth + 1):
        count = 2 ** (n - 1)
        for j, (lo, hi, a, b) in enumerate(zip(rem_lo[n - 1][:count], rem_hi[n - 1][:count],
                                               gap_lo[n][:count], gap_hi[n][:count]), 1):
            checks += 1
            if not lo < hi:
                flag(f"level {n} gap {j}: parent {rems[n - 1][j - 1]} is degenerate")
            elif not lo < b:
                flag(f"level {n} gap {j}: {c.gap(n, j)} ends at or before inf parent "
                     f"{rems[n - 1][j - 1].lo}")
            elif 3 * a >= lo + 2 * hi:
                flag(f"level {n} gap {j}: left 2/3|K|-neighborhood misses "
                     f"[{rems[n - 1][j - 1].lo},{c.gap(n, j).hi})")

    return InvariantReport(depth=c.depth, k_max=k_max, checks_run=checks,
                           violations=tuple(violations))


@dataclass(frozen=True)
class CoverReport(Report):
    """How much of the level-N half-open remnant skeleton the left
    (2/3)^n-neighborhoods of gap levels N+1..N+k_max fail to cover."""

    N: int
    k_max: int
    uncovered: IntervalSet
    uncovered_measure: Fraction
    enclosure_ok: bool
    bound: Fraction
    within_bound: bool

    @property
    def passed(self) -> bool:
        return self.enclosure_ok and self.within_bound


def truncated_union_cover(construction: CantorConstruction, N: int,
                          k_max: int) -> CoverReport:
    """Compute the remainder of the star skeleton at level N not reached by
    the left (2/3)^n-neighborhoods of levels N+1 .. N+k_max.

    The remainder must sit inside the right-edge slivers
    [inf K(N+k_max, 2^k_max j), sup K(N,j)), so its measure stays below
    2^N * (2/3)^(N+k_max). A pair whose bound is not below the skeleton's
    own measure is refused (ValueError), since no remainder could exceed it.
    """
    c = construction
    if N < 1 or k_max < 1:
        raise ValueError("N and k_max must be positive")
    if N + k_max > c.depth:
        raise ValueError(f"depth {c.depth} insufficient for N={N}, k_max={k_max}")
    skeleton = c.remnant_set(N).star()
    bound = (2 ** N) * TWO_THIRDS ** (N + k_max)
    if bound >= skeleton.measure():
        raise ValueError(f"vacuous cover bound: N={N}, k_max={k_max} give 2^N (2/3)^(N+k_max) "
                         f"= {bound}, not below the skeleton measure {skeleton.measure()}")
    covered = union_all([
        c.open_set(n).left_neighborhood(TWO_THIRDS ** n)
        for n in range(N + 1, N + k_max + 1)
    ])
    remainder = skeleton.difference(covered)
    enclosure = IntervalSet(tuple(
        Interval.half_open(c.remnant(N + k_max, (2 ** k_max) * j).lo, c.remnant(N, j).hi)
        for j in range(1, 2 ** N + 1)
    ))
    measure = remainder.measure()
    return CoverReport(
        N=N,
        k_max=k_max,
        uncovered=remainder,
        uncovered_measure=measure,
        enclosure_ok=enclosure.issuperset(remainder),
        bound=bound,
        within_bound=measure < bound,
    )
