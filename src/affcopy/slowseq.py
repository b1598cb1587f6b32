"""The slowly decreasing interpolation sequence and its coverage checks.

From a family of per-window gap-length tables, take the fastest-decaying
envelope mu_n, lay out breakpoints N_n with N_n - N_(n-1) = 1/mu_n, and
interpolate linearly from 1/n down to 1/(n+1) across each block. The
resulting sequence alpha_m decreases strictly with non-increasing steps, so a
union of left-translates of an interval splits at a computable threshold
index into a disjoint head and a single overlapping tail. The coverage
operations replay, at finite depth, how these translates blanket [0,1) when
driven by a gap-ladder construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from affcopy.intervals import (Interval, IntervalSet, RationalLike, Report, as_fraction,
                               intersection_of_translates,
                               normalize,  # unused here; perfbench's tests read slowseq.normalize
                               union_of_translates)

if TYPE_CHECKING:
    from affcopy.cantor import CantorConstruction


#: Longest horizon a sequence is materialized or validated over. Cost grows
#: linearly with it: on a 2-core VM (Python 3.11) at horizon 250,000,
#: ``avoider-build --beta iterlog:1 --depth 2`` takes 3.2 s and 80 MB peak RSS
#: (13.8 s and 275 MB at 10^6) and ``seq-decompose --depth 14`` 2.7-3.2 s
#: and 130 MB, most of it the brute-force check's translates. Longer horizons
#: are refused before any value is computed.
MAX_HORIZON = 250_000


class HorizonError(ValueError):
    """A search or evaluation ran past the materialized horizon."""


def check_horizon(horizon: int) -> None:
    """Reject a horizon outside 1..MAX_HORIZON."""
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in 1..{MAX_HORIZON}, got {horizon}")


def _validate_gap_table(key: int, table: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    values = tuple(as_fraction(v) for v in table)
    for i, v in enumerate(values):
        if v <= 0 or v.numerator != 1:
            raise ValueError(f"gap table {key}, entry {i + 1}: {v} is not a unit fraction")
        if i and v >= values[i - 1]:
            raise ValueError(f"gap table {key} is not strictly decreasing at entry {i + 1}")
    return values


@dataclass(frozen=True)
class SlowSequence:
    """alpha_m for 1 <= m <= horizon, stored blockwise.

    ``breakpoints[n]`` is N_n (with N_0 = 0); block n covers
    N_(n-1) < m <= N_n and interpolates from 1/n at its first index down to
    1/(n+1) at N_n + 1. Values are computed on demand from the block data,
    never materialized per index.
    """

    mu: Tuple[Fraction, ...]
    breakpoints: Tuple[int, ...]
    horizon: int

    @property
    def blocks(self) -> int:
        return len(self.mu)

    def block_of(self, m: int) -> int:
        if not 1 <= m <= self.breakpoints[-1]:
            raise HorizonError(f"index {m} outside 1..{self.breakpoints[-1]}")
        return bisect_left(self.breakpoints, m)

    def alpha_at(self, m: int) -> Fraction:
        """1/n - (m - N_(n-1) - 1) / (n (n+1) w) on block n of width w, as one Fraction."""
        n = self.block_of(m)
        lo = self.breakpoints[n - 1]
        width = self.breakpoints[n] - lo
        return Fraction((n + 1) * width - (m - lo - 1), n * (n + 1) * width)

    def alpha_gap(self, m: int) -> Fraction:
        """alpha_m - alpha_(m+1), in closed form per block."""
        n = self.block_of(m)
        return Fraction(1, n * (n + 1) * (self.breakpoints[n] - self.breakpoints[n - 1]))


def build_mu(gap_tables: Mapping[int, Sequence[Fraction]], horizon: int) -> SlowSequence:
    """Envelope the gap tables and materialize breakpoints past the horizon.

    mu_n is the minimum of the level-n entries over every table whose window
    index k satisfies |k| <= n, so mu_n <= l_n^(k) as soon as n >= |k|. The
    envelope strictly decreases with no check: the table attaining mu_(n-1)
    is still admitted at level n, and its level-n entry is strictly smaller.
    Blocks are added until N_n > horizon, guaranteeing alpha and its gap are
    defined on all of 1..horizon.
    """
    check_horizon(horizon)
    if not gap_tables:
        raise ValueError("need at least one gap table")
    tables = {int(k): _validate_gap_table(k, t) for k, t in gap_tables.items()}
    mus: list[Fraction] = []
    breaks = [0]
    n = 1
    while breaks[-1] < horizon + 1:
        keys = [k for k in tables if abs(k) <= n]
        if not keys:
            raise ValueError(f"no gap table with |k| <= {n}")
        values = []
        for k in keys:
            if n > len(tables[k]):
                raise HorizonError(
                    f"gap table {k} exhausted at level {n} before reaching horizon {horizon}")
            values.append(tables[k][n - 1])
        mu = min(values)
        mus.append(mu)
        breaks.append(breaks[-1] + int(1 / mu))
        n += 1
    return SlowSequence(mu=tuple(mus), breakpoints=tuple(breaks), horizon=horizon)


def first_index(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """Least m in lo..hi with pred(m), for a monotone comparison ``pred`` that
    returns a bool: false and then true on lo..hi. Probes lo, then gallops
    through lo+1, lo+3, lo+7, ... (capped at hi), and ``bisect`` finishes the
    last bracket, so no probe lies further from lo than twice the answer does;
    raises HorizonError when pred(hi) fails."""
    probe, step = lo, 1
    while not pred(probe):  # pred fails up to probe, so the answer lies past it
        if probe == hi:
            raise HorizonError(f"threshold not reached by m={hi}")
        lo, probe, step = probe + 1, min(probe + step, hi), 2 * step
    return lo + bisect_left(range(lo, probe), True, key=pred)


def check_convex(seq: Callable[[int], RationalLike], lo: int,
                 hi: int) -> Dict[int, Fraction]:
    """seq(m) for lo <= m <= hi + 1, checked exactly: positive on [lo, hi],
    strictly decreasing and with non-increasing gaps seq(m) - seq(m+1) for
    m in [lo, hi]. Non-increasing gaps, a positive last gap and seq(hi) > 0
    imply the rest; raises ValueError at an index that breaks this, and
    before evaluating anything when the range holds over MAX_HORIZON indices."""
    if hi - lo >= MAX_HORIZON:
        raise ValueError(f"{hi - lo + 1} indices exceed MAX_HORIZON = {MAX_HORIZON}")
    values = {m: as_fraction(seq(m)) for m in range(lo, hi + 2)}
    # gap(m) > gap(m-1) iff a/p - 2b/q + c/r < 0 (values at m-1, m, m+1), times p*q*r
    terms = [v.as_integer_ratio() for v in values.values()]
    for m, ((a, p), (b, q), (c, r)) in enumerate(zip(terms, terms[1:], terms[2:]), lo + 1):
        if (a * r + c * p) * q < 2 * b * p * r:
            raise ValueError(f"gaps increase at m={m}: "
                             f"{values[m] - values[m + 1]} > {values[m - 1] - values[m]}")
    if hi >= lo and values[hi] <= values[hi + 1]:
        raise ValueError(f"sequence not strictly decreasing at m={hi}")
    if hi >= lo and values[hi] <= 0:
        raise ValueError(f"sequence not positive at m={hi}")
    return values


def threshold_index(gap: Callable[[int], Fraction], delta: RationalLike, m0: int,
                    l: RationalLike, horizon: int) -> int:
    """Least m >= m0 with delta * gap(m) < l, for a non-increasing gap function.

    Searches [m0, horizon] with first_index; by monotonicity every later index
    also satisfies the strict inequality.
    """
    d = as_fraction(delta)
    target = as_fraction(l)
    if d <= 0 or target <= 0:
        raise ValueError("delta and l must be positive")
    if m0 < 1 or horizon < m0:
        raise ValueError("need 1 <= m0 <= horizon")
    return first_index(lambda m: d * gap(m) < target, m0, horizon)


@dataclass(frozen=True)
class TranslateDecomposition(Report):
    """Structure of union(m >= m0) of I - delta*seq(m) for an open interval I.

    Below the threshold the translates are pairwise disjoint copies; from the
    threshold on they chain into one interval. ``overlap_part`` is the full
    tail (right endpoint = sup I, the m -> infinity limit);
    ``truncated_overlap`` is the tail actually reachable within the horizon.
    """

    threshold: int
    disjoint_part: IntervalSet
    overlap_part: Interval
    truncated_overlap: Interval

    def truncated_union(self) -> IntervalSet:
        return self.disjoint_part.union(IntervalSet((self.truncated_overlap,)))


def decompose_translates(interval: Interval, seq: Callable[[int], Fraction],
                         delta: RationalLike, m0: int,
                         m_horizon: int) -> TranslateDecomposition:
    """Split the translates of an open interval at the threshold index.

    ``seq`` must be positive on [m0, m_horizon] and strictly decreasing with
    non-increasing gaps seq(m) - seq(m+1) for m in [m0, m_horizon]; both
    hypotheses are checked exactly by check_convex and violations are
    rejected.
    """
    if not interval.is_open:
        raise ValueError("decompose_translates needs a nondegenerate open interval")
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if m0 < 1 or m_horizon <= m0:
        raise ValueError("need 1 <= m0 < m_horizon")
    values = check_convex(seq, m0, m_horizon)
    length = interval.length
    threshold = threshold_index(lambda m: values[m] - values[m + 1], d, m0, length,
                                m_horizon)
    head = tuple(interval.translate(-d * values[m]) for m in range(m0, threshold))
    disjoint = IntervalSet(head)  # construction rejects overlap, which cannot occur
    truncated = Interval.open(interval.lo - d * values[threshold],
                              interval.hi - d * values[m_horizon])
    full = Interval.open(interval.lo - d * values[threshold], interval.hi)
    return TranslateDecomposition(threshold=threshold, disjoint_part=disjoint,
                                  overlap_part=full, truncated_overlap=truncated)


# ---------------------------------------------------------------------------
# coverage checks against a gap-ladder construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowDecayEntry(Report):
    n: int
    threshold: int = field(metadata={"json": "M"})
    breakpoint: int = field(metadata={"json": "N_n"})
    alpha_at_threshold: Fraction = field(metadata={"json": "alpha_at_M"})


@dataclass(frozen=True)
class SlowDecayReport(Report):
    """Per-level check that the threshold lands before the breakpoint, so the
    sequence is still above 1/(n+1) when the translates start to overlap."""

    delta: Fraction
    m0: int
    n_start: int
    entries: Tuple[SlowDecayEntry, ...]
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def slow_decay_start(s: SlowSequence, delta: RationalLike, m0: int, k: int = 0) -> int:
    """The least level from which the threshold/breakpoint comparison is
    guaranteed: the first integer exceeding max(1/delta, |k|, n1), where n1
    is the first block whose breakpoint reaches m0."""
    d = as_fraction(delta)
    worst = max(1 / d, Fraction(abs(k)), Fraction(s.block_of(m0)))
    n0 = int(worst) + 1
    return n0


def verify_slow_decay(construction: CantorConstruction, s: SlowSequence,
                      delta: RationalLike, m0: int, n_range: Iterable[int],
                      k: int = 0) -> SlowDecayReport:
    """For each level n in range (from the computed start), check exactly:
    delta * (step at the breakpoint) < l_n, the threshold M(n) is at most
    N_n, and alpha at M(n) is at least 1/(n+1).

    ``k`` names the gap table of the construction inside the envelope; it
    only enters through the start level.
    """
    d = as_fraction(delta)
    n0 = slow_decay_start(s, d, m0, k)
    entries = []
    violations = []
    for n in sorted(set(n_range)):
        if n < n0:
            continue
        if n > construction.depth:
            raise ValueError(f"level {n} beyond construction depth {construction.depth}")
        if n > s.blocks:
            raise HorizonError(f"level {n} beyond materialized blocks {s.blocks}")
        l_n = construction.gap_length(n)
        breakpoint = s.breakpoints[n]
        if not d * s.alpha_gap(breakpoint) < l_n:
            violations.append(f"n={n}: delta*step at N_n is not below l_n")
        threshold = threshold_index(s.alpha_gap, d, m0, l_n, s.horizon)
        alpha_m = s.alpha_at(threshold)
        entries.append(SlowDecayEntry(n=n, threshold=threshold, breakpoint=breakpoint,
                                      alpha_at_threshold=alpha_m))
        if threshold > breakpoint:
            violations.append(f"n={n}: threshold {threshold} exceeds breakpoint {breakpoint}")
        if alpha_m < Fraction(1, n + 1):
            violations.append(f"n={n}: alpha at threshold {alpha_m} below 1/{n + 1}")
    return SlowDecayReport(delta=d, m0=m0, n_start=n0, entries=tuple(entries),
                           violations=tuple(violations))


@dataclass(frozen=True)
class DeficitReport(Report):
    """Exact leftovers of the translate covering of [0,1).

    ``uncovered_measure`` is the measure of [0,1) minus all translates
    O_n - delta*alpha_m (n <= N, m0 <= m <= M); ``residual`` is [0,1)
    intersected with every translate R_N - delta*alpha_m of the level-N
    remnant set R_N. The report passes exactly when the residual is empty:
    then no t in [0,1) has every t + delta*alpha_m in R_N, which holds the
    ladder's limit set. ``bound`` is printed for reference and decides
    nothing: 2^N' * (2/3)^N for the first dominated truncation level N',
    plus one right-edge sliver of width delta*alpha_M per gap component (the
    tail beyond m = M that the finite union cannot reach).
    """

    N: int
    M: int
    delta: Fraction
    m0: int
    uncovered_measure: Fraction
    residual_measure: Fraction
    residual: IntervalSet
    bound: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return self.residual.is_empty


def coverage01(construction: CantorConstruction, s: SlowSequence,
               delta: RationalLike, m0: int, N: int, M: int) -> DeficitReport:
    """Measure what the translates O_n - delta*alpha_m leave of [0,1)."""
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if not 1 <= N <= construction.depth:
        raise ValueError(f"N must be in 1..{construction.depth}")
    if not 1 <= m0 <= M <= s.horizon:
        raise ValueError(f"need 1 <= m0 <= M <= horizon {s.horizon}")
    shifts = [-d * s.alpha_at(m) for m in range(m0, M + 1)]
    window = Interval.half_open(0, 1)
    covered = union_of_translates(construction.open_sets_through(N), shifts)
    uncovered = covered.complement_within(window)
    # R_N is [0,1] minus O_N, so t lies in every R_N + s exactly when it lies
    # in every [0,1] + s and is uncovered: the union above serves both, and
    # the residual needs no second sort-and-sweep
    residual = uncovered.intersect(intersection_of_translates(
        IntervalSet((Interval.closed(0, 1),)), shifts, IntervalSet((window,))))
    bound = _deficit_bound(construction, s, d, m0, N, M)
    return DeficitReport(N=N, M=M, delta=d, m0=m0,
                         uncovered_measure=uncovered.measure(),
                         residual_measure=residual.measure(),
                         residual=residual, bound=bound)


def _deficit_bound(construction: CantorConstruction, s: SlowSequence, d: Fraction,
                   m0: int, N: int, M: int) -> Optional[Fraction]:
    """The sliver-corrected truncation ceiling at the first dominated level
    N', or None when none is; larger N' only weaken it."""
    from affcopy.cantor import TWO_THIRDS  # loaded here: the caller holds a ladder
    thresholds = {}
    for n in range(1, N + 1):
        try:
            thresholds[n] = threshold_index(s.alpha_gap, d, m0,
                                            construction.gap_length(n), s.horizon)
        except HorizonError:
            return None
    if any(thresholds[n] > M for n in thresholds):
        return None
    for n_prime in range(0, N):
        if all(d * s.alpha_at(thresholds[n]) >= TWO_THIRDS ** n
               for n in range(n_prime + 1, N + 1)):
            return (2 ** n_prime) * TWO_THIRDS ** N + (2 ** N - 1) * d * s.alpha_at(M)
    return None
