"""A closed, nowhere dense subset of [0,1] that still absorbs affine copies
of every sequence dominated by a prescribed decay.

The recipe: convexify the prescribed decay beta into a threshold sequence eta
(strictly decreasing to zero with non-increasing gaps), enumerate a dyadic
base V_n of (0,1), and punch one centered hole J_n into each V_n whose length
lambda_n is budgeted so that the total measure swept by the translates
J_n - eta_m stays summable. The complement A = [0,1] minus the holes is
closed and misses an open piece of every base interval, yet for any rational
vector alpha with |alpha_m| <= eta_m/(2*delta0) a small positive delta and a
translation t with t + delta*alpha_m in A can be found by exact search. The
search asks ``intersection_of_translates`` for the t with every
t + delta*alpha_m in A; as A is [0,1] minus the holes, each rung certifies
[0,1] minus one union of the translates J_n - delta*alpha_m, the same union
whose measure the budget sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from affcopy.intervals import (Interval, IntervalSet, RationalLike, Report, as_fraction,
                               intersection_of_translates, normalize, union_of_translates)
from affcopy.slowseq import (MAX_HORIZON, HorizonError, check_convex, first_index,
                             threshold_index)

#: Horizon used for formula-backed sequences, large enough that every budget
#: search below is limited by arithmetic, not by an artificial cap.
FORMULA_HORIZON = 2 ** 62

#: How many leading gaps of a formula-backed sequence are checked eagerly.
CONVEXITY_SPOT_CHECKS = 128

#: Most holes :func:`build_avoider` punches. Endpoint bit lengths grow with
#: the hole index, the faster the closer a geometric ratio is to 1: on a
#: 2-core VM (Python 3.11) ``avoider-build --depth 128`` takes 6.6 s with
#: ``geometric:99/100`` (50 s at depth 256) and under 0.5 s with
#: ``geometric:9/10`` (10 s at 1024). ``harmonic`` and ``polynomial:1`` run
#: out of formula horizon (exit 2) before depth 128.
MAX_DEPTH = 128

#: Longest hole endpoint, in bits, that :func:`build_avoider` accepts. The
#: depth cap bounds the count of holes, not their size: a geometric ratio
#: close to 1 gives the second hole of ``geometric:999/1000`` endpoints of
#: 27,637 bits, past the 4,300 decimal digits (about 14,284 bits) that
#: ``str()`` writes by default. ``geometric:99/100`` peaks at 8,526 bits
#: (hole 25) within MAX_DEPTH.
MAX_ENDPOINT_BITS = 12_000

#: Most sequence terms one translate union or embedding takes (``--M``). Each
#: term can add a factor to the common denominator, and an embedding rung
#: holds one run of translates per stretch of the M shifts along which an
#: avoider gap's translates chain. On a 2-core VM (Python 3.11.7),
#: ``avoider-embed --beta harmonic --depth 64 --M 1000`` takes 0.13 s and
#: peaks at 34 MB with ``--alpha polynomial:2`` (0.34 s and 207 MB for the
#: embedding alone at M = 4000, where the shortest holes chain no
#: translates), and 0.40 s and 79 MB with ``geometric:99/100``; ``--beta
#: geometric:9/10 --alpha polynomial:1 --depth 128`` takes 0.22-0.28 s and
#: 19 MB. ``measure_union_translates`` of the first harmonic hole takes
#: 0.13 s and 55 MB at M = 10^4 and ran out of a 2 GB address space at 10^5,
#: where each of the M shifts alone is an int of about 144,000 bits.
MAX_M = 1000


class EmbeddingSearchError(Exception):
    """The delta ladder ran out before a positive-measure residual appeared."""

    def __init__(self, trace: Tuple[Tuple[Fraction, Fraction], ...]):
        tried = ", ".join(f"delta={d}: measure={m}" for d, m in trace)
        super().__init__(f"no delta on the ladder succeeded ({tried})")
        self.trace = trace


@dataclass(frozen=True)
class ThresholdSequence:
    """A strictly decreasing positive null sequence eta with non-increasing
    gaps, defined on 1..horizon.

    Built either by ``thresholdize`` from listed source values via the
    convexification recurrence eta_m = max(beta_m, 2*eta_(m-1) - eta_(m-2)),
    or by ``from_convex`` from a formula that is already convex (then eta
    coincides with the source and arbitrary indices can be evaluated without
    materializing a prefix).
    """

    fn: Callable[[int], Fraction]
    horizon: int

    @classmethod
    def from_convex(cls, fn: Callable[[int], Fraction]) -> "ThresholdSequence":
        """Wrap an already-convex formula (non-increasing gaps) up to
        FORMULA_HORIZON.

        The gap condition is checked by ``check_convex`` on the first
        CONVEXITY_SPOT_CHECKS gaps; beyond that the formula is trusted, which
        is what allows threshold searches at indices far past anything a
        materialized prefix could reach.
        """
        check_convex(fn, 1, CONVEXITY_SPOT_CHECKS)
        return cls(lambda m: as_fraction(fn(m)), FORMULA_HORIZON)

    def eta(self, m: int) -> Fraction:
        if not 1 <= m <= self.horizon:
            raise HorizonError(f"index {m} outside 1..{self.horizon}")
        return self.fn(m)

    def eta_gap(self, m: int) -> Fraction:
        return self.eta(m) - self.eta(m + 1)


def thresholdize(values: Sequence[RationalLike]) -> ThresholdSequence:
    """Convexify listed strictly decreasing positive source values, at most
    MAX_HORIZON of them, into a threshold sequence via
    eta_m = max(beta_m, 2*eta_(m-1) - eta_(m-2))."""
    if len(values) > MAX_HORIZON:
        raise ValueError(f"{len(values)} source values exceed MAX_HORIZON = {MAX_HORIZON}")
    beta = [as_fraction(v) for v in values]
    if len(beta) < 2:
        raise ValueError("need at least two source values")
    for i, v in enumerate(beta):
        if v <= 0:
            raise ValueError(f"source value {i + 1} is not positive")
        if i and v >= beta[i - 1]:
            raise ValueError(f"source not strictly decreasing at index {i + 1}")
    eta = beta[:2]
    for b in beta[2:]:
        eta.append(max(b, 2 * eta[-1] - eta[-2]))
    eta_values = tuple(eta)
    return ThresholdSequence(lambda m: eta_values[m - 1], len(eta_values))


# ---------------------------------------------------------------------------
# base enumeration and hole budget
# ---------------------------------------------------------------------------

def enumerate_base(n: int) -> Interval:
    """The n-th interval of the dyadic base of (0,1).

    Level L contributes the 2^L - 1 intervals centered at i/2^L with radius
    1/2^(L+1), ordered by (L, i); every open subinterval of (0,1) contains
    one of them.
    """
    if n < 1:
        raise ValueError("base index starts at 1")
    level = 1
    idx = n
    while idx > 2 ** level - 1:
        idx -= 2 ** level - 1
        level += 1
    center = Fraction(idx, 2 ** level)
    radius = Fraction(1, 2 ** (level + 1))
    return Interval.open(center - radius, center + radius)


def _overlap(t: ThresholdSequence, lam: Fraction, where: str = "") -> Tuple[int, Fraction]:
    """The overlap threshold T of the eta-translates of a length-lam interval
    (the first m whose eta gap drops below lam) and the measure T*lam + eta_T
    they sweep; ``where`` prefixes the horizon error."""
    try:
        T = threshold_index(t.eta_gap, 1, 1, lam, t.horizon - 1)
    except HorizonError:
        raise HorizonError(f"{where}no eta gap falls below the hole length lambda={_shown(lam)}"
                           f" within the sequence horizon {t.horizon}") from None
    return T, T * lam + t.eta(T)


def _shown(x: Fraction) -> str:
    """x as ``str`` writes it, or, past the 4,300 digits ``str`` writes, the
    bit lengths of its numerator and denominator."""
    try:
        return str(x)
    except ValueError:
        return (f"<a {x.numerator.bit_length()}-bit numerator over a "
                f"{x.denominator.bit_length()}-bit denominator>")


@dataclass(frozen=True)
class Hole(Report):
    """The n-th hole J_n, open, of length lambda and centered in the base V_n;
    K is the even cutoff after which eta sinks below 1/n^2, T > K the overlap
    threshold of the eta-translates of J_n, and tail = T*lambda + eta_T."""

    n: int
    base: Interval = field(metadata={"json": "V"})
    interval: Interval = field(metadata={"json": "J"})
    lam: Fraction = field(metadata={"json": "lambda"})
    K: int
    T: int
    tail: Fraction = field(metadata={"json": None})


def plan_budget(t: ThresholdSequence, n: int) -> Hole:
    """K(n) = 2 * (first m with eta_m < 1/n^2); lambda_n = min(|V_n|, 2^-n,
    eta-gap at K(n)); T(n) = first m whose eta-gap drops below lambda_n."""
    if n < 1:
        raise ValueError("budget index starts at 1")
    base = enumerate_base(n)
    target = Fraction(1, n * n)
    try:
        K = 2 * first_index(lambda m: t.eta(m) < target, 1, t.horizon)
        lam = min(base.length, Fraction(1, 2 ** n), t.eta_gap(K))
    except HorizonError:
        raise HorizonError(f"hole n={n}: no cutoff K = 2m with eta_m < {target} has an eta "
                           f"gap within the sequence horizon {t.horizon}") from None
    T, tail = _overlap(t, lam, f"hole n={n}: ")
    if T <= K:
        raise RuntimeError(f"budget invariant broken at n={n}: T={T} <= K={K}")
    center = base.midpoint()
    return Hole(n=n, base=base, interval=Interval.open(center - lam / 2, center + lam / 2),
                lam=lam, K=K, T=T, tail=tail)


@dataclass(frozen=True)
class AvoiderConstruction(Report):
    """Depth-N truncation of the avoider: [0,1] minus the first N holes.

    The truncation contains the full set, so any embedding certificate for a
    deeper truncation remains valid here; reports label results with the
    depth they were checked at.
    """

    depth: int
    holes: Tuple[Hole, ...]
    avoider: IntervalSet = field(metadata={"json": None})


def build_avoider(t: ThresholdSequence, depth: int) -> AvoiderConstruction:
    """Punch the first `depth` budgeted holes into [0,1]."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}, got {depth}")
    holes = []
    for n in range(1, depth + 1):
        hole = plan_budget(t, n)
        # both endpoints lie in (0,1), so the denominator is the longer int
        bits = max(x.denominator.bit_length() for x in (hole.interval.lo, hole.interval.hi))
        if bits > MAX_ENDPOINT_BITS:
            raise ValueError(f"hole n={n}: endpoints of {bits} bits exceed "
                             f"MAX_ENDPOINT_BITS = {MAX_ENDPOINT_BITS}")
        holes.append(hole)
    removed = normalize([h.interval for h in holes])
    avoider = removed.complement_within(Interval.closed(0, 1))
    return AvoiderConstruction(depth=depth, holes=tuple(holes), avoider=avoider)


# ---------------------------------------------------------------------------
# measure identity, summability, embedding search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslateMeasure(Report):
    threshold: int = field(metadata={"json": "T"})
    kernel_measure: Fraction
    closed_form: Fraction
    limit: Fraction
    identity_ok: bool


def measure_union_translates(hole: Interval, t: ThresholdSequence,
                             M: int) -> TranslateMeasure:
    """Union of hole - eta_m for m = 1..M, measured two ways.

    The sweep over the exact kernel union must equal T*lambda + eta_T - eta_M
    where T is the overlap threshold; the full-union limit T*lambda + eta_T
    is reported alongside.
    """
    if not hole.is_open:
        raise ValueError("need a nondegenerate open interval")
    if M > MAX_M:
        raise ValueError(f"M must be at most MAX_M = {MAX_M}, got {M}")
    if M > t.horizon:
        raise HorizonError(f"M={M} is past the sequence horizon {t.horizon}")
    T, tail = _overlap(t, hole.length)
    if M < T:
        raise ValueError(f"M={M} is below the overlap threshold {T}")
    kernel = union_of_translates(IntervalSet((hole,)),
                                 [-t.eta(m) for m in range(1, M + 1)]).measure()
    closed = tail - t.eta(M)
    return TranslateMeasure(threshold=T, kernel_measure=kernel, closed_form=closed,
                            limit=tail, identity_ok=kernel == closed)


@dataclass(frozen=True)
class SummabilityEntry(Report):
    n: int
    K: int
    lam: Fraction = field(metadata={"json": "lambda"})
    T: int
    tail_measure: Fraction  # T*lambda + eta_T


@dataclass(frozen=True)
class SummabilityReport(Report):
    """Exact partial sums and the termwise inequalities that make the total
    translate measure finite: eta at half-T is dominated by eta at half-K,
    the first eta below 1/n^2, and T*lambda telescopes into twice the eta
    drop from half-T to T."""

    depth: int
    entries: Tuple[SummabilityEntry, ...]
    sum_eta_half_T: Fraction
    sum_inverse_squares: Fraction
    sum_tail_measures: Fraction
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def summability_report(t: ThresholdSequence, depth: int) -> SummabilityReport:
    entries = []
    violations = []
    sum_half = Fraction(0)
    sum_squares = Fraction(0)
    sum_tails = Fraction(0)
    for n in range(1, depth + 1):
        h = plan_budget(t, n)
        eta_half_T = t.eta(h.T // 2)
        eta_half_K = t.eta(h.K // 2)
        entries.append(SummabilityEntry(n=n, K=h.K, lam=h.lam, T=h.T, tail_measure=h.tail))
        sum_half += eta_half_T
        sum_squares += Fraction(1, n * n)
        sum_tails += h.tail
        if eta_half_T > eta_half_K:
            violations.append(f"n={n}: eta at T/2 exceeds eta at K/2")
        if h.K > 2 and t.eta(h.K // 2 - 1) < Fraction(1, n * n):
            violations.append(f"n={n}: K/2 is not the first m with eta_m below 1/{n * n}")
        if not h.T * h.lam <= 2 * eta_half_T - 2 * t.eta(h.T):
            violations.append(f"n={n}: T*lambda exceeds the telescoped eta drop")
    return SummabilityReport(depth=depth, entries=tuple(entries),
                             sum_eta_half_T=sum_half,
                             sum_inverse_squares=sum_squares,
                             sum_tail_measures=sum_tails,
                             violations=tuple(violations))


def delta0_of(alpha: Sequence[RationalLike], t: ThresholdSequence) -> Optional[Fraction]:
    """Largest delta0 with |alpha_m| <= eta_m/(2*delta0) over the vector, or
    None when every entry is zero (unconstrained). The running minimum of
    eta_m/(2|alpha_m|) is kept as an int pair, compared cross-multiplied,
    and made a Fraction once."""
    num, den = 1, 0  # no cap yet: an infinite minimum
    for m, a in enumerate(alpha, 1):
        p, q = as_fraction(a).as_integer_ratio()
        if p:
            e, d = t.eta(m).as_integer_ratio()
            n, k = e * q, 2 * d * abs(p)
            if n * den < num * k:
                num, den = n, k
    return Fraction(num, den) if den else None


@dataclass(frozen=True)
class EmbeddingCertificate(Report):
    """An exactly verified depth-N certificate: every t + delta*alpha_m lies
    in the truncated avoider."""

    delta: Fraction
    t: Fraction
    checked_points: int
    residual_measure: Fraction
    trace: Tuple[Tuple[Fraction, Fraction], ...]
    budget_lower_bound: Fraction
    delta0: Optional[Fraction] = field(metadata={"json": None})  # scale cap (delta0_of)


def find_embedding(construction: AvoiderConstruction, alpha: Sequence[RationalLike],
                   t: ThresholdSequence, i_max: int = 40) -> EmbeddingCertificate:
    """Search the geometric delta ladder for a verified affine embedding.

    delta runs over delta0 * 2^-i (capped below 1); at each rung the residual
    [0,1] intersected with every translate A - delta*alpha_m is computed
    exactly by ``intersection_of_translates``, as one union of the
    translates of A's gaps (for a built avoider, the holes) taken from
    [0,1], and the first rung with positive measure yields t* at the
    midpoint of a largest component. Every translated point is then checked
    for membership before the certificate is returned; exhausting the
    ladder raises with the full measure trace.
    """
    vector = [as_fraction(a) for a in alpha]
    if not vector:
        raise ValueError("need at least one alpha entry")
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    delta0 = delta0_of(vector, t)
    base = delta0 if delta0 is not None else Fraction(1)
    unit = IntervalSet((Interval.closed(0, 1),))
    trace: List[Tuple[Fraction, Fraction]] = []
    budget_bound = 1 - sum((h.tail for h in construction.holes), Fraction(0))
    for i in range(1, i_max + 1):
        delta = base / 2 ** i
        if delta >= 1:
            continue
        residual = intersection_of_translates(construction.avoider,
                                              [-delta * a for a in vector], unit)
        measure = residual.measure()
        trace.append((delta, measure))
        if measure > 0:
            t_star = residual.longest().midpoint()
            for m, a in enumerate(vector, 1):
                if not construction.avoider.contains_point(t_star + delta * a):
                    raise RuntimeError(
                        f"witness failed exact membership at m={m}; kernel bug")
            return EmbeddingCertificate(delta=delta, t=t_star,
                                        checked_points=len(vector),
                                        residual_measure=measure,
                                        trace=tuple(trace),
                                        budget_lower_bound=budget_bound,
                                        delta0=delta0)
    raise EmbeddingSearchError(tuple(trace))
