import random
from fractions import Fraction

import pytest

from affcopy.cantor import MiddleThirdOracle, TernaryCantorOracle, build_cantor
from affcopy.intervals import Interval, IntervalSet, normalize
from affcopy.slowseq import (HorizonError, SlowSequence, build_mu, coverage01,
                             decompose_translates, slow_decay_start, threshold_index,
                             verify_slow_decay)
from affcopy.slowseq import MAX_HORIZON, check_convex, first_index

F = Fraction


def harmonic(m):
    return F(1, m)


def harmonic_gap(m):
    return F(1, m * (m + 1))


def gallop_and_halve(pred, lo, hi):
    """The reference threshold search: first_index with a hand-written halving
    loop in place of bisect (the two may probe in different orders)."""
    if pred(lo):
        return lo
    step = 1
    while True:  # pred(lo) fails
        probe = min(lo + step, hi)
        if pred(probe):
            break
        if probe == hi:
            raise HorizonError(f"threshold not reached by m={hi}")
        lo, step = probe, 2 * step
    while probe - lo > 1:  # pred(lo) fails, pred(probe) holds
        mid = (lo + probe) // 2
        if pred(mid):
            probe = mid
        else:
            lo = mid
    return probe


@pytest.fixture(scope="module")
def ladder6():
    return build_cantor(MiddleThirdOracle(), depth=6)


@pytest.fixture(scope="module")
def seq6(ladder6):
    tables = {0: [ladder6.gap_length(n) for n in range(1, 7)]}
    return build_mu(tables, horizon=500)


@pytest.fixture(scope="module")
def ladder12():
    return build_cantor(MiddleThirdOracle(), depth=12)


@pytest.fixture(scope="module")
def seq12(ladder12):
    return build_mu({0: [ladder12.gap_length(n) for n in range(1, 13)]}, horizon=20_000)


class TestBuildMu:
    def test_three_tables(self):
        tables = {0: [F(1, 2), F(1, 4), F(1, 8)],
                  1: [F(1, 3), F(1, 9), F(1, 27)],
                  -1: [F(1, 3), F(1, 9), F(1, 27)]}
        s = build_mu(tables, horizon=10)
        assert s.mu[0] == F(1, 3)
        assert s.mu[1] == F(1, 9)

    def test_single_table_is_identity(self):
        table = [F(1, 3), F(1, 7), F(1, 20)]
        s = build_mu({0: table}, horizon=9)
        assert list(s.mu[:2]) == table[:2]

    def test_envelope_strictly_decreasing_random(self):
        rng = random.Random(4021)
        for _ in range(50):
            tables = {}
            for k in range(-rng.randint(0, 2), rng.randint(1, 3)):
                den = rng.randint(2, 5)
                table = []
                for _ in range(8):
                    table.append(F(1, den))
                    den += rng.randint(1, 9)
                tables[k] = table
            if 0 not in tables:
                tables[0] = [F(1, 2 + 3 * i) for i in range(8)]
            s = build_mu(tables, horizon=12)
            assert all(a > b for a, b in zip(s.mu, s.mu[1:]))
            for k, table in tables.items():
                for n in range(abs(k) + 1, s.blocks + 1):
                    if n <= len(table):
                        assert s.mu[n - 1] <= table[n - 1]

    def test_envelope_decreases_over_mixed_windows(self):
        # tables admitted later (larger |k|) may start above the current
        # minimum; the envelope is still the level-wise minimum and strictly
        # decreasing, since the table that attains it stays admitted
        rng = random.Random(2929)
        for _ in range(400):
            keys = {rng.choice((-1, 0, 1))} | {rng.randint(-5, 5) for _ in range(rng.randint(0, 5))}
            tables = {}
            for k in keys:
                dens = [rng.randint(2, 40)]
                for _ in range(11):
                    dens.append(dens[-1] + rng.randint(1, 30))
                tables[k] = [F(1, den) for den in dens]
            s = build_mu(tables, horizon=rng.randint(1, 60))
            assert all(a > b for a, b in zip(s.mu, s.mu[1:]))
            assert list(s.mu) == [min(t[n - 1] for k, t in tables.items() if abs(k) <= n)
                                  for n in range(1, s.blocks + 1)]

    def test_rejects_non_unit_fractions(self):
        with pytest.raises(ValueError):
            build_mu({0: [F(2, 3), F(1, 4)]}, horizon=4)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            build_mu({0: [F(1, 4), F(1, 4)]}, horizon=4)

    def test_table_exhaustion(self):
        with pytest.raises(HorizonError):
            build_mu({0: [F(1, 2)]}, horizon=50)


class TestAlpha:
    def test_interpolation_values(self):
        s = build_mu({0: [F(1, 2), F(1, 4)]}, horizon=5)
        assert s.breakpoints == (0, 2, 6)
        assert [s.alpha_at(m) for m in (1, 2, 3, 4)] == [F(1), F(3, 4), F(1, 2), F(11, 24)]

    def test_block_starts(self, seq6):
        for n in range(1, seq6.blocks):
            assert seq6.alpha_at(seq6.breakpoints[n] + 1) == F(1, n + 1)

    def test_gap_matches_direct_difference(self, seq6):
        for m in range(1, 200):
            assert seq6.alpha_gap(m) == seq6.alpha_at(m) - seq6.alpha_at(m + 1)

    def test_gap_constant_within_block(self, seq6):
        for n in range(1, seq6.blocks + 1):
            lo, hi = seq6.breakpoints[n - 1] + 1, seq6.breakpoints[n]
            gaps = {seq6.alpha_gap(m) for m in range(lo, min(hi, lo + 5) + 1)}
            assert len(gaps) == 1

    def test_strictly_decreasing_non_increasing_gaps(self, seq6):
        top = min(seq6.horizon, seq6.breakpoints[-1] - 1)
        prev_gap = None
        for m in range(1, top + 1):
            gap = seq6.alpha_gap(m)
            assert gap > 0
            if prev_gap is not None:
                assert gap <= prev_gap
            prev_gap = gap

    def test_out_of_horizon(self, seq6):
        with pytest.raises(HorizonError):
            seq6.alpha_at(seq6.breakpoints[-1] + 1)

    def test_one_fraction_matches_the_interpolation(self, seq6, seq12):
        # the reference is the interpolation formula as first written:
        # 1/n less a (m - N_(n-1) - 1)/w share of the block's drop 1/n - 1/(n+1)
        def interpolated(seq, m):
            n = seq.block_of(m)
            lo, hi = seq.breakpoints[n - 1], seq.breakpoints[n]
            return F(1, n) - (F(1, n) - F(1, n + 1)) * F(m - lo - 1, hi - lo)

        ternary = build_cantor(TernaryCantorOracle(), 8)
        sequences = [seq6, seq12,
                     build_mu({0: [F(1, 2), F(1, 4)]}, horizon=5),
                     build_mu({0: [F(1, 2), F(1, 4), F(1, 8)], 1: [F(1, 3), F(1, 9), F(1, 27)],
                               -1: [F(1, 3), F(1, 9), F(1, 27)]}, horizon=10),
                     build_mu({0: [ternary.gap_length(n) for n in range(1, 9)]}, horizon=3000)]
        for seq in sequences:
            for m in range(1, seq.breakpoints[-1] + 1):
                assert seq.alpha_at(m) == interpolated(seq, m)


class TestThreshold:
    def test_harmonic_example(self):
        assert threshold_index(harmonic_gap, 1, 1, F(1, 10), 100) == 3

    def test_monotone_in_delta(self):
        base = threshold_index(harmonic_gap, 1, 1, F(1, 10), 100)
        halved = threshold_index(harmonic_gap, F(1, 2), 1, F(1, 10), 100)
        assert halved <= base

    def test_immediate(self):
        assert threshold_index(harmonic_gap, 1, 4, F(1, 2), 100) == 4

    def test_agrees_with_linear_scan(self, seq6):
        rng = random.Random(99)
        for _ in range(25):
            delta = F(rng.randint(1, 8), rng.randint(1, 8))
            l = F(1, rng.randint(2, 400))
            m0 = rng.randint(1, 20)
            try:
                got = threshold_index(seq6.alpha_gap, delta, m0, l, seq6.horizon)
            except HorizonError:
                continue
            m = m0
            while not delta * seq6.alpha_gap(m) < l:
                m += 1
            assert got == m

    def test_horizon_exhausted(self):
        with pytest.raises(HorizonError):
            threshold_index(lambda m: F(1, 2), 1, 1, F(1, 10), 50)


class TestSharedCore:
    def test_first_index_probe_order(self):
        probes = []

        def at_least_seven(m):
            probes.append(m)
            return m >= 7

        assert first_index(at_least_seven, 1, 100) == 7
        assert probes[:4] == [1, 2, 4, 8]  # lo, then gallop lo+1, lo+3, lo+7
        assert probes[4:] == [6, 7]  # then bisect the bracket (4, 8]
        assert first_index(lambda m: True, 3, 9) == 3
        with pytest.raises(HorizonError):
            first_index(lambda m: False, 1, 9)

    def test_first_index_stays_near_the_answer(self):
        # a huge hi must not be probed: geometric presets search up to 2^62 - 1,
        # where one probe would evaluate r ** (2^62 - 1)
        probes = []

        def at_least_seven(m):
            if m > 14:
                raise AssertionError(f"probed m={m}, twice past the answer")
            probes.append(m)
            return m >= 7

        assert first_index(at_least_seven, 1, 2 ** 62 - 1) == 7
        assert max(probes) <= 14

    def test_first_index_least_index_and_horizon(self):
        for lo in range(1, 6):
            for hi in range(lo, 30):
                for answer in range(lo, hi + 1):
                    assert first_index(lambda m: m >= answer, lo, hi) == answer
                with pytest.raises(HorizonError):
                    first_index(lambda m: m > hi, lo, hi)

    def test_first_index_matches_the_reference_search(self):
        # both searches on seeded brackets up to 10^18 wide: the same index,
        # no probe of the new one past twice the answer, and no more probes
        rng = random.Random(2029)
        counts = {first_index: 0, gallop_and_halve: 0}
        for _ in range(5000):
            lo = rng.randint(1, 50)
            answer = lo + rng.randint(0, 10 ** rng.randint(0, 6))
            hi = rng.randint(answer, 10 ** rng.randint(len(str(answer)), 18))
            for search in counts:
                probes = []

                def at_least(m):
                    probes.append(m)
                    return m >= answer

                assert search(at_least, lo, hi) == answer, (search, lo, hi, answer)
                counts[search] += len(probes)
                if search is first_index:
                    assert max(probes) <= lo + 2 * (answer - lo), (lo, hi, answer)
        assert counts[first_index] <= counts[gallop_and_halve]

    def test_check_convex_range(self):
        # positivity is required on [lo, hi]; the value at hi + 1 only has to
        # be below seq(hi) with a gap no larger than the one before it
        values = check_convex(lambda m: F(3 - m), 1, 2)
        assert values == {1: F(2), 2: F(1), 3: F(0)}
        with pytest.raises(ValueError):
            check_convex(lambda m: F(3 - m), 1, 3)
        with pytest.raises(ValueError):
            check_convex(lambda m: [F(1), F(1, 2), F(5, 12), F(1, 4)][m - 1], 1, 3)

    def test_check_convex_matches_three_condition_definition(self):
        rng = random.Random(20261018)
        accepted_count = 0
        for _ in range(3000):
            # mostly near-convex draws, so both verdicts occur often
            gaps = [F(rng.randint(-1, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
            gaps.sort(reverse=rng.random() < 0.8)
            values = [F(rng.randint(-2, 12), rng.randint(1, 3))]
            for g in gaps:
                values.append(values[-1] - g)
            if rng.random() < 0.3:
                values[rng.randrange(len(values))] = F(rng.randint(-2, 12), rng.randint(1, 3))
            hi = len(values) - 1  # values holds seq(1..hi+1); hi = 0 is the empty range
            diffs = [values[i] - values[i + 1] for i in range(hi)]
            expected = (all(v > 0 for v in values[:hi]) and all(d > 0 for d in diffs)
                        and all(b <= a for a, b in zip(diffs, diffs[1:])))
            try:
                got = check_convex(lambda m: values[m - 1], 1, hi)
            except ValueError as err:
                assert not expected, values
                m = int(str(err).partition("m=")[2].split(":")[0])
                assert 1 <= m <= hi  # the message names an index in range
            else:
                assert expected, values
                assert got == {m: values[m - 1] for m in range(1, hi + 2)}
                accepted_count += 1
        assert 300 < accepted_count < 2700


class TestHorizonCap:
    @staticmethod
    def never(m):
        raise AssertionError("sequence evaluated past the horizon cap")

    def test_build_mu_refuses_before_reading_tables(self):
        with pytest.raises(ValueError, match="horizon must be in"):
            build_mu({0: None}, MAX_HORIZON + 1)  # not a table, and never read

    def test_check_convex_refuses_before_evaluating(self):
        with pytest.raises(ValueError, match="exceed MAX_HORIZON"):
            check_convex(self.never, 5, 5 + MAX_HORIZON)
        with pytest.raises(ValueError, match="exceed MAX_HORIZON"):
            decompose_translates(Interval.open(0, F(1, 10)), self.never, 1, 1,
                                 MAX_HORIZON + 1)


class TestDecompose:
    def test_harmonic_frozen(self):
        got = decompose_translates(Interval.open(0, F(1, 10)), harmonic, 1, 1, 400)
        assert got.threshold == 3
        assert got.disjoint_part == normalize([Interval.open(-1, F(-9, 10)),
                                               Interval.open(F(-1, 2), F(-2, 5))])
        assert got.overlap_part == Interval.open(F(-1, 3), F(1, 10))
        assert got.truncated_overlap == Interval.open(F(-1, 3), F(1, 10) - F(1, 400))

    def test_no_disjoint_part(self):
        iv = Interval.open(0, 1)
        got = decompose_translates(iv, harmonic, 1, 1, 50)
        assert got.threshold == 1
        assert got.disjoint_part.is_empty

    def test_brute_force_equality(self, seq6):
        rng = random.Random(777)
        horizon = 450
        for _ in range(30):
            lo = F(rng.randint(-40, 40), rng.randint(1, 12))
            length = F(1, rng.randint(2, 300))
            delta = F(rng.randint(1, 6), rng.randint(1, 6))
            m0 = rng.randint(1, 10)
            iv = Interval.open(lo, lo + length)
            got = decompose_translates(iv, seq6.alpha_at, delta, m0, horizon)
            brute = normalize([iv.translate(-delta * seq6.alpha_at(m))
                               for m in range(m0, horizon + 1)])
            assert got.truncated_union() == brute
            assert got.disjoint_part.measure() == (got.threshold - m0) * length

    def test_gap_monotonicity_enforced(self):
        def wobble(m):
            return [F(1), F(1, 2), F(5, 12), F(1, 4), F(1, 5)][m - 1]

        with pytest.raises(ValueError):
            decompose_translates(Interval.open(0, F(1, 100)), wobble, 1, 1, 3)


class TestSlowDecay:
    def test_default_passes(self, ladder6, seq6):
        report = verify_slow_decay(ladder6, seq6, 1, 1, range(1, 7))
        assert report.passed, report.violations
        assert report.n_start == 2
        assert {e.n for e in report.entries} == {2, 3, 4, 5, 6}
        for e in report.entries:
            assert e.threshold <= e.breakpoint
            assert e.alpha_at_threshold >= F(1, e.n + 1)

    def test_small_delta_excludes_low_levels(self, ladder6, seq6):
        assert slow_decay_start(seq6, F(1, 3), 1) == 4
        report = verify_slow_decay(ladder6, seq6, F(1, 3), 1, range(1, 7))
        assert all(e.n >= 4 for e in report.entries)
        assert report.passed, report.violations

    def test_alpha_below_the_next_reciprocal_is_a_violation(self):
        # delta = 64 pushes the level-2 threshold past N_2 into block 3,
        # where alpha has fallen to 1/4 < 1/3
        ladder = build_cantor(MiddleThirdOracle(), depth=8)
        seq = build_mu({0: [ladder.gap_length(n) for n in range(1, 9)]}, 2000)
        report = verify_slow_decay(ladder, seq, 64, 1, range(1, 7))
        assert "n=2: alpha at threshold 1/4 below 1/3" in report.violations
        assert not report.passed


class TestCoverage:
    def test_residual_and_uncovered_monotone(self, ladder6, seq6):
        base = coverage01(ladder6, seq6, 1, 1, N=3, M=60)
        more_m = coverage01(ladder6, seq6, 1, 1, N=3, M=120)
        more_n = coverage01(ladder6, seq6, 1, 1, N=4, M=120)
        assert more_m.uncovered_measure <= base.uncovered_measure
        assert more_n.uncovered_measure <= more_m.uncovered_measure
        assert more_m.residual_measure <= base.residual_measure

    def test_residual_vanishes_with_m0_one(self, ladder6, seq6):
        report = coverage01(ladder6, seq6, 1, 1, N=3, M=60)
        assert report.residual_measure == 0

    def test_bound_when_dominated(self, ladder12, seq12):
        # every threshold lies within M here, and the bound is below the
        # window measure, so the pass is not vacuous
        for N in (1, 2, 3):
            report = coverage01(ladder12, seq12, 1, 1, N=N, M=seq12.horizon)
            assert report.bound is not None, N
            assert report.bound < 1, N
            assert report.uncovered_measure <= report.bound, N
            assert report.passed, N

    @pytest.mark.parametrize("N, delta, m0, M", [(1, F(1, 2), 5, 15), (2, F(1, 10), 5, 45),
                                                 (3, F(1, 4), 20, 60)])
    def test_residual_and_uncovered_are_exactly_the_translates_m0_to_M(self, ladder6, seq6,
                                                                      N, delta, m0, M):
        # the oracle materializes every translate one by one; the chain with
        # one translate more at either end differs, so a range off by one fails
        window = Interval.half_open(0, 1)

        def chain(first, last):
            residual = IntervalSet((window,))
            for m in range(first, last + 1):
                residual = residual.intersect(ladder6.remnant_set(N).translate(
                    -delta * seq6.alpha_at(m)))
            return residual

        report = coverage01(ladder6, seq6, delta, m0, N, M)
        expected = chain(m0, M)
        assert report.residual == expected
        assert report.residual_measure == expected.measure() > 0
        assert chain(m0, M + 1) != expected and chain(m0 - 1, M) != expected
        covered = normalize([part.translate(-delta * seq6.alpha_at(m))
                             for m in range(m0, M + 1)
                             for part in ladder6.open_sets_through(N)])
        assert report.uncovered_measure == covered.complement_within(window).measure()

    def test_the_ends_of_the_parameter_ranges_are_accepted(self, ladder6, seq6):
        # N = depth and m0 = M are the last values the checks let through;
        # a single translate leaves [0,1) intersected with that one translate
        deepest = coverage01(ladder6, seq6, 1, 1, N=6, M=40)
        assert deepest.N == 6
        assert deepest.uncovered_measure <= coverage01(ladder6, seq6, 1, 1, N=5, M=40).uncovered_measure
        single = coverage01(ladder6, seq6, F(1, 2), 7, N=2, M=7)
        translate = ladder6.remnant_set(2).translate(-F(1, 2) * seq6.alpha_at(7))
        assert single.residual == IntervalSet((Interval.half_open(0, 1),)).intersect(translate)
        assert single.residual_measure > 0

    def test_json_shape(self, ladder6, seq6):
        d = coverage01(ladder6, seq6, 1, 1, N=2, M=40).to_json_dict()
        for key in ("N", "M", "delta", "uncovered_measure", "residual_measure",
                    "bound", "pass"):
            assert key in d

    def test_parameter_validation(self, ladder6, seq6):
        with pytest.raises(ValueError):
            coverage01(ladder6, seq6, 1, 1, N=9, M=40)
        with pytest.raises(ValueError):
            coverage01(ladder6, seq6, 1, 5, N=2, M=4)


class TestRefusals:
    """Every refusal by exception type and a fragment of its message."""

    @pytest.mark.parametrize("call, error, fragment", [
        (lambda l, s: build_mu({}, 10), ValueError, "need at least one gap table"),
        (lambda l, s: build_mu({2: [F(1, 3), F(1, 9)]}, 10), ValueError,
         "no gap table with |k| <= 1"),
        (lambda l, s: threshold_index(s.alpha_gap, 0, 1, F(1, 9), 50), ValueError,
         "delta and l must be positive"),
        (lambda l, s: threshold_index(s.alpha_gap, 1, 1, 0, 50), ValueError,
         "delta and l must be positive"),
        (lambda l, s: threshold_index(s.alpha_gap, 1, 0, F(1, 9), 50), ValueError,
         "need 1 <= m0 <= horizon"),
        (lambda l, s: threshold_index(s.alpha_gap, 1, 51, F(1, 9), 50), ValueError,
         "need 1 <= m0 <= horizon"),
        (lambda l, s: decompose_translates(Interval.closed(0, F(1, 9)), harmonic, 1, 1, 10),
         ValueError, "needs a nondegenerate open interval"),
        (lambda l, s: decompose_translates(Interval.open(0, F(1, 9)), harmonic, 0, 1, 10),
         ValueError, "delta must be positive"),
        (lambda l, s: decompose_translates(Interval.open(0, F(1, 9)), harmonic, 1, 5, 5),
         ValueError, "need 1 <= m0 < m_horizon"),
        (lambda l, s: verify_slow_decay(l, s, 1, 1, [7]), ValueError,
         "level 7 beyond construction depth 6"),
        (lambda l, s: verify_slow_decay(l, build_mu({0: [F(1, 3 ** n) for n in range(2, 8)]},
                                                     50), 1, 1, [5]),
         HorizonError, "level 5 beyond materialized blocks 3"),
        (lambda l, s: coverage01(l, s, 0, 1, 1, 5), ValueError, "delta must be positive"),
    ], ids=["build_mu-no-tables", "build_mu-no-window", "threshold-delta", "threshold-l",
            "threshold-m0-zero", "threshold-m0-past-horizon", "decompose-closed",
            "decompose-delta", "decompose-horizon", "slow-decay-depth", "slow-decay-blocks",
            "coverage01-delta"])
    def test_refused(self, ladder6, seq6, call, error, fragment):
        with pytest.raises(error) as err:
            call(ladder6, seq6)
        assert fragment in str(err.value)
