import random
from fractions import Fraction

import pytest

from affcopy.cantor import MiddleThirdOracle, build_cantor
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
