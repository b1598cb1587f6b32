import json
import random
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from affcopy import avoider, presets
from affcopy.avoider import (AvoiderConstruction, EmbeddingSearchError,
                             ThresholdSequence, build_avoider, delta0_of,
                             enumerate_base, find_embedding, measure_union_translates,
                             plan_budget, summability_report, thresholdize)
from affcopy.intervals import Interval, IntervalSet, normalize
from affcopy.slowseq import MAX_HORIZON, HorizonError

F = Fraction


def harmonic_eta():
    return ThresholdSequence.from_convex(lambda m: F(1, m))


@pytest.fixture(scope="module")
def eta_harmonic():
    return harmonic_eta()


class TestThresholdize:
    def test_convex_source_is_fixed(self):
        t = thresholdize([F(1, m) for m in range(1, 25)])
        assert all(t.eta(m) == F(1, m) for m in range(1, 25))

    def test_recurrence_frozen(self):
        t = thresholdize([F(1), F(9, 10), F(1, 5), F(1, 10), F(1, 20)])
        assert [t.eta(m) for m in range(1, 6)] == [F(1), F(9, 10), F(4, 5), F(7, 10), F(3, 5)]

    def test_dominates_source_and_invariants_random(self):
        rng = random.Random(1318)
        horizon = 1000
        started = time.monotonic()
        for case in range(1000):
            den = 10 ** 6 + rng.randint(0, 10 ** 6)
            nums = sorted(rng.sample(range(1, 10 ** 9), horizon), reverse=True)
            values = [F(n, den) for n in nums]
            t = thresholdize(values)
            probes = [1, 2, 3, horizon // 2, horizon - 2] + \
                [rng.randint(1, horizon - 2) for _ in range(8)]
            for m in probes:
                assert t.eta(m) >= values[m - 1]
                assert t.eta(m) > t.eta(m + 1)
                assert t.eta_gap(m) >= t.eta_gap(m + 1)
            assert t.eta(horizon - 1) > t.eta(horizon) >= values[horizon - 1]
        assert time.monotonic() - started < 60

    def test_horizon_past_the_cap_is_refused_before_evaluating(self):
        with pytest.raises(ValueError, match="exceed MAX_HORIZON"):
            thresholdize(range(MAX_HORIZON + 1, 0, -1))  # ints, never converted

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            thresholdize([F(1), F(1, 2), F(1, 2)])

    def test_gap_outside_the_horizon_is_refused(self):
        # eta_gap(0) reads eta(0): neither a wrap to the last listed value
        # nor a formula value outside 1..horizon
        for t in (thresholdize([F(1), F(1, 2), F(1, 3)]),
                  ThresholdSequence.from_convex(lambda m: F(1, m + 1))):
            with pytest.raises(HorizonError):
                t.eta_gap(0)
            with pytest.raises(HorizonError):
                t.eta_gap(t.horizon)

    def test_is_frozen(self):
        t = thresholdize([F(1), F(1, 2), F(1, 3)])
        with pytest.raises(FrozenInstanceError):
            t.horizon = 10
        assert t.horizon == 3

    def test_convex_wrapper_validates(self):
        with pytest.raises(ValueError):
            ThresholdSequence.from_convex(lambda m: F(1, 2))  # not decreasing
        with pytest.raises(ValueError):
            # gaps increase: 1, 9/10, 1/5 drops faster later
            values = {1: F(1), 2: F(9, 10), 3: F(1, 5), 4: F(1, 10)}
            ThresholdSequence.from_convex(lambda m: values.get(m, F(1, 10 * m)))


class TestThresholdSequenceFrom:
    def test_sequence_file_is_truncated_to_the_horizon(self, tmp_path):
        path = tmp_path / "beta.json"
        path.write_text(json.dumps([f"1/{m}" for m in range(1, 200)]))
        assert presets.threshold_sequence_from(str(path)).horizon == 199
        t = presets.threshold_sequence_from(str(path), 11)
        assert t.horizon == 11
        assert [t.eta(m) for m in range(1, 12)] == [F(1, m) for m in range(1, 12)]

    def test_iterlog_is_materialized_over_the_horizon(self):
        assert presets.threshold_sequence_from("iterlog:1").horizon == \
            presets.MATERIALIZED_HORIZON
        assert presets.threshold_sequence_from("iterlog:1", 500).horizon == 500

    @pytest.mark.parametrize("horizon", [None, 1, 500, MAX_HORIZON])
    def test_convex_preset_keeps_the_formula_horizon(self, horizon):
        t = presets.threshold_sequence_from("harmonic", horizon)
        assert t.horizon == avoider.FORMULA_HORIZON

    @pytest.mark.parametrize("horizon", [0, MAX_HORIZON + 1])
    def test_bad_horizon_is_refused_before_any_value(self, horizon, tmp_path, monkeypatch):
        def never(*args):
            raise AssertionError("a value was computed for a bad horizon")

        class NoSequence:
            from_convex = staticmethod(never)

        monkeypatch.setattr(presets, "_iterated_floor_log", never)
        monkeypatch.setattr(presets, "ThresholdSequence", NoSequence)
        # not a valid source either: only the horizon check may name it
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(["1/2"] * 10))
        for spec in (str(path), "harmonic", "iterlog:1"):
            with pytest.raises(ValueError, match="horizon must be in"):
                presets.threshold_sequence_from(spec, horizon)


class TestBase:
    def test_first_interval(self):
        assert enumerate_base(1) == Interval.open(F(1, 4), F(3, 4))

    def test_level_two(self):
        assert enumerate_base(2) == Interval.open(F(1, 8), F(3, 8))
        assert enumerate_base(4) == Interval.open(F(5, 8), F(7, 8))

    def test_deterministic(self):
        assert all(enumerate_base(n) == enumerate_base(n) for n in range(1, 50))

    def test_is_a_base_of_unit_interval(self):
        rng = random.Random(52)
        for _ in range(40):
            lo = F(rng.randint(0, 90), 100)
            hi = lo + F(rng.randint(1, 100 - int(lo * 100)), 100)
            hi = min(hi, F(99, 100))
            if lo >= hi:
                continue
            target = Interval.open(lo, hi)
            hit = None
            for n in range(1, 2 ** 12):
                v = enumerate_base(n)
                if target.lo <= v.lo and v.hi <= target.hi:
                    hit = v
                    break
            assert hit is not None, f"no base interval inside {target}"


class TestBudget:
    def test_harmonic_n2_frozen(self, eta_harmonic):
        b = plan_budget(eta_harmonic, 2)
        assert b.K == 10
        assert b.lam == min(enumerate_base(2).length, F(1, 4), F(1, 110)) == F(1, 110)
        assert b.T == 11

    def test_lambda_capped_by_powers_of_two(self, eta_harmonic):
        for n in range(1, 13):
            assert plan_budget(eta_harmonic, n).lam <= F(1, 2 ** n)

    def test_T_exceeds_K(self, eta_harmonic):
        for n in range(1, 13):
            b = plan_budget(eta_harmonic, n)
            assert b.T > b.K

    def test_horizon_exhaustion(self):
        t = thresholdize([F(1, m) for m in range(1, 12)])
        with pytest.raises(HorizonError):
            plan_budget(t, 4)  # needs eta below 1/16, never reached


class TestBuildAvoider:
    def test_depth_one_frozen(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 1)
        hole = a.holes[0].interval
        assert a.holes[0].budget.lam == F(1, 20)
        assert hole == Interval.open(F(19, 40), F(21, 40))
        assert a.avoider == normalize([Interval.closed(0, F(19, 40)),
                                       Interval.closed(F(21, 40), 1)])

    def test_positive_measure(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 16)
        floor = 1 - sum(F(1, 2 ** n) for n in range(1, 17))
        assert a.avoider.measure() >= floor > 0

    def test_holes_inside_bases_and_missing(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 12)
        for h in a.holes:
            assert h.budget.base.lo < h.interval.lo < h.interval.hi < h.budget.base.hi
            assert a.avoider.intersect(IntervalSet((h.interval,))).is_empty

    def test_closed_endpoints_survive(self, eta_harmonic):
        # endpoints of the removed open components stay in the closed avoider
        a = build_avoider(eta_harmonic, 6)
        removed = normalize([h.interval for h in a.holes])
        for part in removed:
            assert a.avoider.contains_point(part.lo)
            assert a.avoider.contains_point(part.hi)
        for p in a.avoider.parts:
            assert p.lo_closed and p.hi_closed

    def test_endpoint_cap_sits_between_the_presets_and_str(self):
        # hole 25 of geometric:99/100 is the longest within MAX_DEPTH; a cap
        # that lets str() write every accepted endpoint
        a = build_avoider(presets.threshold_sequence_from("geometric:99/100"), 32)
        bits = [h.interval.lo.denominator.bit_length() for h in a.holes]
        assert max(bits) == bits[24] == 8526 < avoider.MAX_ENDPOINT_BITS
        assert len(str(2 ** avoider.MAX_ENDPOINT_BITS)) <= sys.int_info.default_max_str_digits

    def test_first_hole_past_the_endpoint_cap_is_refused(self, eta_harmonic, monkeypatch):
        bits = [max(x.denominator.bit_length() for x in (h.interval.lo, h.interval.hi))
                for h in build_avoider(eta_harmonic, 8).holes]
        cap = bits[4] - 1
        first = next(n for n, b in enumerate(bits, 1) if b > cap)
        monkeypatch.setattr(avoider, "MAX_ENDPOINT_BITS", cap)
        with pytest.raises(ValueError, match=f"^hole n={first}: endpoints of {bits[first - 1]} "
                                             f"bits exceed MAX_ENDPOINT_BITS = {cap}$"):
            build_avoider(eta_harmonic, 8)


class TestMeasureIdentity:
    def test_frozen_example(self, eta_harmonic):
        got = measure_union_translates(Interval.open(0, F(1, 10)), eta_harmonic, 10)
        assert got.threshold == 3
        assert got.kernel_measure == F(8, 15)
        assert got.closed_form == F(8, 15)
        assert got.limit == F(3, 10) + F(1, 3)
        assert got.identity_ok

    def test_extending_m_adds_eta_difference(self, eta_harmonic):
        hole = Interval.open(F(1, 3), F(1, 3) + F(1, 7))
        a = measure_union_translates(hole, eta_harmonic, 12)
        b = measure_union_translates(hole, eta_harmonic, 30)
        assert b.kernel_measure - a.kernel_measure == eta_harmonic.eta(12) - eta_harmonic.eta(30)

    def test_wide_hole_single_block(self, eta_harmonic):
        hole = Interval.open(0, F(2, 3))  # wider than eta_1 - eta_2
        got = measure_union_translates(hole, eta_harmonic, 5)
        assert got.threshold == 1
        assert got.kernel_measure == F(2, 3) + eta_harmonic.eta(1) - eta_harmonic.eta(5)

    def test_random_instances(self):
        rng = random.Random(2601)
        for _ in range(40):
            c = F(rng.randint(1, 6), rng.randint(1, 4))
            s = rng.randint(0, 5)
            t = ThresholdSequence.from_convex(lambda m, c=c, s=s: c / (m + s))
            lo = F(rng.randint(-20, 20), rng.randint(1, 9))
            hole = Interval.open(lo, lo + F(1, rng.randint(2, 60)))
            got = measure_union_translates(hole, t, rng.randint(1, 40) + 60)
            assert got.identity_ok

    def test_m_below_threshold_rejected(self, eta_harmonic):
        with pytest.raises(ValueError):
            measure_union_translates(Interval.open(0, F(1, 10)), eta_harmonic, 2)


class TestTranslateSqueeze:
    def test_union_measure_bracket_and_monotone_descent(self):
        # for any hole and bounded alpha, the swept measure sits between
        # lambda and lambda + delta*(max - min), and shrinks with delta
        t = ThresholdSequence.from_convex(lambda m: F(1, m + 1))
        a = build_avoider(t, 6)
        rng = random.Random(3141)
        alpha = [F(rng.randint(-40, 40), rng.randint(8, 64)) for _ in range(30)]
        spread = max(alpha) - min(alpha)
        for h in a.holes:
            lam = h.interval.length
            previous = None
            delta = F(1)
            for _ in range(8):
                swept = normalize([h.interval.translate(-delta * al)
                                   for al in alpha]).measure()
                assert lam <= swept <= lam + delta * spread
                if previous is not None:
                    assert swept <= previous
                previous = swept
                delta /= 2


class TestSummability:
    def test_harmonic_depth_20(self, eta_harmonic):
        report = summability_report(eta_harmonic, 20)
        assert report.passed, report.violations
        assert report.sum_inverse_squares == sum(F(1, n * n) for n in range(1, 21))
        assert report.sum_eta_half_T <= report.sum_inverse_squares


class TestDelta0:
    def test_geometric_alpha(self, eta_harmonic):
        alpha = [F(1, 2 ** m) for m in range(1, 11)]
        assert delta0_of(alpha, eta_harmonic) == 1

    def test_half_eta(self, eta_harmonic):
        alpha = [eta_harmonic.eta(m) / 2 for m in range(1, 11)]
        assert delta0_of(alpha, eta_harmonic) == 1

    def test_scaling(self, eta_harmonic):
        alpha = [F(1, 2 ** m) for m in range(1, 11)]
        scaled = [3 * a for a in alpha]
        assert delta0_of(scaled, eta_harmonic) == delta0_of(alpha, eta_harmonic) / 3

    def test_all_zero_unconstrained(self, eta_harmonic):
        assert delta0_of([F(0)] * 5, eta_harmonic) is None


class TestFindEmbedding:
    def test_depth_zero_trivial(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 0)
        alpha = [F(1, 2 ** m) for m in range(1, 8)]
        cert = find_embedding(a, alpha, eta_harmonic)
        assert cert.delta == F(1, 2)  # delta0 = 1, first rung
        assert cert.residual_measure > 0
        assert cert.delta0 == 1

    def test_moderate_depth_verified(self):
        t = ThresholdSequence.from_convex(lambda m: F(1, m + 1))
        a = build_avoider(t, 16)
        alpha = [F(1, 2 ** m) for m in range(1, 41)]
        cert = find_embedding(a, alpha, t)
        for m, al in enumerate(alpha, 1):
            assert a.avoider.contains_point(cert.t + cert.delta * al)
        # halving delta again still succeeds with positive residual measure
        deeper = find_embedding(a, alpha, t, i_max=40)
        assert deeper.delta == cert.delta
        unit = IntervalSet((Interval.closed(0, 1),))
        half = cert.delta / 2
        residual = unit
        for al in alpha:
            residual = residual.intersect(a.avoider.translate(-half * al))
        assert residual.measure() > 0

    def test_negative_and_zero_entries_allowed(self):
        t = ThresholdSequence.from_convex(lambda m: F(1, m + 1))
        a = build_avoider(t, 8)
        alpha = [F(0), F(-1, 8), F(1, 16), F(-1, 64), F(0), F(1, 128)]
        cert = find_embedding(a, alpha, t)
        for m, al in enumerate(alpha, 1):
            assert a.avoider.contains_point(cert.t + cert.delta * al)

    def test_exhausted_ladder_reports_trace(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 4)
        # a sliver avoider far from where the translates land: every rung fails
        alpha = [F(10 ** 9)]
        bad = AvoiderConstruction(depth=0, holes=(),
                                  avoider=IntervalSet((Interval.closed(0, F(1, 10 ** 12)),)))
        with pytest.raises(EmbeddingSearchError) as err:
            find_embedding(bad, alpha, eta_harmonic, i_max=3)
        assert len(err.value.trace) == 3
