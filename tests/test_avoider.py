import json
import random
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import fraction_kernel as ref
from affcopy import avoider, presets
from affcopy.avoider import (AvoiderConstruction, EmbeddingSearchError,
                             ThresholdSequence, build_avoider, delta0_of,
                             enumerate_base, find_embedding, measure_union_translates,
                             plan_budget, summability_report, thresholdize)
from affcopy.intervals import Interval, IntervalSet, intersection_of_translates, normalize
from affcopy.slowseq import MAX_HORIZON, HorizonError, first_index

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

    @pytest.mark.parametrize("n, target", [(2, "1/4"), (3, "1/9")])
    def test_cutoff_past_the_horizon_names_the_hole(self, n, target):
        # eta = 1/2..1/9: hole 2's cutoff K = 8 has no gap eta_8 - eta_9, and
        # no eta falls below hole 3's target 1/9 at all
        t = thresholdize([F(1, m) for m in range(2, 10)])
        with pytest.raises(HorizonError, match=f"^hole n={n}: no cutoff K = 2m with eta_m < "
                                               f"{target} has an eta gap within the sequence "
                                               f"horizon 8$"):
            plan_budget(t, n)


class TestBuildAvoider:
    def test_depth_one_frozen(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 1)
        hole = a.holes[0].interval
        assert a.holes[0].lam == F(1, 20)
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
            assert h.base.lo < h.interval.lo < h.interval.hi < h.base.hi
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


def _scanned_threshold(t, lam):
    """First m whose eta gap is below lam, by a linear scan; None past the horizon."""
    return next((m for m in range(1, t.horizon) if t.eta(m) - t.eta(m + 1) < lam), None)


class TestOverlapBudget:
    @pytest.mark.parametrize("beta", ["harmonic", "polynomial:2", "listed"])
    def test_threshold_and_limit_match_a_linear_scan(self, beta):
        rng = random.Random(f"overlap {beta}")
        if beta == "listed":
            # the recurrence lifts about half of these values
            t = thresholdize([F(1, m) - F(rng.randint(0, 10 ** 3), 10 ** 9)
                              for m in range(1, 401)])
        else:
            t = presets.threshold_sequence_from(beta)
        for _ in range(30):
            lam = t.eta_gap(rng.randint(1, 300)) * F(rng.randint(500, 1500), 1000)
            lo = F(rng.randint(-50, 50), 7)
            T = _scanned_threshold(t, lam)
            M = rng.randint(T, min(T + 40, t.horizon, avoider.MAX_M))
            got = measure_union_translates(Interval.open(lo, lo + lam), t, M)
            assert got.threshold == T
            assert got.limit == T * lam + t.eta(T)
            assert got.closed_form == got.limit - t.eta(M)
            assert got.identity_ok
        if beta == "listed":  # gaps never increase: none falls below the last
            lam = t.eta_gap(t.horizon - 1)
            assert _scanned_threshold(t, lam) is None
            with pytest.raises(HorizonError, match="no eta gap falls below the hole length"):
                measure_union_translates(Interval.open(0, lam), t, t.horizon)

    def test_every_hole_carries_its_geometry_and_budget(self, eta_harmonic):
        for h in build_avoider(eta_harmonic, 16).holes:
            assert h.interval.is_open
            assert h.interval.midpoint() == h.base.midpoint()
            assert h.interval.length == h.lam
            assert h.T == _scanned_threshold(eta_harmonic, h.lam)
            assert h.tail == h.T * h.lam + eta_harmonic.eta(h.T)


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

    def test_a_late_cutoff_fails(self, eta_harmonic, monkeypatch):
        # K/2 must be the first m with eta_m < 1/n^2; a search answering one
        # index late still leaves eta at K/2 below 1/n^2 and K even
        monkeypatch.setattr(avoider, "first_index",
                            lambda pred, lo, hi: first_index(pred, lo, hi) + 1)
        report = summability_report(eta_harmonic, 6)
        assert report.violations == tuple(
            f"n={n}: K/2 is not the first m with eta_m below 1/{n * n}" for n in range(1, 7))


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

    def test_the_int_minimum_is_the_fraction_minimum(self):
        # seeded vectors of Fractions, ints and 'p/q' strings holding zeros,
        # negatives and ties, over two eta sequences; the reference takes the
        # minimum of the Fraction caps eta_m/(2|alpha_m|)
        rng = random.Random(59)
        etas = (harmonic_eta(), thresholdize([F(3, m + 2) for m in range(1, 41)]))
        seen = {"zero": 0, "negative": 0, "int": 0, "string": 0, "tie": 0, "none": 0}
        for _ in range(1500):
            t = rng.choice(etas)
            vector, nonzero = [], rng.choice((0.9, 0.5, 0))  # 0: an all-zero vector
            for _ in range(rng.randint(1, 40)):
                a = F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < nonzero else F(0)
                vector.append(rng.choice((a, str(a), a.numerator) if a.denominator == 1
                                         else (a, str(a))))
            caps = [t.eta(m) / (2 * abs(F(a))) for m, a in enumerate(vector, 1) if F(a)]
            got = delta0_of(vector, t)
            assert got == min(caps, default=None)
            assert got is None or type(got) is F
            seen["zero"] += any(not F(a) for a in vector)
            seen["negative"] += any(F(a) < 0 for a in vector)
            seen["int"] += any(type(a) is int for a in vector)
            seen["string"] += any(type(a) is str for a in vector)
            seen["tie"] += len(caps) > len(set(caps))
            seen["none"] += got is None
        assert min(seen.values()) > 20, seen


class TestFindEmbedding:
    def test_depth_zero_trivial(self, eta_harmonic):
        a = build_avoider(eta_harmonic, 0)
        alpha = [F(1, 2 ** m) for m in range(1, 8)]
        cert = find_embedding(a, alpha, eta_harmonic)
        assert cert.delta == F(1, 2)  # delta0 = 1, first rung
        assert cert.residual_measure > 0
        assert cert.delta0 == 1
        assert cert.budget_lower_bound == 1  # no holes, nothing swept

    def test_moderate_depth_verified(self):
        t = ThresholdSequence.from_convex(lambda m: F(1, m + 1))
        a = build_avoider(t, 16)
        alpha = [F(1, 2 ** m) for m in range(1, 41)]
        cert = find_embedding(a, alpha, t)
        for m, al in enumerate(alpha, 1):
            assert a.avoider.contains_point(cert.t + cert.delta * al)
        # each hole's swept measure is at least its length (here the bound is negative)
        assert cert.budget_lower_bound <= a.avoider.measure()
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

    def test_rungs_at_or_above_one_are_skipped(self, eta_harmonic):
        # alpha_m = 2^-m / 8 gives delta0 = 8: rungs 4, 2 and 1 are skipped
        a = build_avoider(eta_harmonic, 4)
        alpha = [F(1, 2 ** m) / 8 for m in range(1, 9)]
        cert = find_embedding(a, alpha, eta_harmonic)
        assert cert.delta0 == 8
        assert cert.trace[0][0] == F(1, 2)
        assert cert.delta == F(1, 2)
        for al in alpha:
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


def _crafted_set(rng):
    """A seeded union of up to 6 parts with ends on a grid over [-1/2, 3/2]:
    open, closed and half-open parts, points, parts past either end of [0,1]
    and the empty set all occur."""
    parts = []
    for _ in range(rng.randint(0, 6)):
        lo = F(rng.randint(-20, 60), 40)
        if rng.random() < 0.2:
            parts.append(Interval.point(lo))
        else:
            hi = lo + F(rng.randint(1, 30), rng.choice((40, 41, 60)))
            parts.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(parts)


class TestTranslateResidual:
    """The kernel's hull-minus-gap-union residual, against the reference
    chain that intersects [0,1] with every translate of the set itself."""

    UNIT = IntervalSet((Interval.closed(0, 1),))

    def chain(self, A, shifts):
        """[0,1] intersected with every translate A + s, one at a time on
        the reference kernel."""
        out = self.UNIT
        for shift in shifts:
            out = ref.intersect(out, ref.translate(A, shift))
        return out

    def test_equals_the_chain_of_intersections(self):
        rng = random.Random(3101)
        seen = dict.fromkeys(("empty set", "open end", "point", "outside [0,1]",
                              "zero shift", "empty residual", "point residual",
                              "positive residual"), 0)
        for _ in range(500):
            A = _crafted_set(rng)
            parts = A.parts
            seen["empty set"] += not parts
            seen["open end"] += bool(parts) and not (parts[0].lo_closed and parts[-1].hi_closed)
            seen["point"] += any(p.lo == p.hi for p in parts)
            seen["outside [0,1]"] += bool(parts) and (parts[0].lo < 0 or parts[-1].hi > 1)
            for _ in range(3):
                shifts = [F(rng.randint(-30, 30), rng.choice((40, 41, 97))) * rng.randint(0, 1)
                          for _ in range(rng.randint(1, 8))]
                seen["zero shift"] += 0 in shifts
                expected = self.chain(A, shifts)
                assert intersection_of_translates(A, shifts, self.UNIT) == expected, (
                    str(A), [str(s) for s in shifts])
                measure = expected.measure()
                seen["empty residual"] += expected.is_empty
                seen["point residual"] += bool(expected) and measure == 0
                seen["positive residual"] += measure > 0
        assert all(seen.values()), seen

    def test_every_rung_of_the_search_matches_the_chain(self, eta_harmonic):
        # the trace's measures, and the witness at the certified rung, are
        # those of the chain; negative and zero entries and ladders that run
        # out are among the draws
        rng = random.Random(3102)
        certified = exhausted = 0
        for _ in range(150):
            A = _crafted_set(rng)
            alpha = [F(rng.randint(-40, 40), rng.choice((1, 7, 40))) * rng.randint(0, 1)
                     for _ in range(rng.randint(1, 6))]
            construction = AvoiderConstruction(depth=0, holes=(), avoider=A)
            try:
                cert = find_embedding(construction, alpha, eta_harmonic, i_max=6)
            except EmbeddingSearchError as err:
                trace, t_star = err.trace, None
                exhausted += 1
            else:
                trace, t_star = cert.trace, cert.t
                certified += 1
            assert trace
            for delta, measure in trace:
                chain = self.chain(A, [-delta * a for a in alpha])
                assert measure == chain.measure()
            if t_star is not None:
                assert t_star == max(chain.parts, key=lambda p: p.length).midpoint()
        assert certified and exhausted


class TestRefusals:
    """Every refusal by exception type and a fragment of its message; each
    comes before the sequence or construction it is handed is read."""

    @pytest.mark.parametrize("call, error, fragment", [
        (lambda: thresholdize([F(1, 2)]), ValueError, "need at least two source values"),
        (lambda: thresholdize([F(1, 2), 0]), ValueError, "source value 2 is not positive"),
        (lambda: enumerate_base(0), ValueError, "base index starts at 1"),
        (lambda: plan_budget(None, 0), ValueError, "budget index starts at 1"),
        (lambda: measure_union_translates(Interval.closed(0, F(1, 9)), None, 5), ValueError,
         "need a nondegenerate open interval"),
        (lambda: find_embedding(None, [], None), ValueError, "need at least one alpha entry"),
        (lambda: find_embedding(None, [F(1, 2)], None, i_max=0), ValueError,
         "i_max must be at least 1"),
        (lambda: presets.alpha_vector("geometric:3/2", 3), ValueError,
         "geometric ratio must be in (0,1), got 3/2"),
        (lambda: presets.alpha_vector("polynomial:0", 3), ValueError,
         "polynomial exponent must be a positive integer, got 0"),
        (lambda: presets.alpha_vector("iterlog:0", 3), ValueError,
         "iterlog depth must be a positive integer, got 0"),
        (lambda: presets.alpha_vector("no-such-preset", 3), ValueError,
         "unknown sequence preset 'no-such-preset'"),
    ], ids=["thresholdize-one-value", "thresholdize-non-positive", "enumerate-base-zero",
            "plan-budget-zero", "measure-closed-hole", "embed-empty-alpha", "embed-no-rungs",
            "geometric-ratio", "polynomial-exponent", "iterlog-depth", "unknown-preset"])
    def test_refused(self, call, error, fragment):
        with pytest.raises(error) as err:
            call()
        assert fragment in str(err.value)
