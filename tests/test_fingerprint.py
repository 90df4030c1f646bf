"""Fingerprint closed forms, the multimodal radius, and the LP payoff."""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpool.fingerprint
from polarpool.errors import DomainError, RangeError, ValidationError
from polarpool.fingerprint import (
    FingerprintParams,
    fingerprint_ccmm,
    fingerprint_cemm,
    fingerprint_csemm,
    lp_payoff,
    multimodal_radius,
    payoff_fingerprint,
)
from polarpool.fixed import FixedDecimal, HALF_PI, ONE, PI, TWO, WAD, fp_div, fp_exp, fp_mul
from polarpool.invariant import CurveParams, default_offset
from polarpool.swap import y_of_x
from reference import to_mp

F = FixedDecimal
L = default_offset()


def reference_ccmm(t):
    l = 2 + mpmath.sqrt(2)
    return 2 * l * mpmath.exp(mpmath.mpf(3) * t / 2) / (1 + mpmath.exp(2 * t)) ** mpmath.mpf("1.5")


def t_grid(lo=-5, hi=5, n=1000):
    span = hi - lo
    return [F.from_raw(lo * WAD + span * WAD * k // (n - 1)) for k in range(n)]


class TestClosedForms:
    def test_peak_value(self):
        got = fingerprint_ccmm(FingerprintParams(), F(0))
        want = 1 + mpmath.sqrt(2)  # 2l / 2^{3/2} = l / sqrt(2)
        assert abs(to_mp(got) - want) < 1e-12

    def test_matches_printed_form_on_grid(self):
        p = FingerprintParams()
        for t in t_grid(-5, 5, 101):
            assert abs(to_mp(fingerprint_ccmm(p, t)) - reference_ccmm(to_mp(t))) < 1e-15

    def test_peak_at_zero_and_decay(self):
        p = FingerprintParams()
        values = [(t.raw, fingerprint_ccmm(p, t).raw) for t in t_grid(-6, 6, 241)]
        peak_t, _ = max(values, key=lambda kv: kv[1])
        assert abs(peak_t) <= WAD // 10
        assert fingerprint_ccmm(p, F(20)).raw < WAD // 10 ** 6
        assert fingerprint_ccmm(p, F(-20)).raw < WAD // 10 ** 6
        assert fingerprint_ccmm(p, F(20)).raw > 0

    def test_cemm_reduces_to_ccmm_at_c1(self):
        base = FingerprintParams()
        shifted = FingerprintParams(mode="cemm", c=ONE)
        for t in t_grid(-5, 5, 1000):
            assert fingerprint_cemm(shifted, t) == fingerprint_ccmm(base, t)

    def test_cemm_c2_at_zero(self):
        p = FingerprintParams(mode="cemm", c=TWO)
        want = 8 * (2 + mpmath.sqrt(2)) / 5 ** mpmath.mpf("1.5")
        assert abs(to_mp(fingerprint_cemm(p, F(0))) - want) < 1e-15

    def test_cemm_peak_moves_with_c(self):
        grid = t_grid(-4, 4, 801)
        peaks = []
        for c in [F("0.5"), ONE, TWO, F(4)]:
            p = FingerprintParams(mode="cemm", c=c)
            values = [(t.raw, fingerprint_cemm(p, t).raw) for t in grid]
            peaks.append(max(values, key=lambda kv: kv[1])[0])
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_csemm_reduces_to_ccmm_at_circle_alpha(self):
        base = FingerprintParams()
        sup = FingerprintParams(mode="csemm", alpha=L)
        for t in t_grid(-5, 5, 1000):
            diff = to_mp(fingerprint_csemm(sup, t)) - to_mp(fingerprint_ccmm(base, t))
            assert abs(diff) < 1e-15

    def test_csemm_shift_translates_t(self):
        base = FingerprintParams(mode="csemm", alpha=F(4))
        shifted = FingerprintParams(mode="csemm", alpha=F(4), s_y=fp_exp(ONE))
        for t in t_grid(-3, 3, 101):
            lhs = fingerprint_csemm(shifted, t)
            rhs = fingerprint_csemm(base, t - ONE)
            assert abs(to_mp(lhs) - to_mp(rhs)) < 1e-15

    def test_csemm_alpha4_at_zero(self):
        p = FingerprintParams(mode="csemm", alpha=F(4))
        assert abs(to_mp(fingerprint_csemm(p, F(0)))
                   - mpmath.mpf("2.128533874054364330928571")) < 1e-14

    def test_csemm_eta_one_rejected(self):
        p = FingerprintParams(mode="csemm", alpha=TWO)
        with pytest.raises(DomainError):
            fingerprint_csemm(p, F(0))

    def test_positive_on_wide_grid(self):
        p = FingerprintParams()
        for t in t_grid(-20, 20, 201):
            assert fingerprint_ccmm(p, t).raw > 0

    def test_finite_trapezoid_integral(self):
        # integrable on any finite interval: the trapezoid sum is finite
        # and positive for every closed form
        p_circle = FingerprintParams()
        p_ell = FingerprintParams(mode="cemm", c=TWO)
        p_sup = FingerprintParams(mode="csemm", alpha=F(4))
        grid = t_grid(-8, 8, 401)
        h = to_mp(grid[1]) - to_mp(grid[0])
        for fn, params in [(fingerprint_ccmm, p_circle),
                           (fingerprint_cemm, p_ell),
                           (fingerprint_csemm, p_sup)]:
            ys = [to_mp(fn(params, t)) for t in grid]
            total = h * (sum(ys) - (ys[0] + ys[-1]) / 2)
            assert 0 < total < mpmath.inf


class TestMultimodal:
    def test_trough_value(self):
        p = FingerprintParams(mode="multimodal", alpha_mm=4)
        assert multimodal_radius(p, F(0)) == ONE

    def test_crest_value(self):
        # sin^2 = 1 at theta = pi/8 for alpha 4: r = 2^{1/16}
        p = FingerprintParams(mode="multimodal", alpha_mm=4)
        theta = fp_div(PI, F(8))
        want = mpmath.mpf(2) ** (mpmath.mpf(1) / 16)
        assert abs(to_mp(multimodal_radius(p, theta)) - want) < 1e-15

    def test_periodicity(self):
        p = FingerprintParams(mode="multimodal", alpha_mm=6)
        period = fp_div(PI, F(6))
        for k in range(1, 8):
            theta = F.from_raw(10 ** 17 * k)
            r1 = multimodal_radius(p, theta)
            r2 = multimodal_radius(p, theta + period)
            assert abs(r1.raw - r2.raw) <= 10 ** 6

    def test_range_bounds(self):
        for alpha in (4, 6, 8):
            p = FingerprintParams(mode="multimodal", alpha_mm=alpha)
            hi = mpmath.mpf(2) ** (mpmath.mpf(1) / (alpha * alpha))
            for k in range(200):
                theta = F.from_raw(PI.raw * k // 400)
                r = to_mp(multimodal_radius(p, theta))
                assert 1 - 1e-12 <= r <= hi + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            FingerprintParams(mode="multimodal", alpha_mm=5)
        with pytest.raises(ValidationError):
            FingerprintParams(mode="multimodal", alpha_mm=2)


# ln(1e20) rounded down to the grid: e^EDGE is just inside the range, and
# e^(EDGE + 1 quantum) just past it
EDGE = 46051701859880913680


class TestIntegerCores:
    """Each sample's core against 60-digit mpmath, on the sum D and the
    inner value the engine itself formed, and the inputs that overflow."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Each sample's D, multimodal inner value, -3/2 root and last fp_mul
        operand, recorded as the kernels compute them."""
        seen = {"d": [], "inner": [], "root": [], "operand": []}
        fp = polarpool.fingerprint
        denominator, ln, isqrt, mul = fp._denominator, fp._ln, fp._nearest_isqrt, fp.fp_mul

        def record(key, out):
            seen[key].append(out)
            return out

        monkeypatch.setattr(fp, "_denominator", lambda *a: record("d", denominator(*a)))
        monkeypatch.setattr(fp, "_ln", lambda a: ln(record("inner", a)))
        monkeypatch.setattr(fp, "_nearest_isqrt", lambda *a: record("root", isqrt(*a)))
        monkeypatch.setattr(fp, "fp_mul", lambda a, b: mul(a, record("operand", b)))
        return seen

    @staticmethod
    def assert_nearest(raw, exact):
        err = abs(raw - exact * WAD)
        assert err <= mpmath.mpf("0.500001"), f"{raw}: {mpmath.nstr(err, 8)} quanta off"

    def test_three_halves_power(self, seen):
        rng = random.Random(30)
        with mpmath.workdps(60):
            for _ in range(60):
                c = F.from_raw(rng.randrange(WAD // 10, 2 * WAD))
                fingerprint_cemm(FingerprintParams(mode="cemm", c=c),
                                 F.from_raw(rng.randrange(-12 * WAD, 12 * WAD)))
                d = mpmath.mpf(seen["d"][-1]) / 10 ** 50
                self.assert_nearest(seen["root"][-1], d ** mpmath.mpf(-1.5))

    def test_csemm_power(self, seen):
        rng = random.Random(31)
        with mpmath.workdps(60):
            for _ in range(12):
                alpha = F.from_raw(rng.randrange(3 * WAD, 8 * WAD))
                p = FingerprintParams(mode="csemm", alpha=alpha,
                                      s_y=F.from_raw(rng.randrange(WAD // 2, 2 * WAD)))
                g = mpmath.mpf(p._csemm_terms[2]) / 10 ** 50
                for _ in range(5):
                    fingerprint_csemm(p, F.from_raw(rng.randrange(-6 * WAD, 6 * WAD)))
                    d = mpmath.mpf(seen["d"][-1]) / 10 ** 50
                    self.assert_nearest(seen["operand"][-1].raw, d ** -g)

    @pytest.mark.parametrize("alpha", [4, 6, 8])
    def test_multimodal_root(self, seen, alpha):
        p = FingerprintParams(mode="multimodal", alpha_mm=alpha)
        with mpmath.workdps(60):
            for k in range(1, 40):
                multimodal_radius(p, F.from_raw(HALF_PI.raw * k // 40))
                inner = mpmath.mpf(seen["inner"][-1]) / 10 ** 50
                self.assert_nearest(seen["operand"][-1].raw, inner ** (-mpmath.mpf(1) / alpha ** 2))

    @pytest.mark.parametrize("raw, fits", [(EDGE, True), (EDGE + 1, False),
                                           (-EDGE, True), (-EDGE - 1, False)])
    def test_range_edge(self, raw, fits):
        for fn, p in ((fingerprint_ccmm, FingerprintParams()),
                      (fingerprint_cemm, FingerprintParams(mode="cemm", c=ONE))):
            if fits:
                assert fn(p, F.from_raw(raw)).raw == 0
            else:
                with pytest.raises(RangeError):
                    fn(p, F.from_raw(raw))

    def test_weighted_term_overflows(self):
        # 4 e^45 > 1e20 > 4 e^44: the weighted term alone leaves the range
        p = FingerprintParams(mode="cemm", c=TWO)
        assert fingerprint_cemm(p, F(-44)).raw == 0
        with pytest.raises(RangeError):
            fingerprint_cemm(p, F(-45))
        with pytest.raises(RangeError):
            fingerprint_cemm(p, F.from_raw(-EDGE))

    def test_weight_below_a_quantum(self):
        # c^2 rounds to 0, so the sum's grid value is e^t rounded: its -3/2
        # power passes 1e20 below 46415.5 quanta, and at 0 it is undefined
        p = FingerprintParams(mode="cemm", c=F.from_raw(1))
        with mpmath.workdps(40):
            at = [F.from_raw(int(mpmath.log(mpmath.mpf(q) / WAD) * WAD))
                  for q in ("46415.7", "46415.3")]
        assert fingerprint_cemm(p, at[0]).raw == 0
        with pytest.raises(RangeError):
            fingerprint_cemm(p, at[1])
        with pytest.raises(DomainError):
            fingerprint_cemm(p, F(-43))


class TestOneExponential:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_exp": 0, "_ln": 0, "fp_exp": 0, "fp_ln": 0}
        for name in counts:
            fn = getattr(polarpool.fingerprint, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(polarpool.fingerprint, name, counted)
        return counts

    @pytest.mark.parametrize("fn, params, per_sample", [
        (fingerprint_ccmm, FingerprintParams(), {"_exp": 1, "_ln": 0}),
        (fingerprint_cemm, FingerprintParams(mode="cemm", c=F("1.3")), {"_exp": 1, "_ln": 0}),
        # one exponential for e^t and e^-t, and the power D^-g as exp(-g ln D)
        (fingerprint_csemm, FingerprintParams(mode="csemm", alpha=F(5), s_y=F("1.5")),
         {"_exp": 2, "_ln": 1}),
    ])
    def test_per_sample(self, calls, fn, params, per_sample):
        grid = t_grid(-5, 5, 21)
        for t in grid:
            fn(params, t)
        want = {name: count * len(grid) for name, count in per_sample.items()}
        # ln(s_y / s_x) once for the parameter set, not once per sample
        want.update(fp_exp=0, fp_ln=1 if params.mode == "csemm" else 0)
        assert calls == want


class TestLpPayoff:
    def test_unit_price_minimizer(self):
        p = FingerprintParams()
        got = lp_payoff(p, ONE)
        # symmetric point (1, 1): V = 2; brute-force scan agrees
        best = min(
            to_mp(ONE) * x + (to_mp(L) - mpmath.sqrt(2 * to_mp(L) * x - x * x))
            for x in [mpmath.mpf(k) / 10 ** 5 * to_mp(L) for k in range(1, 10 ** 5, 37)]
        )
        assert abs(to_mp(got) - 2) < 1e-9
        assert to_mp(got) <= best + 1e-9

    def test_min_dominates_arc_points(self):
        import random

        circle = CurveParams(n=2)
        p = FingerprintParams()
        rng = random.Random(31)
        for _ in range(1000):
            price = F.from_raw(rng.randrange(WAD // 10, 10 * WAD))
            x = F.from_raw(rng.randrange(1, L.raw))
            y = y_of_x(circle, x)
            value = fp_mul(price, x) + y
            assert lp_payoff(p, price) <= value + F.from_raw(100)

    def test_concave_in_price(self):
        p = FingerprintParams()
        vals = []
        for k in range(100):
            price = F.from_raw(WAD // 10 + (10 * WAD - WAD // 10) * k // 99)
            vals.append(to_mp(lp_payoff(p, price)))
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
        assert all(d <= 1e-9 for d in second)

    def test_cemm_payoff_scales(self):
        p = FingerprintParams(mode="cemm", c=TWO)
        # at the price peak 2 the payoff is c times the circular unit value
        got = lp_payoff(p, TWO)
        want = 2 * lp_payoff(FingerprintParams(), ONE).raw
        assert abs(got.raw - want) <= 10 ** 7

    def test_multimodal_mode_rejected(self):
        with pytest.raises(ValidationError):
            lp_payoff(FingerprintParams(mode="multimodal"), ONE)

    @given(st.integers(WAD // 10, 10 * WAD), st.integers(WAD // 2, 2 * WAD))
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form(self, price_raw, c_raw):
        # V(p) = l (p + c - sqrt(p^2 + c^2)), c = 1 for the circle
        price, c = F.from_raw(price_raw), F.from_raw(c_raw)
        p = to_mp(price)
        for params, c_mp in ((FingerprintParams(), 1),
                             (FingerprintParams(mode="cemm", c=c), to_mp(c))):
            want = to_mp(params.l) * (p + c_mp - mpmath.sqrt(p * p + c_mp * c_mp))
            assert abs(lp_payoff(params, price).raw - want * WAD) <= 1


class TestPayoffFingerprintConsistency:
    def test_density_matches_closed_form_shape(self):
        p = FingerprintParams()
        n = 61
        numeric = []
        closed = []
        for k in range(n):
            t = F.from_raw(-3 * WAD + 6 * WAD * k // (n - 1))
            numeric.append(to_mp(payoff_fingerprint(p, t)))
            closed.append(to_mp(fingerprint_ccmm(p, t)))
        mean_n = sum(numeric) / n
        mean_c = sum(closed) / n
        cov = sum((a - mean_n) * (b - mean_c) for a, b in zip(numeric, closed))
        var_n = sum((a - mean_n) ** 2 for a in numeric)
        var_c = sum((b - mean_c) ** 2 for b in closed)
        corr = cov / mpmath.sqrt(var_n * var_c)
        assert corr >= mpmath.mpf("0.999")
