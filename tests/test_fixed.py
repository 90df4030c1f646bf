"""Fixed-point arithmetic against high-precision references.

Floats and mpmath live only here, as the independent oracle; the engine
itself never touches them.
"""

import decimal
import importlib.util
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpool import fixed
from polarpool.errors import DomainError, RangeError
from polarpool.fixed import (
    WAD,
    FixedDecimal,
    ONE,
    PI,
    TWO,
    ZERO,
    fp_add,
    fp_atan2,
    fp_div,
    fp_exp,
    fp_hypot,
    fp_ln,
    fp_mul,
    fp_pow,
    fp_sin_cos,
    fp_sqrt,
    fp_sub,
    fp_unit,
)
from reference import assert_correctly_rounded, root_within, spread_raws, to_mp

F = FixedDecimal


def assert_close_to_reference(got: FixedDecimal, reference: mpmath.mpf,
                              rel: float = 1e-15, ulps: int = 1):
    """Error no worse than max(rel * |reference|, ulps quanta)."""
    err = abs(to_mp(got) - reference)
    bound = max(rel * abs(reference), mpmath.mpf(ulps) / WAD)
    assert err <= bound, f"{got} vs {mpmath.nstr(reference, 25)}: err {err}"


def signed(raws):
    return st.tuples(st.sampled_from((-1, 1)), raws).map(lambda t: t[0] * t[1])


# magnitudes below 1e6, zero included
raw_values = st.one_of(st.just(0), signed(spread_raws(1, 24)))


# ln(1e20) = 46.05170185988091368036; one quantum above, exp exceeds 1e20
EXP_EDGE = 46051701859880913680


class TestBasicArithmetic:
    def test_mul_exact_product(self):
        assert fp_mul(F("1.5"), F("2")) == F("3")

    def test_div_by_zero_rejected(self):
        with pytest.raises(DomainError):
            fp_div(ONE, ZERO)

    def test_mul_overflow_reported(self):
        big = F(10 ** 19)
        with pytest.raises(RangeError):
            fp_mul(big, big)

    def test_add_sub_exact(self):
        a, b = F("0.000000000000000001"), F("5")
        assert fp_sub(fp_add(a, b), b) == a

    def test_round_half_even_at_grid(self):
        # 0.0000000000000000005 rounds to even neighbour 0
        assert fp_div(ONE, F(2 * 10 ** 18)).raw == 0
        # 1.5 quanta rounds to 2 quanta
        assert fp_div(F(3), F(2 * 10 ** 18)).raw == 2

    def test_string_round_trip(self):
        for s in ["0", "-1.5", "3.141592653589793238", "0.000000000000000001",
                  "-0.1", "100000000000000000000"]:
            assert str(F(s)) == s

    def test_string_rejects_exponent_and_excess_digits(self):
        with pytest.raises(DomainError):
            F("1e5")
        with pytest.raises(DomainError):
            F("0.1234567890123456789")

    @pytest.mark.parametrize("text", ["²", "1.²", "¹0"],
                             ids=["units", "fraction", "leading"])
    def test_string_rejects_digits_int_refuses(self, text):
        # superscripts pass str.isdigit, but int() refuses them
        with pytest.raises(DomainError, match="not a decimal string"):
            F(text)

    def test_string_accepts_every_decimal_digit(self):
        assert F("٣.5") == F("3.5")

    @pytest.mark.parametrize("digits", [4290, 5000])
    def test_long_digit_strings_overflow(self, digits):
        with pytest.raises(RangeError):
            F("1" * digits)
        assert F("0" * digits + "1.5") == F("1.5")

    @given(a=raw_values, b=raw_values)
    def test_mul_matches_exact_integer_rounding(self, a, b):
        got = fp_mul(F.from_raw(a), F.from_raw(b))
        prod = a * b
        # round half even in exact integer arithmetic
        q, r = divmod(prod, WAD)
        if 2 * r > WAD or (2 * r == WAD and q % 2):
            q += 1
        assert got.raw == q

    @given(a=raw_values, b=raw_values.filter(lambda v: v != 0))
    def test_div_then_mul_within_one_ulp_scaled(self, a, b):
        x, y = F.from_raw(a), F.from_raw(b)
        try:
            back = fp_mul(fp_div(x, y), y)
        except RangeError:
            return  # x/y overflows the representable range; reported, not wrapped
        # |back - x| <= (|y| + 0.5) quanta from the two roundings
        assert abs(back.raw - x.raw) <= abs(y.raw) // WAD + 1


R = F.from_raw
# (10^38 + 1) = 101 * 990099009900990099009900990099009901
EDGE_FACTOR = (fixed.MAX_RAW + 1) // 101


class TestRangeEdge:
    """Every wrap into FixedDecimal accepts |raw| = MAX_RAW and raises
    RangeError one quantum past it, in both signs."""

    # name -> (result of raw +-MAX_RAW, result of raw +-(MAX_RAW + 1)), given the sign
    CASES = {
        "from_raw": (lambda s: R(s * fixed.MAX_RAW),
                     lambda s: R(s * (fixed.MAX_RAW + 1))),
        "init_int": (lambda s: F(s * 10 ** 20),
                     lambda s: F(s * (10 ** 20 + 1))),
        "init_str": (lambda s: F(("-" if s < 0 else "") + "100000000000000000000"),
                     lambda s: F(("-" if s < 0 else "")
                                 + "100000000000000000000.000000000000000001")),
        "init_copy": (lambda s: F(R(s * fixed.MAX_RAW)), None),
        "from_fraction": (lambda s: F.from_fraction(s * fixed.MAX_RAW, WAD),
                          lambda s: F.from_fraction(s * (fixed.MAX_RAW + 1), WAD)),
        "fp_add": (lambda s: fp_add(R(s * (fixed.MAX_RAW - 1)), R(s)),
                   lambda s: fp_add(R(s * fixed.MAX_RAW), R(s))),
        "fp_sub": (lambda s: fp_sub(R(s * (fixed.MAX_RAW - 1)), R(-s)),
                   lambda s: fp_sub(R(s * fixed.MAX_RAW), R(-s))),
        "fp_mul": (lambda s: fp_mul(R(s * 10 ** 36), F(100)),
                   lambda s: fp_mul(R(s * EDGE_FACTOR), F(101))),
        # n * WAD / (WAD - 1) rounds to MAX_RAW at n = MAX_RAW - 10^20, one more at n + 1
        "fp_div": (lambda s: fp_div(R(s * (fixed.MAX_RAW - 10 ** 20)), R(WAD - 1)),
                   lambda s: fp_div(R(s * (fixed.MAX_RAW - 10 ** 20 + 1)), R(WAD - 1))),
    }

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edge(self, name, sign):
        at_edge, past_edge = self.CASES[name]
        assert at_edge(sign).raw == sign * fixed.MAX_RAW
        if past_edge is not None:
            with pytest.raises(RangeError):
                past_edge(sign)

    def test_neg_and_abs_of_the_edges(self):
        for raw in (fixed.MAX_RAW, -fixed.MAX_RAW):
            assert (-R(raw)).raw == -raw
            assert abs(R(raw)).raw == fixed.MAX_RAW

    def test_immutable(self):
        x = R(fixed.MAX_RAW)
        with pytest.raises(AttributeError):
            x.raw = 0
        with pytest.raises(AttributeError):
            x.other = 0
        assert x.raw == fixed.MAX_RAW


class TestSqrt:
    def test_perfect_square(self):
        assert fp_sqrt(F(4)) == F(2)

    def test_zero(self):
        assert fp_sqrt(ZERO) == ZERO

    def test_sqrt2_reference(self):
        assert_close_to_reference(fp_sqrt(TWO), mpmath.sqrt(2))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fp_sqrt(F(-1))

    def test_correctly_rounded_and_square_near_input(self):
        # 10^6 seeded draws over [0, 1e6]; correct rounding verified with
        # exact integers, and sqrt(x)^2 within 2 value-scaled ulps of x
        rng = random.Random(20250809)
        top = 10 ** 6 * WAD
        for _ in range(10 ** 6):
            raw = rng.randrange(top)
            s = fp_sqrt(F.from_raw(raw)).raw
            n = raw * WAD
            # nearest grid point: within half a quantum of sqrt(n)
            assert root_within(s, n)
            # squared result stays within 2 ulps at the value's own scale
            err = abs(s * s - n)  # in 1e-36 units
            assert err <= 2 * max(raw, WAD)

    @given(st.integers(min_value=0, max_value=10 ** 21), st.integers(min_value=1, max_value=10 ** 21))
    @settings(max_examples=300)
    def test_hypot_and_unit_correctly_rounded(self, a_raw, b_raw):
        a, b = F.from_raw(a_raw), F.from_raw(b_raw)
        n = a_raw * a_raw + b_raw * b_raw
        assert root_within(fp_hypot(a, b).raw, n)
        # each component c WAD / sqrt(n) to the nearest grid point
        for c, u in zip((a_raw, b_raw), fp_unit(a, b)):
            target = 4 * c * c * WAD * WAD
            assert u.raw == 0 or (2 * u.raw - 1) ** 2 * n < target
            assert target < (2 * u.raw + 1) ** 2 * n

    def test_unit_domain(self):
        assert fp_unit(F(3), F(4)) == (F("0.6"), F("0.8"))
        assert fp_unit(ZERO, F(7)) == (ZERO, ONE)
        with pytest.raises(DomainError):
            fp_unit(ZERO, ZERO)
        with pytest.raises(DomainError):
            fp_unit(F(-1), ONE)

    def test_monotone(self):
        rng = random.Random(7)
        raws = sorted(rng.randrange(10 ** 22) for _ in range(2000))
        roots = [fp_sqrt(F.from_raw(r)).raw for r in raws]
        assert all(a <= b for a, b in zip(roots, roots[1:]))


class TestPow:
    def test_reciprocal(self):
        assert fp_pow(F(3), F(-1)) == F("0.333333333333333333")

    def test_fractional_reference(self):
        assert_close_to_reference(fp_pow(TWO, F("0.5")), mpmath.sqrt(2))

    def test_identity_power_zero(self):
        for x in [F("0.1"), ONE, F(10), F("123.456")]:
            assert fp_pow(x, ZERO) == ONE

    def test_zero_to_negative_rejected(self):
        with pytest.raises(DomainError):
            fp_pow(ZERO, F(-2))

    def test_negative_base_fractional_rejected(self):
        with pytest.raises(DomainError):
            fp_pow(F(-2), F("0.5"))

    def test_negative_base_integer_rejected(self):
        # every exponent takes exp(e ln b), so an integer one takes no
        # negative base either
        with pytest.raises(DomainError):
            fp_pow(F(-2), F(3))

    def test_pow_roundtrip_property(self):
        # (x^p)^(1/p) = x within 1e-12 relative for x in [0.1, 10], p in [0.5, 4]
        rng = random.Random(11)
        for _ in range(300):
            x = F.from_raw(rng.randrange(WAD // 10, 10 * WAD))
            p = F.from_raw(rng.randrange(WAD // 2, 4 * WAD))
            back = fp_pow(fp_pow(x, p), fp_div(ONE, p))
            assert abs(to_mp(back) - to_mp(x)) <= 1e-12 * to_mp(x)

    @given(spread_raws(10, 21), st.integers(min_value=-3, max_value=6))
    @settings(max_examples=200)
    def test_integer_power_matches_reference(self, raw, n):
        # bases from 1e-9 to 1e3, correctly rounded: squaring on the grid put
        # cubes of large bases hundreds of quanta off, and negative powers of
        # small bases off in their leading digits
        x = F.from_raw(raw)
        with mpmath.workdps(60):
            want = to_mp(x) ** n
            if want > mpmath.mpf(10) ** 20:
                return
            assert_correctly_rounded(fp_pow(x, F(n)), want)


class TestLnExp:
    def test_ln_one(self):
        assert fp_ln(ONE) == ZERO

    def test_ln_non_positive_rejected(self):
        with pytest.raises(DomainError):
            fp_ln(ZERO)
        with pytest.raises(DomainError):
            fp_ln(F(-3))

    def test_exp_ln_round_trip(self):
        # exp(ln(x)) = x within 1e-12 relative for x in [1e-6, 1e6]
        rng = random.Random(13)
        for _ in range(400):
            # ln x uniform over [-13.8, 13.8] spans x in [1e-6, 1e6]
            u_raw = rng.randrange(-138 * 10 ** 17, 138 * 10 ** 17)
            x = fp_exp(F.from_raw(u_raw))
            back = fp_exp(fp_ln(x))
            assert abs(to_mp(back) - to_mp(x)) <= 1e-12 * to_mp(x)

    def test_against_reference_grid(self):
        rng = random.Random(17)
        for _ in range(500):
            raw = rng.randrange(1, 10 ** 24)
            x = F.from_raw(raw)
            assert_close_to_reference(fp_ln(x), mpmath.log(to_mp(x)))
        for _ in range(500):
            raw = rng.randrange(-40 * WAD, 40 * WAD)
            x = F.from_raw(raw)
            assert_close_to_reference(fp_exp(x), mpmath.exp(to_mp(x)))

    def test_exp_overflow(self):
        with pytest.raises(RangeError):
            fp_exp(F(100))


class TestTrig:
    def test_sin_zero(self):
        assert fp_sin_cos(ZERO)[0] == ZERO

    def test_cos_135_degrees(self):
        angle = fp_mul(F(3), fp_div(PI, F(4)))
        got = fp_sin_cos(angle)[1]
        # reference evaluated at the stored argument
        assert_close_to_reference(got, mpmath.cos(to_mp(angle)))
        # and against the ideal -sqrt(2)/2 within the argument rounding
        assert abs(to_mp(got) + mpmath.sqrt(2) / 2) < 3e-18

    def test_reference_grid(self):
        rng = random.Random(19)
        for _ in range(400):
            raw = rng.randrange(-20 * WAD, 20 * WAD)
            a = F.from_raw(raw)
            s, c = fp_sin_cos(a)
            assert_close_to_reference(s, mpmath.sin(to_mp(a)))
            assert_close_to_reference(c, mpmath.cos(to_mp(a)))

    def test_large_argument_reduction(self):
        a = F("12345678901.123456789123456789")
        assert_close_to_reference(fp_sin_cos(a)[0], mpmath.sin(to_mp(a)), rel=1e-14, ulps=2)

    # angles from 1e-6 to 20 radians, every magnitude about equally often
    @given(signed(spread_raws(13, 20)).filter(lambda raw: abs(raw) <= 20 * WAD))
    @settings(max_examples=300)
    def test_pythagorean_identity_within_4_ulp(self, raw):
        a = F.from_raw(raw)
        s, c = fp_sin_cos(a)
        total = fp_add(fp_mul(s, s), fp_mul(c, c))
        assert abs(total.raw - WAD) <= 4

    def test_inverse_trig_reference(self):
        rng = random.Random(23)
        for _ in range(300):
            y = F.from_raw(rng.randrange(-5 * WAD, 5 * WAD))
            x = F.from_raw(rng.randrange(-5 * WAD, 5 * WAD))
            if x.raw == 0 and y.raw == 0:
                continue
            assert_close_to_reference(
                fp_atan2(y, x), mpmath.degrees(mpmath.atan2(to_mp(y), to_mp(x))),
                rel=1e-14, ulps=2,
            )


class TestCorrectRounding:
    """Each transcendental against 60-digit mpmath over its full range."""

    @given(signed(spread_raws(1, 38)))
    @settings(max_examples=300)
    def test_sin_cos(self, raw):
        a = F.from_raw(raw)
        s, c = fp_sin_cos(a)
        with mpmath.workdps(60):
            assert_correctly_rounded(s, mpmath.sin(to_mp(a)))
            assert_correctly_rounded(c, mpmath.cos(to_mp(a)))

    @given(signed(spread_raws(1, 38)), signed(spread_raws(1, 38)))
    @settings(max_examples=300)
    def test_atan2(self, y_raw, x_raw):
        # one rounding, from the working scale: 180 / pi rounded to the grid
        # first would put the angle up to 41 quanta off
        y, x = F.from_raw(y_raw), F.from_raw(x_raw)
        with mpmath.workdps(60):
            assert_correctly_rounded(fp_atan2(y, x),
                                     mpmath.degrees(mpmath.atan2(to_mp(y), to_mp(x))))

    @given(spread_raws(1, 38))
    @settings(max_examples=300)
    def test_ln(self, raw):
        a = F.from_raw(raw)
        with mpmath.workdps(60):
            assert_correctly_rounded(fp_ln(a), mpmath.log(to_mp(a)))

    @given(signed(spread_raws(1, 20)).filter(lambda raw: raw <= EXP_EDGE))
    @settings(max_examples=300)
    def test_exp(self, raw):
        a = F.from_raw(raw)
        with mpmath.workdps(60):
            assert_correctly_rounded(fp_exp(a), mpmath.exp(to_mp(a)))

    def test_exp_overflow_edge(self):
        with mpmath.workdps(60):
            assert_correctly_rounded(fp_exp(F.from_raw(EXP_EDGE)),
                                     mpmath.exp(mpmath.mpf(EXP_EDGE) / WAD))
        with pytest.raises(RangeError):
            fp_exp(F.from_raw(EXP_EDGE + 1))

    @given(spread_raws(17, 20),
           signed(spread_raws(1, 19)).filter(lambda e: abs(e) <= 3 * WAD and e % WAD))
    @settings(max_examples=300)
    def test_fractional_pow(self, base_raw, exponent_raw):
        b, e = F.from_raw(base_raw), F.from_raw(exponent_raw)
        with mpmath.workdps(60):
            assert_correctly_rounded(fp_pow(b, e), mpmath.power(to_mp(b), to_mp(e)))

    def test_overflow_raised_before_any_huge_power(self):
        with pytest.raises(RangeError):
            fp_exp(F(10 ** 19))
        with pytest.raises(RangeError):
            fp_pow(F(10 ** 10), F(10 ** 9))
        with pytest.raises(RangeError):
            fp_pow(F(10 ** 10), F("1000000000.5"))


class TestDeterminism:
    @given(a=raw_values, b=raw_values)
    @settings(max_examples=100)
    def test_repeated_evaluation_identical(self, a, b):
        x, y = F.from_raw(a), F.from_raw(b)
        assert fp_mul(x, y).raw == fp_mul(x, y).raw
        assert fp_add(x, y).raw == fp_add(x, y).raw

    def test_transcendental_golden_values(self):
        # pinned raw outputs; any platform or refactor must reproduce them
        assert fp_sqrt(TWO).raw == 1414213562373095049
        assert fp_ln(TWO).raw == 693147180559945309
        assert fp_exp(ONE).raw == 2718281828459045235
        s, c = fp_sin_cos(ONE)
        assert (s.raw, c.raw) == (841470984807896507, 540302305868139717)
        assert fp_pow(TWO, F("0.5")).raw == 1414213562373095049
        assert PI.raw == 3141592653589793238

    def test_results_ignore_the_thread_decimal_context(self):
        # a lowered decimal precision changes no raw, neither of a call nor
        # of a constant computed at import
        def raws(fx):
            G = fx.FixedDecimal
            return [fx.fp_atan2(G("0.3"), G("0.9")).raw,
                    fx.fp_ln(G("123456.123456789123456789")).raw,
                    *(v.raw for v in fx.fp_sin_cos(G("0.123456789123456789"))),
                    fx.fp_exp(G("12.345678901234567891")).raw,
                    fx.fp_pow(G("1.234567890123456789"), G("2.5")).raw,
                    fx.fp_sin_cos(G("123456.789"))[1].raw, fx.PI.raw, fx.LN2.raw]

        want = raws(fixed)
        ctx = decimal.getcontext()
        saved = ctx.prec
        ctx.prec = 12
        try:
            spec = importlib.util.spec_from_file_location("polarpool._fixed_at_prec12",
                                                          fixed.__file__)
            fresh = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(fresh)
            assert raws(fixed) == want
            assert raws(fresh) == want
        finally:
            ctx.prec = saved
