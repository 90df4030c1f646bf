"""Invariant evaluation against closed forms and a 40-digit oracle."""

import mpmath
import pytest

from polarpool.errors import DomainError, ShapeError, ValidationError
from polarpool.fixed import FixedDecimal, ONE, TWO, WAD, ZERO, fp_div
from polarpool.invariant import (
    CurveParams,
    PoolState,
    ccmm_residual,
    center_curve,
    csemm_residual,
    default_offset,
    eta,
    invariant_residual,
    price_peak_for_unit_crossing,
    shifted_ellipse_residual,
    solve_ccmm_scale,
    solve_csemm_scale,
    spot_price,
    token_pair,
)
from polarpool.poolfile import PoolFile, dumps, loads
from polarpool.ticks import TickLedger

mpmath.mp.dps = 40

F = FixedDecimal


def to_mp(x: FixedDecimal) -> mpmath.mpf:
    return mpmath.mpf(x.raw) / WAD


L = default_offset()


class TestEta:
    def test_analytic_anchors(self):
        # (2+sqrt2)/(1+sqrt2) = sqrt2, so eta = ln2/ln(sqrt2) = 2
        assert abs(eta(L).raw - 2 * WAD) <= 10 ** 6  # within 1e-12
        assert eta(F(2)) == F(1)
        assert eta(F(-1)) == F(-1)

    def test_domain_rejected(self):
        for bad in [ZERO, ONE, F("0.5")]:
            with pytest.raises(DomainError):
                eta(bad)

    def test_oracle_grid(self):
        for a_str in ["1.5", "2.5", "4", "10", "-0.5", "-3"]:
            a = F(a_str)
            want = mpmath.log(2) / mpmath.log(to_mp(a) / (to_mp(a) - 1))
            assert abs(to_mp(eta(a)) - want) < 1e-15 * abs(want)


class TestCcmmResidual:
    def test_symmetric_point_n2(self):
        p = CurveParams(n=2)
        assert abs(ccmm_residual(p, (ONE, ONE)).raw) <= 10  # few quanta

    def test_axis_point(self):
        p = CurveParams(n=2)
        assert abs(ccmm_residual(p, (p.l, ZERO)).raw) <= 10

    def test_n3_equal_point_off_curve(self):
        # 3(1-l)^2 - l^2 = 3 + 2*sqrt(2), frozen from the 40-digit oracle
        p = CurveParams(n=3)
        got = ccmm_residual(p, (ONE, ONE, ONE))
        want = 3 + 2 * mpmath.sqrt(2)
        assert abs(to_mp(got) - want) < 1e-15

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ccmm_residual(CurveParams(n=3), (ONE, ONE))


class TestCsemmResidual:
    def test_circle_equivalence(self):
        p = CurveParams(n=2, mode="csemm", alphas=(L, L))
        assert abs(csemm_residual(p, (ONE, ONE)).raw) <= 10

    def test_constant_sum_case(self):
        p = CurveParams(n=2, mode="csemm", alphas=(TWO, TWO))
        assert csemm_residual(p, (F("0.5"), F("1.5"))).raw == 0

    def test_constant_product_case(self):
        p = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
        got = csemm_residual(p, (TWO, F("0.5")))
        assert abs(got.raw) <= 10


class TestShiftedEllipse:
    def test_circle_case(self):
        p = CurveParams(n=2, mode="shifted", beta=TWO, c=ONE)
        assert abs(shifted_ellipse_residual(p, ONE, ONE).raw) <= 10

    def test_price_peak_rescale(self):
        p = CurveParams(n=2, mode="shifted", beta=TWO, c=TWO)
        assert abs(shifted_ellipse_residual(p, ONE, TWO).raw) <= 10

    def test_beta_15_off_curve_value(self):
        # 2|1-l|^1.5 - l^1.5 = 1.19364034213341440, 40-digit oracle
        p = CurveParams(n=2, mode="shifted", beta=F("1.5"), c=ONE)
        got = shifted_ellipse_residual(p, ONE, ONE)
        want = 2 * abs(1 - to_mp(L)) ** mpmath.mpf("1.5") - to_mp(L) ** mpmath.mpf("1.5")
        assert abs(to_mp(got) - want) < 1e-15
        assert abs(to_mp(got) - mpmath.mpf("1.193640342133414399")) < 1e-12

    def test_branch_rejected(self):
        p = CurveParams(n=2, mode="shifted", beta=F("1.5"), c=ONE)
        with pytest.raises(DomainError):
            shifted_ellipse_residual(p, F(10), ONE)


class TestCenterCurve:
    def test_beta2_x2(self):
        # 1/(1 - sqrt(3)/2) = 4 + 2*sqrt(3)
        got = center_curve(F(2), TWO)
        want = 4 + 2 * mpmath.sqrt(3)
        assert abs(to_mp(got) - want) < 1e-15

    def test_large_x_limit(self):
        got = center_curve(F(10 ** 6), TWO)
        assert ONE < got < F("1.01")

    def test_beta_15_oracle(self):
        got = center_curve(F(2), F("1.5"))
        assert abs(to_mp(got) - mpmath.mpf("3.962482633356137460717743")) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            center_curve(ONE, TWO)
        with pytest.raises(DomainError):
            center_curve(F("0.5"), TWO)


class TestLimitRecoveries:
    def test_cpmm_recovery(self):
        # alpha = -1: on-curve points satisfy x*y = 1 within 1e-12
        p = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
        for k in range(1, 101):
            x = F.from_raw(WAD // 10 + (10 * WAD - WAD // 10) * k // 100)
            y = fp_div(ONE, x)
            assert abs(csemm_residual(p, (x, y)).raw) <= 10 ** 6

    def test_csmm_recovery(self):
        p = CurveParams(n=2, mode="csemm", alphas=(TWO, TWO))
        for k in range(1, 100):
            x = F.from_raw(2 * WAD * k // 100)
            y = F.from_raw(2 * WAD - x.raw)
            assert abs(csemm_residual(p, (x, y)).raw) <= 10 ** 6

    def test_ccmm_csemm_equivalence_on_curve_points(self):
        # alpha = l uniformly: residuals vanish together through (1, 1)
        pc = CurveParams(n=2)
        ps = CurveParams(n=2, mode="csemm", alphas=(L, L))
        from polarpool.swap import ccmm_y_of_x

        for k in range(1, 1001):
            x = F.from_raw(int(0.2 * WAD) + int(1.4 * WAD) * k // 1001)
            y = ccmm_y_of_x(pc, x)
            assert abs(to_mp(ccmm_residual(pc, (x, y)))) < 1e-12
            assert abs(to_mp(csemm_residual(ps, (x, y)))) < 1e-12

    def test_unit_crossing_scale_invariance(self):
        # c from the center curve puts (1,1) on the beta-ellipse
        for b_str in ["1.1", "1.25", "1.5", "1.75", "2"]:
            beta = F(b_str)
            c = price_peak_for_unit_crossing(L, beta)
            p = CurveParams(n=2, mode="shifted", beta=beta, c=c)
            assert abs(to_mp(shifted_ellipse_residual(p, ONE, ONE))) < 1e-12


class TestScaleSolving:
    def test_n2_unit_pool(self):
        p = CurveParams(n=2)
        s = solve_ccmm_scale(p, (ONE, ONE))
        assert s == ONE

    def test_n3_equal_reserves_on_curve(self):
        p = CurveParams(n=3)
        s = solve_ccmm_scale(p, (ONE, ONE, ONE))
        state = PoolState(reserves=(ONE, ONE, ONE), liquidity_scale=s)
        assert abs(invariant_residual(p, state).raw) <= 100

    def test_n6_equal_reserves_on_curve(self):
        p = CurveParams(n=6)
        s = solve_ccmm_scale(p, tuple(ONE for _ in range(6)))
        state = PoolState(reserves=tuple(ONE for _ in range(6)), liquidity_scale=s)
        assert abs(invariant_residual(p, state).raw) <= 100

    def test_csemm_scale_uniform_alpha(self):
        p = CurveParams(n=3, mode="csemm", alphas=(F(4), F(4), F(4)))
        s = solve_csemm_scale(p, (ONE, ONE, ONE))
        state = PoolState(reserves=(ONE, ONE, ONE), liquidity_scale=s)
        assert abs(invariant_residual(p, state).raw) <= 100

    def test_csemm_scale_cpmm(self):
        p = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
        s = solve_csemm_scale(p, (TWO, TWO))
        state = PoolState(reserves=(TWO, TWO), liquidity_scale=s)
        assert abs(invariant_residual(p, state).raw) <= 100


class TestSpotPrice:
    def test_symmetric_unit_price(self):
        p = CurveParams(n=2)
        st = PoolState(reserves=(ONE, ONE))
        assert spot_price(p, st) == ONE

    def test_cpmm_price(self):
        p = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
        st = PoolState(reserves=(TWO, F("0.5")))
        # price of x in y on xy=1 at (2, 1/2) is y/x = 1/4
        assert abs(spot_price(p, st).raw - WAD // 4) <= 10 ** 4


class TestTokenPair:
    def test_partner_defaults_on_two_token_pools_only(self):
        assert token_pair(CurveParams(n=2), 1) == (1, 0)
        assert token_pair(CurveParams(n=3), 2, 0) == (2, 0)
        with pytest.raises(ValidationError, match="partner token required"):
            token_pair(CurveParams(n=3), 0)

    @pytest.mark.parametrize("token, other", [(0, 0), (0, 2), (-1, 0), (2, None)])
    def test_bad_pair_rejected(self, token, other):
        with pytest.raises(ValidationError, match="bad token indices"):
            token_pair(CurveParams(n=2), token, other)


class TestValidationAndSerialization:
    def test_bad_params(self):
        with pytest.raises(ValidationError):
            CurveParams(n=1)
        with pytest.raises(ValidationError):
            CurveParams(mode="nope")
        with pytest.raises(ValidationError):
            CurveParams(n=2, mode="csemm", alphas=(F("0.5"), TWO))
        with pytest.raises(ValidationError):
            CurveParams(n=2, mode="shifted", beta=F(3))
        with pytest.raises(ValidationError):
            PoolState(reserves=(F(-1), ONE))

    def test_round_trip(self):
        p = CurveParams(n=2, mode="csemm", alphas=(F(4), F("-1.5")))
        st = PoolState(reserves=(ONE, F("2.25")), liquidity_scale=F("3.5"),
                       angle_deg=F(45))
        text = dumps(PoolFile(params=p, state=st, ledger=TickLedger()))
        pool = loads(text)
        assert pool.params == p
        assert pool.state == st
        assert dumps(pool) == text
