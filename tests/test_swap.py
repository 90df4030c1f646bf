"""Cartesian swaps against the 40-digit oracle and each other."""

import random
from decimal import Context, Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpool.errors import DomainError, InsufficientLiquidityError
from polarpool.fixed import FixedDecimal, ONE, TWO, WAD, ZERO, fp_div, fp_mul, fp_sub
from polarpool.invariant import (
    CurveParams,
    ON_CURVE_TOLERANCE,
    PoolState,
    default_offset,
    invariant_residual,
    solve_ccmm_scale,
    solve_csemm_scale,
    solve_shifted_scale,
    spot_price,
)
from polarpool.swap import ccmm_y_of_x, commit, csemm_y_of_x, pair_swap

mpmath.mp.dps = 40

F = FixedDecimal
L = default_offset()


def to_mp(x: FixedDecimal) -> mpmath.mpf:
    return mpmath.mpf(x.raw) / WAD


CIRCLE = CurveParams(n=2)
UNIT_STATE = PoolState(reserves=(ONE, ONE))


class TestCcmmCurve:
    def test_symmetric_point(self):
        assert abs(ccmm_y_of_x(CIRCLE, ONE).raw - WAD) <= 2

    def test_axis_points(self):
        assert ccmm_y_of_x(CIRCLE, CIRCLE.l).raw <= 2
        assert abs(ccmm_y_of_x(CIRCLE, ZERO).raw - CIRCLE.l.raw) <= 2

    def test_domain(self):
        with pytest.raises(DomainError):
            ccmm_y_of_x(CIRCLE, F(4))
        with pytest.raises(DomainError):
            ccmm_y_of_x(CIRCLE, F(-1))

    def test_arc_end_correctly_rounded(self):
        # y(x) = L - sqrt(L^2 - (L - x)^2) for x below 0.03, where the two
        # squares nearly cancel, against 80 digits
        ctx = Context(prec=80)
        rng = random.Random(29)
        for scale in (ONE, F("0.37"), F(3)):
            offset = fp_mul(CIRCLE.l, scale)
            big_l = ctx.divide(Decimal(offset.raw), WAD)
            for _ in range(700):
                x = F.from_raw(rng.randrange(1, 3 * WAD // 100))
                d = ctx.subtract(big_l, ctx.divide(Decimal(x.raw), WAD))
                exact = ctx.subtract(big_l, ctx.sqrt(ctx.subtract(ctx.multiply(big_l, big_l),
                                                                  ctx.multiply(d, d))))
                y = ccmm_y_of_x(CIRCLE, x, scale)
                assert abs(ctx.subtract(ctx.multiply(exact, WAD), y.raw)) <= Decimal("0.5")

    def test_involution(self):
        # y(y(x)) = x within 1e-12 across the arc
        for k in range(1, 200):
            x = F.from_raw(CIRCLE.l.raw * k // 200)
            back = ccmm_y_of_x(CIRCLE, ccmm_y_of_x(CIRCLE, x))
            assert abs(back.raw - x.raw) <= 10 ** 6


class TestCcmmSwap:
    def test_identity_trade(self):
        q = pair_swap(CIRCLE, UNIT_STATE, 0, ZERO)
        assert q.amount_in == ZERO and q.amount_out == ZERO
        assert q.new_reserves == (ONE, ONE)

    def test_buy_x_down_to_half(self):
        # new x-coordinate 0.5; oracle: y(0.5) - 1 paid in y
        q = pair_swap(CIRCLE, UNIT_STATE, 0, F("-0.5"))
        y_new = to_mp(L) - mpmath.sqrt(2 * to_mp(L) * mpmath.mpf("0.5") - mpmath.mpf("0.25"))
        assert q.token_in == 1 and q.token_out == 0
        assert abs(to_mp(q.amount_in) - (y_new - 1)) < 1e-15
        assert abs(to_mp(q.amount_out) - mpmath.mpf("0.5")) < 1e-15

    def test_sell_x_matches_oracle(self):
        q = pair_swap(CIRCLE, UNIT_STATE, 0, ONE)
        y_new = to_mp(L) - mpmath.sqrt(2 * to_mp(L) * 2 - 4)
        assert abs(to_mp(q.amount_out) - (1 - y_new)) < 1e-15

    def test_round_trip(self):
        q1 = pair_swap(CIRCLE, UNIT_STATE, 0, F("0.7"))
        mid = commit(UNIT_STATE, q1)
        # sell the received y back
        q2 = pair_swap(CIRCLE, mid, 1, q1.amount_out)
        final = commit(mid, q2)
        assert abs(final.reserves[0].raw - WAD) <= 1000
        assert abs(final.reserves[1].raw - WAD) <= 1000

    def test_price_falls_when_selling_x(self):
        q = pair_swap(CIRCLE, UNIT_STATE, 0, F("0.3"))
        assert q.price_after <= q.price_before

    def test_exits_arc_rejected(self):
        with pytest.raises(InsufficientLiquidityError):
            pair_swap(CIRCLE, UNIT_STATE, 0, F(5))

    def test_output_monotone_and_concave(self):
        outs = []
        for k in range(1, 1001):
            delta = F.from_raw(2 * WAD * k // 1000)
            outs.append(pair_swap(CIRCLE, UNIT_STATE, 0, delta).amount_out.raw)
        diffs = [b - a for a, b in zip(outs, outs[1:])]
        assert all(d > 0 for d in diffs)
        assert all(d2 <= d1 + 2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_marginal_price_matches_spot(self):
        spot = spot_price(CIRCLE, UNIT_STATE, 0, 1)
        q = pair_swap(CIRCLE, UNIT_STATE, 0, F("0.000000001"))
        ratio = fp_div(q.amount_out, q.amount_in)
        assert abs(to_mp(ratio) - to_mp(spot)) < 1e-6


CPMM = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
CSMM = CurveParams(n=2, mode="csemm", alphas=(TWO, TWO))
CIRCLE_AS_SUPER = CurveParams(n=2, mode="csemm", alphas=(L, L))


class TestCsemmCurve:
    def test_circle_equivalence_point(self):
        got = csemm_y_of_x(CIRCLE_AS_SUPER, ONE)
        want = ccmm_y_of_x(CIRCLE, ONE)
        assert abs(got.raw - want.raw) <= 100

    def test_constant_sum_line(self):
        assert csemm_y_of_x(CSMM, F("0.5")) == F("1.5")

    def test_constant_product(self):
        got = csemm_y_of_x(CPMM, TWO)
        assert abs(got.raw - WAD // 2) <= 10


class TestCsemmSwaps:
    def test_identity(self):
        q = pair_swap(CPMM, UNIT_STATE, 0, ZERO)
        assert q.amount_out == ZERO

    def test_cpmm_sell_one(self):
        q = pair_swap(CPMM, UNIT_STATE, 0, ONE)
        assert abs(to_mp(q.amount_out) - mpmath.mpf("0.5")) < 1e-15
        assert q.new_reserves[0] == TWO
        assert abs(q.new_reserves[1].raw - WAD // 2) <= 10

    def test_matches_ccmm_on_100_random_trades(self):
        rng = random.Random(42)
        for _ in range(100):
            delta = F.from_raw(rng.randrange(-9 * WAD // 10, 2 * WAD))
            qs = pair_swap(CIRCLE_AS_SUPER, UNIT_STATE, 0, delta)
            qc = pair_swap(CIRCLE, UNIT_STATE, 0, delta)
            assert abs(qs.amount_out.raw - qc.amount_out.raw) <= 10 ** 6  # 1e-12
            assert abs(qs.amount_in.raw - qc.amount_in.raw) <= 10 ** 6

    def test_exact_out_identity(self):
        q = pair_swap(CPMM, UNIT_STATE, 1, ZERO)
        assert q.amount_in == ZERO and q.amount_out == ZERO

    def test_exact_out_cpmm_reverse_leg(self):
        # from (2, 1/2): pay 1/2 of y in, receive 1 of x, back to (1, 1)
        state = PoolState(reserves=(TWO, F("0.5")))
        q = pair_swap(CPMM, state, 1, F("0.5"))
        assert q.token_in == 1 and q.token_out == 0
        assert abs(to_mp(q.amount_out) - 1) < 1e-15
        assert abs(q.new_reserves[0].raw - WAD) <= 10

    def test_exact_out_inverts_exact_in(self):
        rng = random.Random(7)
        for params in (CPMM, CIRCLE_AS_SUPER):
            for _ in range(50):
                delta = F.from_raw(rng.randrange(1, WAD))
                fwd = pair_swap(params, UNIT_STATE, 0, delta)
                inv = pair_swap(params, UNIT_STATE, 1, -fwd.amount_out)
                assert abs(inv.amount_in.raw - delta.raw) <= 10 ** 9  # 1e-9

    def test_infeasible_rejected(self):
        with pytest.raises(InsufficientLiquidityError):
            pair_swap(CSMM, UNIT_STATE, 0, F(5))


class TestPairwise:
    def setup_method(self):
        self.params = CurveParams(n=3)
        scale = solve_ccmm_scale(self.params, (ONE, ONE, ONE))
        self.state = PoolState(reserves=(ONE, ONE, ONE), liquidity_scale=scale)

    def test_identity(self):
        q = pair_swap(self.params, self.state, 0, ZERO, 1)
        assert q.amount_out == ZERO

    def test_reversibility(self):
        q1 = pair_swap(self.params, self.state, 0, F("0.4"), 1)
        mid = commit(self.state, q1)
        q2 = pair_swap(self.params, mid, 1, q1.amount_out, 0)
        final = commit(mid, q2)
        for r in final.reserves:
            assert abs(r.raw - WAD) <= 10 ** 9  # 1e-9

    def test_marginal_price_one_at_symmetric_point(self):
        q = pair_swap(self.params, self.state, 0, F("0.000000001"), 1)
        ratio = fp_div(q.amount_out, q.amount_in)
        assert abs(to_mp(ratio) - 1) < 1e-6
        assert abs(to_mp(q.price_before) - 1) < 1e-12

    def test_residual_preserved(self):
        state = self.state
        rng = random.Random(3)
        for _ in range(50):
            i = rng.randrange(3)
            j = (i + 1 + rng.randrange(2)) % 3
            delta = F.from_raw(rng.randrange(1, WAD // 4))
            try:
                q = pair_swap(self.params, state, i, delta, j)
            except InsufficientLiquidityError:
                continue
            state = commit(state, q)
            assert abs(invariant_residual(self.params, state).raw) <= 10 ** 9


def _trade_delta(params, state, token, sell, permille):
    """Signed reserve change: a share of the room to the arc end or to zero."""
    if not sell:
        return -fp_mul(state.reserves[token], F.from_fraction(permille, 1000))
    if params.mode == "csemm":
        edge = fp_mul(params.alphas[token], state.liquidity_scale)
    else:
        edge = fp_mul(params.l, state.liquidity_scale)
        if token == 1:
            edge = fp_mul(edge, params.c)
    room = fp_sub(edge, state.reserves[token])
    return fp_mul(room, F.from_fraction(permille, 1000))


def _on_curve_pool(params):
    solve = solve_csemm_scale if params.mode == "csemm" else solve_shifted_scale
    return PoolState(reserves=(ONE, ONE), liquidity_scale=solve(params, (ONE, ONE)))


ASYMMETRIC_CSEMM = [
    CurveParams(n=2, mode="csemm", alphas=(F(a), F(b))) for a, b in [(4, 10), (10, 4), (3, 6)]
]
SHIFTED = [
    CurveParams(n=2, mode="shifted", beta=F("1.5"), c=F("0.647643292213304161")),
    CurveParams(n=2, mode="shifted", beta=TWO, c=ONE),
]


class TestUnequalCurves:
    """Trades on curves whose two tokens play different roles."""

    @settings(max_examples=60, deadline=None)
    @given(params=st.sampled_from(ASYMMETRIC_CSEMM), permille=st.integers(1, 900))
    def test_asymmetric_csemm_token1_sale_on_curve(self, params, permille):
        state = _on_curve_pool(params)
        delta = _trade_delta(params, state, 1, True, permille)
        q = pair_swap(params, state, 1, delta)
        assert (q.token_in, q.token_out, q.amount_in) == (1, 0, delta)
        assert q.amount_out > ZERO
        assert abs(invariant_residual(params, commit(state, q))) <= ON_CURVE_TOLERANCE

    @settings(max_examples=60, deadline=None)
    @given(params=st.sampled_from(ASYMMETRIC_CSEMM), token=st.integers(0, 1),
           sell=st.booleans(), permille=st.integers(1, 900))
    def test_asymmetric_csemm_buy_and_sell_are_inverses(self, params, token, sell, permille):
        state = _on_curve_pool(params)
        delta = _trade_delta(params, state, token, sell, permille)
        mid = commit(state, pair_swap(params, state, token, delta))
        back = commit(mid, pair_swap(params, mid, token, -delta))
        assert back.reserves[token] == state.reserves[token]
        assert abs(back.reserves[1 - token].raw - state.reserves[1 - token].raw) <= 10 ** 9

    @settings(max_examples=60, deadline=None)
    @given(params=st.sampled_from(SHIFTED), token=st.integers(0, 1),
           sell=st.booleans(), permille=st.integers(1, 900))
    def test_shifted_trades_stay_on_curve(self, params, token, sell, permille):
        state = _on_curve_pool(params)
        delta = _trade_delta(params, state, token, sell, permille)
        q = pair_swap(params, state, token, delta)
        assert q.amount_in > ZERO and q.amount_out > ZERO
        assert q.token_in == (token if sell else 1 - token)
        assert abs(invariant_residual(params, commit(state, q))) <= ON_CURVE_TOLERANCE
