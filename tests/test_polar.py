"""Polar route: angle conversion anchors, round trips, path equivalence."""

import random
import time

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarpool.errors import DomainError, InsufficientLiquidityError
from polarpool.fixed import FixedDecimal, ONE, WAD, ZERO, _nearest_isqrt, fp_mul, fp_sub
from polarpool.invariant import CurveParams, PoolState, ccmm_residual, solve_ccmm_scale
from polarpool.polar import (
    NINETY,
    angle_to_price,
    arbitrage_point,
    arc_point,
    boundary_cos_sin,
    cartesian_to_polar,
    circle_point,
    point_angle,
    polar_swap_delta_y,
    price_to_angle,
    reserves_at_angle,
)
from polarpool.swap import commit, pair_swap, y_of_x
from polarpool.ticks import LpPosition, TickLedger, add_position, route_swap
from reference import assert_correctly_rounded, circle_step_within, spread_raws, to_mp

F = FixedDecimal
CIRCLE = CurveParams(n=2)
UNIT_STATE = PoolState(reserves=(ONE, ONE))


def polar_quote(params, state, token_in, delta):
    """Quote of a two-token trade on the polar route."""
    quote, _, _ = route_swap(params, TickLedger(), state, "polar",
                             token_in, 1 - token_in, delta)
    return quote


class TestAngleConversion:
    def test_unit_price_at_45(self):
        assert price_to_angle(ONE) == F(45)

    def test_zero_price_at_90(self):
        assert price_to_angle(ZERO) == F(90)

    def test_eighty_cents_at_50(self):
        assert price_to_angle(F("0.8")) == F(50)

    def test_inverse_anchors(self):
        assert angle_to_price(F(45)) == ONE
        assert angle_to_price(F(90)) == ZERO

    def test_domain(self):
        with pytest.raises(DomainError):
            price_to_angle(F(-1))
        with pytest.raises(DomainError):
            angle_to_price(ZERO)
        with pytest.raises(DomainError):
            angle_to_price(F(91))

    def test_round_trip_identity(self):
        for p in [F("0.01"), F("0.5"), ONE, F(2), F(100)]:
            back = angle_to_price(price_to_angle(p))
            assert abs(back.raw - p.raw) <= 10 ** 6  # 1e-12

    def test_round_trip_grid(self):
        # 1e3 prices, log-spaced over [1e-3, 1e3]
        for k in range(1000):
            p = F.from_raw(10 ** 15 + (10 ** 21 - 10 ** 15) * k // 999)
            back = angle_to_price(price_to_angle(p))
            assert abs(back.raw - p.raw) <= 10 ** 6

    def test_monotone_price_in_angle(self):
        prev = None
        for k in range(1, 900):
            angle = F.from_raw(90 * WAD * k // 900)
            p = angle_to_price(angle)
            if prev is not None:
                assert p < prev
            prev = p


class TestCartesianPolar:
    def test_symmetric_point(self):
        assert abs(cartesian_to_polar(CIRCLE, ONE, ONE).raw - 45 * WAD) <= 100

    def test_axis_points(self):
        assert abs(cartesian_to_polar(CIRCLE, CIRCLE.l, ZERO).raw - 90 * WAD) <= 100
        assert cartesian_to_polar(CIRCLE, ZERO, CIRCLE.l).raw <= 100

    def test_off_curve_rejected(self):
        with pytest.raises(DomainError):
            cartesian_to_polar(CIRCLE, ONE, F("1.5"))

    def test_round_trip_on_curve_points(self):
        rng = random.Random(5)
        for _ in range(1000):
            angle = F.from_raw(rng.randrange(0, NINETY.raw + 1))
            x, y = reserves_at_angle(CIRCLE, angle)
            assert abs(cartesian_to_polar(CIRCLE, x, y).raw - angle.raw) <= 10 ** 6  # 1e-12

    def test_reserves_at_angle_is_on_curve(self):
        for k in range(1, 90):
            x, y = reserves_at_angle(CIRCLE, F(k))
            assert abs(cartesian_to_polar(CIRCLE, x, y).raw - k * WAD) <= 10 ** 6


class TestCircleRule:
    """The one on-circle rule that every circular route checks at its start."""

    @staticmethod
    def radius_error(params, state):
        """|sqrt(sum (L - x_i)^2) - L| in quanta, the root correctly rounded."""
        ds = circle_point(params, state.reserves, state.liquidity_scale)
        return abs(_nearest_isqrt(sum(d * d for d in ds))
                   - fp_mul(params.l, state.liquidity_scale).raw)

    @settings(max_examples=50, deadline=None)
    @given(n=st.sampled_from([2, 3]), k=st.integers(-6, 12),
           units=st.lists(st.integers(5 * 10 ** 8, 15 * 10 ** 8), min_size=3, max_size=3),
           permille=st.integers(1, 500))
    def test_init_pools_quote_alike_on_every_route(self, n, k, units, permille):
        # reserves 10^k * U[0.5, 1.5], as init puts them on the circle
        params = CurveParams(n=n)
        reserves = tuple(F.from_raw(u * 10 ** (k + 9)) for u in units[:n])
        scale = solve_ccmm_scale(params, reserves)
        angle = cartesian_to_polar(params, *reserves, scale) if n == 2 else None
        state = PoolState(reserves, liquidity_scale=scale, angle_deg=angle)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        # at most half of the room L - x_0 the in-reserve has below the
        # centre, so that the sell fits on the pair circle of every route
        room = fp_sub(fp_mul(params.l, scale), reserves[0])
        amount = fp_mul(min(reserves[0], room), F.from_fraction(permille, 1000))
        quotes = [route_swap(params, ledger, state, route, 0, 1, amount)[0]
                  for route in ("cartesian", "polar", "ticks")]
        assert quotes[0] == quotes[1]
        assert quotes[0].amount_out == quotes[2].amount_out
        assert quotes[0].new_reserves == quotes[2].new_reserves

    def test_n3_pair_swap_chain_stays_on_the_circle(self):
        # each pair step rounds one reserve onto the circle through the
        # point, which moves the point's radius by at most about half a quantum
        params = CurveParams(n=3)
        reserves = (ONE, ONE, ONE)
        state = PoolState(reserves, liquidity_scale=solve_ccmm_scale(params, reserves))
        start = self.radius_error(params, state)
        rng = random.Random(25)
        for trade in range(1, 2001):
            i, j = rng.sample(range(3), 2)
            delta = F.from_raw(rng.randrange(-WAD // 4, WAD // 4))
            try:
                state = commit(state, pair_swap(params, state, i, delta, j))
            except InsufficientLiquidityError:
                continue
            assert self.radius_error(params, state) <= start + (trade + 1) // 2

    @pytest.mark.parametrize("scale", ["0.001", "1", "1000", "1000000000"])
    def test_bound_is_relative_to_max_of_one_and_l(self, scale):
        # the point (L - e, 0) of the reserves (e, L) lies e inside the circle
        scale = F(scale)
        offset = fp_mul(CIRCLE.l, scale).raw
        bound = 10 ** 9 * max(offset, WAD) // WAD
        reserves = (F.from_raw(bound), F.from_raw(offset))
        assert circle_point(CIRCLE, reserves, scale) == [offset - bound, 0]
        with pytest.raises(DomainError, match="off-curve point"):
            circle_point(CIRCLE, (F.from_raw(bound + 1), F.from_raw(offset)), scale)


class TestArcPoints:
    def test_boundary_table_within_a_quantum(self):
        # every 0.5-degree boundary against 50 digits; below 45 degrees the
        # pair of 90 - b is the pair of b swapped, bit for bit
        with mpmath.workdps(50):
            for k in range(181):
                raw = k * WAD // 2
                cos_b, sin_b = boundary_cos_sin(raw)
                rad = mpmath.radians(mpmath.mpf(raw) / WAD)
                assert abs(cos_b.raw - mpmath.cos(rad) * WAD) <= 1
                assert abs(sin_b.raw - mpmath.sin(rad) * WAD) <= 1
                if k < 90:
                    assert boundary_cos_sin(NINETY.raw - raw) == (sin_b, cos_b)
        assert boundary_cos_sin(0) == (ONE, ZERO)
        assert boundary_cos_sin(NINETY.raw) == (ZERO, ONE)

    def test_boundary_table_mirrors_bit_for_bit(self):
        # on every boundary of a 0.5-degree grid, 45 included, and at random
        # raws, each entry is correctly rounded, so the pair of 90 - b is the
        # pair of b swapped and 45 holds sqrt(1/2) twice
        rng = random.Random(45)
        raws = [k * WAD // 2 for k in range(181)] + [rng.randrange(NINETY.raw + 1)
                                                     for _ in range(100)]
        with mpmath.workdps(60):
            for raw in raws:
                cos_b, sin_b = boundary_cos_sin(raw)
                assert boundary_cos_sin(NINETY.raw - raw) == (sin_b, cos_b)
                radians = mpmath.radians(mpmath.mpf(raw) / WAD)
                assert_correctly_rounded(cos_b, mpmath.cos(radians))
                assert_correctly_rounded(sin_b, mpmath.sin(radians))
        assert boundary_cos_sin(45 * WAD) == (F("0.707106781186547524"),) * 2

    @given(st.integers(0, 90 * WAD))
    @example(0)
    @example(WAD // 2)
    @example(45 * WAD)
    @settings(max_examples=300)
    def test_reserves_at_angle_mirror_bit_for_bit(self, raw):
        x, y = reserves_at_angle(CIRCLE, F.from_raw(raw), F(3))
        assert reserves_at_angle(CIRCLE, F.from_raw(NINETY.raw - raw), F(3)) == (y, x)

    def test_arbitrage_point_is_the_unit_price_vector(self):
        rng = random.Random(17)
        for _ in range(300):
            price = F.from_raw(rng.randrange(WAD // 100, 100 * WAD))
            cos_p, sin_p = arbitrage_point(price)
            norm = mpmath.sqrt(1 + to_mp(price) ** 2)
            assert abs(cos_p.raw - to_mp(price) / norm * WAD) <= 0.5
            assert abs(sin_p.raw - WAD / norm) <= 0.5


class TestAppendixRoutine:
    def test_printed_constant(self):
        got = polar_swap_delta_y(CIRCLE, ONE)
        assert abs(to_mp(got) - mpmath.mpf("0.999958580363")) < 1e-9

    def test_zero_input(self):
        assert abs(polar_swap_delta_y(CIRCLE, ZERO).raw) <= 100

    def test_runtime_under_one_ms(self):
        polar_swap_delta_y(CIRCLE, ONE)  # warm constants
        t0 = time.perf_counter()
        for _ in range(100):
            polar_swap_delta_y(CIRCLE, ONE)
        per_call = (time.perf_counter() - t0) / 100
        assert per_call < 1e-3

    def test_clean_route_matches_cartesian_at_45(self):
        # without the 10000-fold scaling, the rotation from (1,1) is the
        # closed-form swap: the same square root, bit for bit
        assert polar_quote(CIRCLE, UNIT_STATE, 0, ONE) == pair_swap(
            CIRCLE, UNIT_STATE, 0, ONE)


class TestPathEquivalence:
    def test_thousand_random_trades(self):
        rng = random.Random(99)
        for _ in range(1000):
            x0 = F.from_raw(rng.randrange(WAD // 100, CIRCLE.l.raw - WAD // 100))
            y0 = y_of_x(CIRCLE, x0)
            state = PoolState(reserves=(x0, y0))
            token_in = rng.randrange(2)
            room = fp_sub(CIRCLE.l, state.reserves[token_in])
            delta = F.from_raw(rng.randrange(1, max(2, room.raw)))
            qp = polar_quote(CIRCLE, state, token_in, delta)
            qc = pair_swap(CIRCLE, state, token_in, delta)
            assert abs(qp.amount_out.raw - qc.amount_out.raw) <= 10 ** 9  # 1e-9

    def test_rotation_preserves_radius(self):
        state = UNIT_STATE
        rng = random.Random(17)
        for _ in range(30):
            token_in = rng.randrange(2)
            room = fp_sub(CIRCLE.l, state.reserves[token_in])
            if room.raw < 10 ** 9:
                break
            delta = F.from_raw(rng.randrange(1, room.raw // 2 + 1))
            q = polar_quote(CIRCLE, state, token_in, delta)
            state = commit(state, q)
            # |r^2 - L^2| = |r - L| (r + L): a radius within 1e-9 of L
            assert abs(ccmm_residual(CIRCLE, state.reserves).raw) <= 2 * CIRCLE.l.raw // 10 ** 9

    def test_angle_cache_matches_geometry(self):
        q = polar_quote(CIRCLE, UNIT_STATE, 0, ONE)
        state = UNIT_STATE.with_reserves(q.new_reserves)
        # a committed quote clears the cached angle, and geometry recovers
        # one consistent with the reserves
        assert state.angle_deg is None
        x, y = q.new_reserves
        geometric = cartesian_to_polar(CIRCLE, x, y, state.liquidity_scale)
        assert geometric == point_angle(*arc_point(CIRCLE, x, y))
        for got, want in zip(reserves_at_angle(CIRCLE, geometric), (x, y)):
            assert abs(got.raw - want.raw) <= 100

    @given(
        spread_raws(13, 20).filter(lambda raw: raw < NINETY.raw),
        spread_raws(17, 20).filter(lambda raw: raw <= 10 ** 19),
        st.sampled_from([0, 1]),
        st.integers(0, 18),
        st.integers(1, 99),
    )
    @example(10 ** 15, 10 ** 16, 0, 18, 1)  # 0.001 degree, scale 0.01, one quantum
    @settings(max_examples=400, deadline=None)
    def test_routes_land_on_the_exact_circle(self, walk_raw, scale_raw, token_in,
                                             digits, leading):
        # walk angles from 1e-6 degrees up, scales 0.01 to 10, trades from a
        # quantum to 99 % of the room left: near the arc start one quantum
        # of the in-reserve moves the other by cot(phi) quanta, and both
        # routes still land within half a quantum of the exact circle
        scale = F.from_raw(scale_raw)
        walk = F.from_raw(walk_raw)
        angle = walk if token_in == 0 else fp_sub(NINETY, walk)
        state = PoolState(reserves=reserves_at_angle(CIRCLE, angle, scale),
                          liquidity_scale=scale)
        offset = fp_mul(CIRCLE.l, scale)
        room = offset.raw - state.reserves[token_in].raw
        delta = F.from_raw(max(1, room * leading // (100 * 10 ** digits)))
        moved = state.reserves[token_in].raw + delta.raw
        for quote in (polar_quote(CIRCLE, state, token_in, delta),
                      pair_swap(CIRCLE, state, token_in, delta)):
            out = state.reserves[1 - token_in].raw - quote.amount_out.raw
            assert circle_step_within(offset.raw, offset.raw ** 2, moved, out)
