"""Tick ledger vs brute force; tick swaps vs numerical integration."""

import bisect
import math
import random
from dataclasses import replace

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarpool.errors import (
    DomainError,
    EngineError,
    InsufficientLiquidityError,
    NotFoundError,
    ValidationError,
)
from polarpool.fixed import FixedDecimal, ONE, WAD, ZERO, fp_mul, fp_sub
from polarpool.invariant import CurveParams, PoolState, solve_ccmm_scale
from polarpool.polar import NINETY, reserves_at_angle
from polarpool.swap import pair_swap
import polarpool.polar
import polarpool.ticks
from polarpool.ticks import (
    LpPosition,
    TickGrid,
    TickLedger,
    active_liquidity,
    add_position,
    commit_tick_swap,
    remove_position,
    route_swap,
    swap_across_ticks,
    tick_width_in_price,
)

F = FixedDecimal
CIRCLE = CurveParams(n=2)


def brute_force_active(ledger: TickLedger, angle: FixedDecimal) -> FixedDecimal:
    total = ZERO
    for p in ledger.positions:
        if p.contains(angle):
            total = total + (p.liquidity if p.side == "long" else -p.liquidity)
    return total


def make_fig3_ledger():
    """Full-range backstop of 5 plus a concentrated 3 on [40, 55]."""
    ledger = TickLedger(grid=TickGrid(spacing_deg=ONE))
    ledger = add_position(ledger, LpPosition("lp1", F(0), F(90), F(5)))
    ledger = add_position(ledger, LpPosition("lp2", F(40), F(55), F(3)))
    return ledger


class TestGrid:
    def test_spacing_must_divide_90(self):
        assert TickGrid(spacing_deg=ONE).tick_count == 90
        assert TickGrid(spacing_deg=F("0.5")).tick_count == 180
        with pytest.raises(ValidationError):
            TickGrid(spacing_deg=F("0.7"))

    def test_alignment(self):
        grid = TickGrid(spacing_deg=F("0.5"))
        assert grid.is_aligned(F("40.5"))
        assert not grid.is_aligned(F("40.25"))


class TestLedgerBookkeeping:
    def test_full_range_position(self):
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("a", F(0), F(90), F(5)))
        for angle in [ZERO, F(30), F(45), F("89.999999999999999999")]:
            assert active_liquidity(ledger, angle) == F(5)

    def test_fig3_overlay(self):
        ledger = make_fig3_ledger()
        assert active_liquidity(ledger, F(45)) == F(8)
        assert active_liquidity(ledger, F(30)) == F(5)

    def test_remove_restores(self):
        ledger = make_fig3_ledger()
        ledger = remove_position(ledger, "lp2")
        assert active_liquidity(ledger, F(45)) == F(5)

    def test_unknown_id(self):
        with pytest.raises(NotFoundError):
            remove_position(TickLedger(), "ghost")

    def test_unaligned_bounds_rejected(self):
        ledger = TickLedger()
        with pytest.raises(ValidationError):
            add_position(ledger, LpPosition("a", F("0.25"), F(10), ONE))

    def test_short_needs_hedge_builder(self):
        ledger = TickLedger()
        with pytest.raises(ValidationError):
            add_position(ledger, LpPosition("s", F(10), F(11), ONE, side="short"))

    def test_short_cannot_exceed_long(self):
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("a", F(10), F(12), ONE))
        with pytest.raises(ValidationError):
            add_position(
                ledger,
                LpPosition("s", F(10), F(12), F(2), side="short"),
                _from_hedge=True,
            )

    def test_removing_cover_of_short_rejected(self):
        ledger = add_position(TickLedger(), LpPosition("a", F(10), F(12), ONE))
        ledger = add_position(ledger, LpPosition("s", F(10), F(11), ONE, side="short"),
                              _from_hedge=True)
        with pytest.raises(ValidationError, match="short liquidity exceeds long"):
            remove_position(ledger, "a")

    def test_empty_ledger_zero_everywhere(self):
        ledger = TickLedger()
        for angle in [ZERO, F(45), F(90)]:
            assert active_liquidity(ledger, angle) == ZERO

    def test_out_of_range_angle(self):
        with pytest.raises(DomainError):
            active_liquidity(TickLedger(), F(91))

    def test_thousand_random_ops_match_brute_force(self):
        rng = random.Random(20250809)
        ledger = TickLedger()
        live = []
        counter = 0
        for _ in range(1000):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                ledger = remove_position(ledger, victim)
            else:
                lo = rng.randrange(0, 90)
                hi = rng.randrange(lo + 1, 91)
                liq = F.from_raw(rng.randrange(1, 10 * WAD))
                pid = f"p{counter}"
                counter += 1
                ledger = add_position(
                    ledger, LpPosition(pid, F(lo), F(hi), liq)
                )
                live.append(pid)
        for _ in range(1000):
            angle = F.from_raw(rng.randrange(0, 90 * WAD))
            assert active_liquidity(ledger, angle) == brute_force_active(ledger, angle)

    @given(st.lists(st.tuples(st.integers(0, 89), st.integers(1, 90),
                              st.integers(1, 10 ** 19)), max_size=30),
           st.integers(0, 90 * WAD - 1))
    @settings(max_examples=200, deadline=None)
    def test_aggregation_property(self, spans, probe_raw):
        ledger = TickLedger()
        for k, (lo, span, liq_raw) in enumerate(spans):
            hi = min(90, lo + span)
            if hi <= lo:
                continue
            ledger = add_position(
                ledger, LpPosition(f"h{k}", F(lo), F(hi), F.from_raw(liq_raw))
            )
        angle = F.from_raw(probe_raw)
        assert active_liquidity(ledger, angle) == brute_force_active(ledger, angle)


class TestTickWidths:
    def test_tick_45_46(self):
        grid = TickGrid()
        lo, hi = tick_width_in_price(grid, 45)
        assert hi == ONE
        # 90/46 - 1 = 0.95652173913...
        assert abs(lo.raw - 956521739130434783) <= 2

    def test_tick_89_90(self):
        lo, hi = tick_width_in_price(TickGrid(), 89)
        assert lo == ZERO
        assert abs(hi.raw - 11235955056179775) <= 2

    def test_tick_0_unbounded(self):
        lo, hi = tick_width_in_price(TickGrid(), 0)
        assert hi is None
        assert lo == F(89)

    def test_widths_strictly_decreasing_to_45(self):
        grid = TickGrid()
        widths = []
        for k in range(46):
            lo, hi = tick_width_in_price(grid, k)
            widths.append(None if hi is None else hi.raw - lo.raw)
        assert widths[0] is None  # unbounded is widest
        finite = widths[1:]
        assert all(a > b for a, b in zip(finite, finite[1:]))


def integrate_swap_oracle(positions, start_deg: float, delta_in: float,
                          step_deg: float = 1e-4):
    """Float integration of the marginal flow with piecewise liquidity.

    dx = l*s(phi) sin(phi) dphi and dy = l*s(phi) cos(phi) dphi along the
    arc; independent of the engine's segment closed forms.
    """
    l = 2 + math.sqrt(2)

    def liquidity(phi):
        total = 0.0
        for lo, hi, liq in positions:
            if lo <= phi < hi:
                total += liq
        return total

    phi = start_deg
    consumed = 0.0
    out = 0.0
    step_rad = math.radians(step_deg)
    while consumed < delta_in:
        s = liquidity(phi + step_deg / 2)
        if s <= 0:
            raise AssertionError("oracle ran out of liquidity")
        mid = math.radians(phi + step_deg / 2)
        dx = l * s * math.sin(mid) * step_rad
        dy = l * s * math.cos(mid) * step_rad
        if consumed + dx >= delta_in:
            frac = (delta_in - consumed) / dx
            out += dy * frac
            consumed = delta_in
        else:
            consumed += dx
            out += dy
        phi += step_deg
        if phi >= 90:
            raise AssertionError("oracle hit the arc end")
    return out


class TestSwapAcrossTicks:
    def test_uniform_matches_single_segment_swap(self):
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("lp1", F(0), F(90), F(5)))
        x, y = reserves_at_angle(CIRCLE, F(45), F(5))
        state = PoolState(reserves=(x, y), liquidity_scale=F(5), angle_deg=F(45))
        result = swap_across_ticks(CIRCLE, ledger, state, 0, ONE)
        direct = pair_swap(CIRCLE, state, 0, ONE)
        assert len(result.segments) == 1
        assert abs(result.quote.amount_out.raw - direct.amount_out.raw) <= 10 ** 6

    def test_fig3_trace_shows_one_drop_at_55(self):
        ledger = make_fig3_ledger()
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        # capacity of [45, 55] at liquidity 8 is ~3.65; trade past it
        result = swap_across_ticks(CIRCLE, ledger, state, 0, F(5))
        assert len(result.segments) == 2
        assert result.segments[0].liquidity == F(8)
        assert result.segments[1].liquidity == F(5)
        assert result.segments[0].angle_to_deg == F(55)
        assert result.final_angle_deg > F(55)

    def test_fig3_matches_integration_oracle(self):
        ledger = make_fig3_ledger()
        positions = [(0.0, 90.0, 5.0), (40.0, 55.0, 3.0)]
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        for delta in ["0.5", "2", "5", "8"]:
            result = swap_across_ticks(CIRCLE, ledger, state, 0, F(delta))
            want = integrate_swap_oracle(positions, 45.0, float(delta))
            got = result.quote.amount_out.raw / WAD
            assert abs(got - want) < 1e-6, f"delta {delta}: {got} vs {want}"

    def test_segment_conservation_exact(self):
        ledger = make_fig3_ledger()
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        result = swap_across_ticks(CIRCLE, ledger, state, 0, F(6))
        total_in = ZERO
        total_out = ZERO
        for seg in result.segments:
            total_in = total_in + seg.delta_in
            total_out = total_out + seg.delta_out
        assert total_in == result.quote.amount_in
        assert total_out == result.quote.amount_out

    def test_reversibility_across_crossings(self):
        ledger = make_fig3_ledger()
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        fwd = swap_across_ticks(CIRCLE, ledger, state, 0, F(5))
        mid = commit_tick_swap(state, fwd)
        back = swap_across_ticks(CIRCLE, ledger, mid, 1, fwd.quote.amount_out)
        final = commit_tick_swap(mid, back)
        assert abs(final.angle_deg.raw - 45 * WAD) <= 10 ** 9
        assert abs(final.reserves[0].raw - x.raw) <= 10 ** 9
        assert abs(final.reserves[1].raw - y.raw) <= 10 ** 9

    def test_runs_out_of_liquidity_reports_partial_fill(self):
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("lp", F(40), F(50), F(5)))
        x, y = reserves_at_angle(CIRCLE, F(45), F(5))
        state = PoolState(reserves=(x, y), liquidity_scale=F(5), angle_deg=F(45))
        with pytest.raises(InsufficientLiquidityError) as info:
            swap_across_ticks(CIRCLE, ledger, state, 0, F(50))
        err = info.value
        assert err.filled_in is not None and err.filled_in > ZERO
        assert err.boundary_angle_deg == F(50)

    def test_price_continuous_across_crossing(self):
        ledger = make_fig3_ledger()
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        # fill exactly to the 55-degree boundary, then a hair beyond
        capacity = fp_mul(fp_mul(CIRCLE.l, F(8)),
                          fp_sub(F("0.707106781186547524"), F("0.573576436351046096")))
        before = swap_across_ticks(CIRCLE, ledger, state, 0, capacity)
        just_after = swap_across_ticks(
            CIRCLE, ledger, state, 0, capacity + F("0.0001"))
        p1 = before.quote.price_after.raw / WAD
        p2 = just_after.quote.price_after.raw / WAD
        assert abs(p1 - p2) < 1e-3

    def test_n3_uniform_pairwise(self):
        params = CurveParams(n=3)
        scale = solve_ccmm_scale(params, (ONE, ONE, ONE))
        state = PoolState(reserves=(ONE, ONE, ONE), liquidity_scale=scale)
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("base", F(0), F(90), scale))
        result = swap_across_ticks(params, ledger, state, 0, F("0.3"), token_out=1)
        # matches the closed-form pairwise swap
        direct = pair_swap(params, state, 0, F("0.3"), 1)
        assert abs(result.quote.amount_out.raw - direct.amount_out.raw) <= 10 ** 9


def mirror_ledger(ledger: TickLedger) -> TickLedger:
    """The ledger seen from token 1: [lo, hi) becomes [90 - hi, 90 - lo)."""
    return TickLedger(grid=ledger.grid, positions=tuple(
        LpPosition(p.id, NINETY - p.upper_deg, NINETY - p.lower_deg, p.liquidity, p.side)
        for p in ledger.positions
    ))


def parked_state(ledger: TickLedger, angle: FixedDecimal) -> PoolState:
    """A two-token state with its angle cached (possibly a hair past an end)."""
    probe = min(max(angle, ZERO), NINETY)
    scale = active_liquidity(ledger, probe)
    if scale <= ZERO:
        scale = ONE
    x, y = reserves_at_angle(CIRCLE, probe, scale)
    return PoolState(reserves=(x, y), liquidity_scale=scale, angle_deg=angle)


def tick_outcome(ledger, state, token_in, delta):
    try:
        return swap_across_ticks(CIRCLE, ledger, state, token_in, delta)
    except EngineError as err:
        return err


def mirrored_angle(angle):
    return None if angle is None else NINETY - angle


class TestMirrorSymmetry:
    """Selling token 1 is selling token 0 in the mirror angle 90 - phi."""

    @given(
        st.lists(st.tuples(st.integers(0, 179), st.integers(1, 180),
                           st.integers(1, 10 ** 19)), max_size=12),
        st.booleans(),
        st.one_of(
            st.integers(0, 90 * WAD),
            st.integers(0, 180).map(lambda k: k * WAD // 2),
            st.integers(-2000, 2000),
            st.integers(-2000, 2000).map(lambda q: 90 * WAD + q),
        ),
        st.integers(1, 10 ** 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_token1_sell_is_mirrored_token0_sell(self, spans, base, angle_raw, delta_raw):
        ledger = TickLedger(grid=TickGrid(spacing_deg=F("0.5")))
        if base:
            ledger = add_position(ledger, LpPosition("base", F(0), F(90), ONE))
        half = WAD // 2
        for k, (lo, span, liq_raw) in enumerate(spans):
            hi = min(180, lo + span)
            ledger = add_position(ledger, LpPosition(
                f"h{k}", F.from_raw(lo * half), F.from_raw(hi * half), F.from_raw(liq_raw)))
        angle = F.from_raw(angle_raw)
        state = parked_state(ledger, angle)
        mirror = mirror_ledger(ledger)
        mstate = PoolState(reserves=state.reserves[::-1],
                           liquidity_scale=state.liquidity_scale,
                           angle_deg=NINETY - angle)
        delta = F.from_raw(delta_raw)

        sell1 = tick_outcome(ledger, state, 1, delta)
        sell0 = tick_outcome(mirror, mstate, 0, delta)
        if isinstance(sell1, EngineError):
            assert type(sell0) is type(sell1) and str(sell0) == str(sell1)
            for attr in ("filled_in", "filled_out"):
                assert getattr(sell0, attr, None) == getattr(sell1, attr, None)
            assert getattr(sell1, "boundary_angle_deg", None) == mirrored_angle(
                getattr(sell0, "boundary_angle_deg", None))
            return
        assert not isinstance(sell0, EngineError), sell0
        q1, q0 = sell1.quote, sell0.quote
        assert (q1.amount_in, q1.amount_out, q1.price_before, q1.price_after) == (
            q0.amount_in, q0.amount_out, q0.price_before, q0.price_after)
        assert q1.new_reserves == q0.new_reserves[::-1]
        assert sell1.final_angle_deg == NINETY - sell0.final_angle_deg
        assert sell1.final_liquidity == sell0.final_liquidity
        assert [(s.index, s.angle_from_deg, s.angle_to_deg, s.liquidity, s.delta_in,
                 s.delta_out) for s in sell1.segments] == [
            (s.index, NINETY - s.angle_from_deg, NINETY - s.angle_to_deg, s.liquidity,
             s.delta_in, s.delta_out) for s in sell0.segments]

    @pytest.mark.parametrize("token_in, angle, end", [
        (0, F(90), F(90)),
        (1, ZERO, ZERO),
        (0, F.from_raw(90 * WAD + 1203), F(90)),
        (1, F.from_raw(-1203), ZERO),
    ])
    def test_parked_at_arc_end(self, token_in, angle, end):
        ledger = make_fig3_ledger()
        state = parked_state(ledger, angle)
        with pytest.raises(InsufficientLiquidityError) as info:
            swap_across_ticks(CIRCLE, ledger, state, token_in, F("0.5"))
        err = info.value
        assert str(err) == "ran out of liquidity at the arc end"
        assert err.filled_in == ZERO and err.filled_out == ZERO
        assert err.boundary_angle_deg == end


class TestCarriedPairKernel:
    """The walk carries R (cos, sin): one atan2 per trade, boundary pairs cached."""

    @staticmethod
    def uniform_trade(scale_raw, angle_raw, token_in, share_raw):
        """A full-range ledger, a state at the angle, a share of the room left."""
        scale = F.from_raw(scale_raw)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        angle = F.from_raw(angle_raw)
        x, y = reserves_at_angle(CIRCLE, angle, scale)
        state = PoolState(reserves=(x, y), liquidity_scale=scale, angle_deg=angle)
        room = fp_sub(fp_mul(CIRCLE.l, scale), state.reserves[token_in])
        return ledger, state, fp_mul(room, F.from_raw(share_raw))

    @given(
        st.integers(10 ** 16, 10 ** 19),
        st.integers(10 ** 15, 90 * WAD - 10 ** 15),
        st.sampled_from([0, 1]),
        st.integers(1, 99 * 10 ** 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_segment_matches_references(self, scale_raw, angle_raw, token_in,
                                            share_raw):
        # scales 0.01 to 10, trades up to 99 % of the room left: all three
        # routes take the same correctly rounded pair-circle step
        ledger, state, delta = self.uniform_trade(scale_raw, angle_raw, token_in,
                                                  share_raw)
        assume(delta > ZERO)
        result = swap_across_ticks(CIRCLE, ledger, state, token_in, delta)
        assert len(result.segments) == 1
        for ref in (route_swap(CIRCLE, ledger, state, "polar", token_in, 1 - token_in,
                               delta)[0],
                    pair_swap(CIRCLE, state, token_in, delta)):
            assert result.quote.amount_out == ref.amount_out
            assert result.quote.new_reserves == ref.new_reserves

    @given(
        st.integers(10 ** 16, 10 ** 20),
        st.integers(10 ** 15, 90 * WAD - 10 ** 15),
        st.sampled_from([0, 1]),
        st.integers(1, 99 * 10 ** 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_segment_is_the_exact_circle_move(self, scale_raw, angle_raw, token_in,
                                                  share_raw):
        # the in-reserve moves by the trade exactly and the out-reserve lands
        # within half a quantum of the circle through the new in-reserve
        ledger, state, delta = self.uniform_trade(scale_raw, angle_raw, token_in,
                                                  share_raw)
        assume(delta > ZERO)
        quote = swap_across_ticks(CIRCLE, ledger, state, token_in, delta).quote
        i, j = token_in, 1 - token_in
        assert quote.new_reserves[i] == state.reserves[i] + delta
        assert quote.new_reserves[j] == state.reserves[j] - quote.amount_out
        with mpmath.workdps(60):
            offset = mpmath.mpf(fp_mul(CIRCLE.l, state.liquidity_scale).raw) / WAD
            moved = mpmath.mpf(quote.new_reserves[i].raw) / WAD
            partner = offset - mpmath.sqrt(offset ** 2 - (moved - offset) ** 2)
            err = abs(mpmath.mpf(quote.new_reserves[j].raw) / WAD - partner) * WAD
        assert err <= 0.5

    @staticmethod
    def assert_angle_of_point(params, result, i, j):
        # the reported end angle against the 60-digit angle of the committed
        # point, in walk orientation (token i on the cosine axis). The walk
        # never reports an angle below its start: a trade too small to outrun
        # the rounding of the start point can leave the point a hair behind it
        mirrored = params.n == 2 and i == 1

        def walk(angle):
            return (NINETY - angle if mirrored else angle).raw

        offset = fp_mul(params.l, result.final_liquidity)
        x = fp_sub(offset, result.quote.new_reserves[i])
        y = fp_sub(offset, result.quote.new_reserves[j])
        with mpmath.workdps(60):
            exact = mpmath.degrees(mpmath.atan2(y.raw, x.raw)) * WAD
            want = max(exact, walk(result.segments[0].angle_from_deg))
            assert abs(walk(result.final_angle_deg) - want) <= 50

    @given(
        st.integers(10 ** 16, 10 ** 20),
        st.one_of(
            st.integers(10 ** 12, 90 * WAD - 10 ** 12),
            st.integers(10 ** 12, 10 ** 16),
            st.integers(90 * WAD - 10 ** 16, 90 * WAD - 10 ** 12),
        ),
        st.sampled_from([0, 1]),
        st.integers(1, 99 * 10 ** 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_segment_end_angle_is_the_point_angle(self, scale_raw, angle_raw,
                                                     token_in, share_raw):
        # starts from 1e-6 degrees off either arc end, in both orientations
        ledger, state, delta = self.uniform_trade(scale_raw, angle_raw, token_in,
                                                  share_raw)
        assume(delta > ZERO)
        result = swap_across_ticks(CIRCLE, ledger, state, token_in, delta)
        self.assert_angle_of_point(CIRCLE, result, token_in, 1 - token_in)

    @given(
        st.lists(st.integers(10 ** 17, 3 * WAD), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
        st.integers(1, 99 * 10 ** 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_n3_end_angle_is_the_point_angle(self, reserve_raws, order, share_raw):
        params = CurveParams(n=3)
        reserves = tuple(F.from_raw(raw) for raw in reserve_raws)
        try:
            scale = solve_ccmm_scale(params, reserves)
        except EngineError:
            assume(False)
        state = PoolState(reserves=reserves, liquidity_scale=scale)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        i, j = order[0], order[1]
        room = fp_sub(fp_mul(params.l, scale), reserves[i])
        delta = fp_mul(room, F.from_raw(share_raw))
        assume(delta > ZERO)
        result = swap_across_ticks(params, ledger, state, i, delta, token_out=j)
        assert len(result.segments) == 1
        self.assert_angle_of_point(params, result, i, j)

    @given(
        st.lists(st.tuples(st.integers(0, 179), st.integers(1, 180),
                           st.integers(10 ** 12, 10 ** 19)), min_size=1, max_size=12),
        st.integers(1, 10 ** 6 - 1),
        st.sampled_from([0, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_fill_lands_on_the_boundary(self, spans, where, token_in):
        # liquidities of 1e-6 or more give every half-degree segment a
        # capacity of many quanta, so a fill of the whole run ends at its top;
        # the start lies strictly inside the first range, so liquidity is live
        # both ways and the start price is defined
        ledger = TickLedger(grid=TickGrid(spacing_deg=F("0.5")))
        half = WAD // 2
        bounds = []
        for k, (lo, span, liq_raw) in enumerate(spans):
            hi = min(180, lo + span)
            bounds.append((lo * half, hi * half))
            ledger = add_position(ledger, LpPosition(
                f"h{k}", F.from_raw(lo * half), F.from_raw(hi * half), F.from_raw(liq_raw)))
        lo_raw, hi_raw = bounds[0]
        state = parked_state(ledger, F.from_raw(lo_raw + (hi_raw - lo_raw) * where // 10 ** 6))
        with pytest.raises(InsufficientLiquidityError) as info:
            swap_across_ticks(CIRCLE, ledger, state, token_in, F(10 ** 9))
        err = info.value
        assert err.filled_in > ZERO
        fill = swap_across_ticks(CIRCLE, ledger, state, token_in, err.filled_in)
        assert fill.final_angle_deg == err.boundary_angle_deg
        assert fill.quote.amount_in == err.filled_in
        assert fill.quote.amount_out == err.filled_out
        after = commit_tick_swap(state, fill)
        assert after.angle_deg == err.boundary_angle_deg
        with pytest.raises(InsufficientLiquidityError) as again:
            swap_across_ticks(CIRCLE, ledger, after, token_in, F("0.001"))
        assert again.value.filled_in == ZERO and again.value.filled_out == ZERO
        assert again.value.boundary_angle_deg == err.boundary_angle_deg

    @pytest.fixture
    def calls(self, monkeypatch):
        # the boundary table is process-wide: start it empty so that first
        # crossings count their real evaluations
        polarpool.polar.boundary_cos_sin.cache_clear()
        counts = {"fp_sin_cos": 0, "fp_atan2": 0}
        for name in counts:
            fn = getattr(polarpool.polar, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(polarpool.polar, name, counted)
        return counts

    def test_one_segment_trade_takes_one_atan2(self, calls):
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, F(5)))
        x, y = reserves_at_angle(CIRCLE, F(45), F(5))
        state = PoolState(reserves=(x, y), liquidity_scale=F(5), angle_deg=F(45))
        for token_in in (0, 1):
            calls.update(fp_sin_cos=0, fp_atan2=0)
            swap_across_ticks(CIRCLE, ledger, state, token_in, ONE)
            assert calls == {"fp_sin_cos": 0, "fp_atan2": 1}

    def test_boundary_pairs_computed_once_per_ledger(self, calls):
        # five unit ranges above 45 degrees on a full-range base: a trade
        # from 45 crosses 46, ..., 50 and ends below the arc end at 90
        def build():
            ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, F(5)))
            for k in range(5):
                ledger = add_position(ledger, LpPosition(
                    f"r{k}", F(45 + k), F(46 + k), F(k + 1)))
            return ledger

        ledger = build()
        x, y = reserves_at_angle(CIRCLE, F(45), F(6))
        state = PoolState(reserves=(x, y), liquidity_scale=F(6), angle_deg=F(45))
        # reserves_at_angle reads its point through the counted fp_sin_cos
        calls.update(fp_sin_cos=0, fp_atan2=0)
        result = swap_across_ticks(CIRCLE, ledger, state, 0, F(6))
        crossed = len(result.segments) - 1
        assert crossed == 5 and result.segments[-1].angle_from_deg == F(50)
        assert calls["fp_sin_cos"] <= crossed
        assert calls["fp_atan2"] == 1
        calls.update(fp_sin_cos=0, fp_atan2=0)
        again = swap_across_ticks(CIRCLE, ledger, state, 0, F(6))
        assert again == result
        assert calls == {"fp_sin_cos": 0, "fp_atan2": 1}
        # a fresh ledger with the same boundaries reads the same table
        calls.update(fp_sin_cos=0, fp_atan2=0)
        fresh = swap_across_ticks(CIRCLE, build(), state, 0, F(6))
        assert fresh == result
        assert calls == {"fp_sin_cos": 0, "fp_atan2": 1}


class TestSegmentCursor:
    """The walk searches the ledger index once and then steps segment by segment."""

    @staticmethod
    def ladder():
        """Twelve unit ranges on [45, 57] over a full-range base of 5."""
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, F(5)))
        for k in range(12):
            ledger = add_position(ledger, LpPosition(
                f"r{k}", F(45 + k), F(46 + k), F(k + 1)))
        return ledger

    @pytest.mark.parametrize("token_in, amount, segments", [
        (0, "0.01", 1), (0, "1", 4), (0, "5", 11), (0, "8", 13), (0, "20", None),
        (1, "1", 1), (1, "20", None),
    ])
    def test_one_index_search_per_walk(self, monkeypatch, token_in, amount, segments):
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect.bisect_right(*args)

        monkeypatch.setattr(polarpool.ticks, "bisect_right", counted)
        ledger = self.ladder()
        x, y = reserves_at_angle(CIRCLE, F(45), F(6))
        state = PoolState(reserves=(x, y), liquidity_scale=F(6), angle_deg=F(45))
        outcome = tick_outcome(ledger, state, token_in, F(amount))
        if segments is None:
            # 20 exceeds the room to the arc end, which stops the walk
            assert isinstance(outcome, InsufficientLiquidityError)
        else:
            assert len(outcome.segments) == segments
        assert len(calls) == 1

    @pytest.mark.parametrize("cached, walk_raw, token_in", [
        (F.from_raw(-1203), 5 * 10 ** 11, 0),
        (F.from_raw(90 * WAD + 1203), 90 * WAD - 5 * 10 ** 11, 1),
    ])
    def test_out_of_arc_cached_angle_opens_no_negative_segment(self, cached, walk_raw,
                                                               token_in):
        # a pool file written before exact boundary landing can cache an
        # angle a few quanta past an arc end while its reserves sit a hair
        # inside the arc; the trade is one segment on the first range
        ledger = add_position(TickLedger(grid=TickGrid(spacing_deg=F("0.5"))),
                              LpPosition("base", ZERO, NINETY, ONE))
        state = PoolState(reserves=reserves_at_angle(CIRCLE, F.from_raw(walk_raw)),
                          angle_deg=cached)
        result = swap_across_ticks(CIRCLE, ledger, state, token_in, F("0.1"))
        assert [s.delta_in for s in result.segments] == [F("0.1")]
        assert all(s.delta_out > ZERO for s in result.segments)
        uncached = swap_across_ticks(CIRCLE, ledger, replace(state, angle_deg=None),
                                     token_in, F("0.1"))
        assert result.quote == uncached.quote

    def test_end_rounded_onto_the_stop_moves_the_cursor(self):
        # a trade a quantum short of the boundary ends inside the segment,
        # but its rounded end angle clamps onto the boundary; the pool then
        # goes on from the circle above it, as after an exact fill
        ledger = add_position(TickLedger(grid=TickGrid(spacing_deg=F("0.5"))),
                              LpPosition("base", ZERO, NINETY, F(10)))
        ledger = add_position(ledger, LpPosition("step", F(45), F("45.5"), F(2)))
        start = F("44.9")
        state = PoolState(reserves=reserves_at_angle(CIRCLE, start, F(10)),
                          liquidity_scale=F(10), angle_deg=start)
        capacity = swap_across_ticks(CIRCLE, ledger, state, 0, F("0.5")).segments[0].delta_in
        short = swap_across_ticks(CIRCLE, ledger, state, 0, capacity - F.from_raw(1))
        assert len(short.segments) == 1
        assert short.final_angle_deg == F(45)
        assert short.final_liquidity == F(12)
