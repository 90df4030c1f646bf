"""Tick ledger vs brute force; tick swaps vs integration and the exact circle."""

import bisect
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polarpool.cli import main
from polarpool.errors import (
    DomainError,
    EngineError,
    InsufficientLiquidityError,
    NotFoundError,
    RangeError,
    ValidationError,
)
from polarpool.fixed import FixedDecimal, ONE, WAD, ZERO, _nearest_isqrt, fp_mul, fp_sub
from polarpool.invariant import CurveParams, PoolState, solve_ccmm_scale
from polarpool.polar import NINETY, reserves_at_angle
from polarpool.poolfile import PoolFile, save
from polarpool.swap import pair_swap
import polarpool.fixed
import polarpool.polar
import polarpool.ticks
from polarpool.ticks import (
    LpPosition,
    TickGrid,
    TickLedger,
    active_liquidity,
    add_position,
    commit_tick_swap,
    gen_trades,
    remove_position,
    replay,
    route_swap,
    swap_across_ticks,
    tick_width_in_price,
)
from reference import (brute_force_active, circle_step_within, integrate_swap_oracle,
                       three_way_angle)

F = FixedDecimal
CIRCLE = CurveParams(n=2)


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
        TickLedger(grid=grid, positions=(LpPosition("a", F("40.5"), F(41), ONE),))
        with pytest.raises(ValidationError, match="tick-aligned"):
            TickLedger(grid=grid, positions=(LpPosition("a", F("40.25"), F(41), ONE),))


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
        with pytest.raises(ValidationError):
            TickLedger(positions=(LpPosition("a", F(10), F(12), ONE),
                                  LpPosition("s", F(10), F(12), F(2), side="short")))

    def test_removing_cover_of_short_rejected(self):
        ledger = TickLedger(positions=(LpPosition("a", F(10), F(12), ONE),
                                       LpPosition("s", F(10), F(11), ONE, side="short")))
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


class TestIndexSums:
    @pytest.mark.parametrize("bands", [((0, 10), (0, 20)), ((0, 20), (10, 30))],
                             ids=["boundary-delta", "prefix-total"])
    def test_sum_past_range_raises_on_first_use(self, bands):
        ledger = TickLedger(positions=tuple(
            LpPosition(f"p{k}", F(lo), F(hi), F("60000000000000000000"))
            for k, (lo, hi) in enumerate(bands)))
        with pytest.raises(RangeError):
            ledger.index
        with pytest.raises(RangeError):
            active_liquidity(ledger, F(15))

    def test_boundary_delta_past_range_raises_before_coverage_check(self):
        # at 10 the short's upper and the long's lower add up past 1e20, while
        # every prefix total stays in range
        big = F("60000000000000000000")
        with pytest.raises(RangeError):
            TickLedger(positions=(LpPosition("s", F(0), F(10), big, side="short"),
                                  LpPosition("l", F(10), F(20), big)))

    @given(st.lists(st.tuples(st.integers(0, 89), st.integers(1, 90), st.integers(1, 10 ** 21),
                              st.integers(0, 89), st.integers(1, 90), st.integers(0, 10 ** 21)),
                    max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_segments_match_brute_force(self, pairs):
        """Long and short positions: every boundary whose net delta is not 0,
        and the liquidity above it, as the brute-force sum over positions
        finds them. Each short sits inside its own long, with no more
        liquidity, so the longs cover the shorts."""
        positions = []
        for k, (lo, span, liq, short_lo, short_span, short_liq) in enumerate(pairs):
            hi = min(90, lo + span)
            if hi <= lo:
                continue
            positions.append(LpPosition(f"l{k}", F(lo), F(hi), F.from_raw(liq)))
            short_lo = lo + short_lo % (hi - lo)
            short_hi = min(hi, short_lo + short_span)
            if 0 < short_liq <= liq:
                positions.append(LpPosition(f"s{k}", F(short_lo), F(short_hi),
                                            F.from_raw(short_liq), side="short"))
        ledger = TickLedger(positions=tuple(positions))
        bounds = sorted({raw for p in positions for raw in (p.lower_deg.raw, p.upper_deg.raw)})
        below = [brute_force_active(ledger, F.from_raw(raw - 1)).raw if raw else 0
                 for raw in bounds]
        above = [brute_force_active(ledger, F.from_raw(raw)).raw for raw in bounds]
        live = [(raw, total) for raw, b, total in zip(bounds, below, above) if b != total]
        assert list(zip(ledger.index.raws, ledger.index.totals)) == live


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
        assert abs(back.final_angle_deg.raw - 45 * WAD) <= 10 ** 9
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


def wide_ladder(count: int = 200) -> TickLedger:
    """A full-range base of 1 and ``count`` seeded ranges 1 to 20 degrees
    wide, centred evenly over [5, 85] on a 0.5-degree grid."""
    rng = random.Random(26)
    positions = [LpPosition("base", ZERO, NINETY, ONE)]
    for k in range(count):
        steps = rng.randint(2, 40)
        lower = min(max(round(10 + 160 * (k + 0.5) / count) - steps // 2, 1), 179 - steps)
        positions.append(LpPosition(f"r{k:03d}", F.from_fraction(lower, 2),
                                    F.from_fraction(lower + steps, 2),
                                    F.from_fraction(rng.randint(2, 30), 100)))
    return TickLedger(grid=TickGrid(spacing_deg=F("0.5")), positions=tuple(positions))


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


def quote_outcome(params, ledger, state, route, token_in, token_out, delta):
    """The quote of a trade on ``route``, or its error's class and message."""
    try:
        return route_swap(params, ledger, state, route, token_in, token_out, delta)[0]
    except EngineError as err:
        return type(err), str(err)


def fills(outcome):
    """What a trade pays, segment by segment, or its error: everything but
    the angles it reports."""
    if isinstance(outcome, EngineError):
        return (type(outcome), outcome.args, getattr(outcome, "filled_in", None),
                getattr(outcome, "filled_out", None))
    return outcome.quote, [(s.liquidity, s.delta_in, s.delta_out) for s in outcome.segments]


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
    """The walk carries R (cos, sin): no atan2 in a trade, boundary pairs cached."""

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
        offset = fp_mul(CIRCLE.l, state.liquidity_scale).raw
        assert circle_step_within(offset, offset ** 2, quote.new_reserves[i].raw,
                                  quote.new_reserves[j].raw)

    @staticmethod
    def assert_angle_of_point(params, result, i, j):
        # the reported end angle is the 60-digit angle of the committed
        # point, in walk orientation (token i on the cosine axis), correctly
        # rounded and clamped into the open segment; on a full-range ledger
        # that is (0, 90). A trade too small to outrun the rounding of the
        # start point can leave the point a hair behind the start
        mirrored = params.n == 2 and i == 1

        def walk(angle):
            return (NINETY - angle if mirrored else angle).raw

        offset = fp_mul(params.l, result.final_liquidity)
        x = fp_sub(offset, result.quote.new_reserves[i])
        y = fp_sub(offset, result.quote.new_reserves[j])
        with mpmath.workdps(60):
            exact = mpmath.degrees(mpmath.atan2(y.raw, x.raw)) * WAD
            want = min(max(exact, 1), NINETY.raw - 1)
            assert abs(walk(result.final_angle_deg) - want) <= 0.5 + 1e-6

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
        st.lists(st.integers(10 ** 17, 3 * WAD), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
        st.integers(1, 99 * 10 ** 16),
        st.integers(1, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_n3_routes_step_alike_on_the_circle_through_the_point(self, reserve_raws, order,
                                                                  share_raw, quanta):
        # the tick and cartesian routes take one step on the pair circle
        # through the start point, so they quote alike, errors included, and
        # a sell of a few quanta never pays a negative amount
        params = CurveParams(n=3)
        reserves = tuple(F.from_raw(raw) for raw in reserve_raws)
        try:
            scale = solve_ccmm_scale(params, reserves)
        except EngineError:
            assume(False)
        state = PoolState(reserves=reserves, liquidity_scale=scale)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        i, j = order[0], order[1]
        offset = fp_mul(params.l, scale).raw
        radius_sq = (offset - reserves[i].raw) ** 2 + (offset - reserves[j].raw) ** 2
        room = fp_sub(fp_mul(params.l, scale), reserves[i])
        for delta in (fp_mul(room, F.from_raw(share_raw)), F.from_raw(quanta)):
            ticks, cartesian = (quote_outcome(params, ledger, state, route, i, j, delta)
                                for route in ("ticks", "cartesian"))
            assert ticks == cartesian
            if isinstance(cartesian, tuple):
                continue
            if delta == F.from_raw(quanta):
                assert cartesian.amount_out >= ZERO
            assert circle_step_within(offset, radius_sq, cartesian.new_reserves[i].raw,
                                      cartesian.new_reserves[j].raw)

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

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(polarpool.polar, name, counted)
        return counts

    def test_one_segment_trade_takes_no_atan2(self, calls):
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, F(5)))
        x, y = reserves_at_angle(CIRCLE, F(45), F(5))
        state = PoolState(reserves=(x, y), liquidity_scale=F(5), angle_deg=F(45))
        for token_in in (0, 1):
            calls.update(fp_sin_cos=0, fp_atan2=0)
            result = swap_across_ticks(CIRCLE, ledger, state, token_in, ONE)
            assert calls == {"fp_sin_cos": 0, "fp_atan2": 0}
            # the end angle is formed when read, once
            result.final_angle_deg
            result.final_angle_deg
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
        assert calls["fp_atan2"] == 0
        calls.update(fp_sin_cos=0, fp_atan2=0)
        again = swap_across_ticks(CIRCLE, ledger, state, 0, F(6))
        assert again == result
        assert calls == {"fp_sin_cos": 0, "fp_atan2": 0}
        # a fresh ledger with the same boundaries reads the same table
        calls.update(fp_sin_cos=0, fp_atan2=0)
        fresh = swap_across_ticks(CIRCLE, build(), state, 0, F(6))
        assert fresh == result
        assert calls == {"fp_sin_cos": 0, "fp_atan2": 0}


    def test_cold_replay_reads_few_boundaries(self, calls):
        # a search from a point bisects the boundaries, reading the cosine of
        # each one it probes, and an angle above 45 reads the entry of its
        # mirror: a 12-trade replay on a fresh ladder fills under half as
        # many table entries as the ledger has boundaries
        ledger = wide_ladder()
        state = parked_state(ledger, F(45))
        amounts = ["0.2", "0.6", "0.15", "1", "0.35", "0.1", "0.75", "0.45", "0.125", "1.5",
                   "0.3", "0.55"]
        trades = [(k + 1, k % 2, 1 - k % 2, F(a)) for k, a in enumerate(amounts)]
        rows, _, _, halted = replay(CIRCLE, ledger, state, trades)
        assert halted is None and len(rows) == 12
        filled = polarpool.polar.boundary_cos_sin.cache_info().currsize
        assert filled < len(ledger.index.raws) / 2
        # each evaluation fills an entry of at most 45 degrees
        assert calls["fp_sin_cos"] < filled

    @pytest.mark.parametrize("n", [2, 3])
    def test_replay_forms_no_angle(self, monkeypatch, n):
        # every atan2 runs fixed._angle
        params = CurveParams(n=n)
        reserves = (ONE,) * n
        scale = solve_ccmm_scale(params, reserves)
        angle = F(45) if n == 2 else None
        state = PoolState(reserves=reserves, liquidity_scale=scale, angle_deg=angle)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        trades = gen_trades(params, ledger, state, 20, seed=5)
        assert len(trades) == 20
        calls = []
        angle_kernel = polarpool.fixed._angle
        monkeypatch.setattr(polarpool.fixed, "_angle",
                            lambda *args: calls.append(args) or angle_kernel(*args))
        rows, final, _, halted = replay(params, ledger, state, trades)
        assert halted is None and len(rows) == 20
        assert final.angle_deg is None
        assert calls == []

    def test_uncached_off_curve_state_refused(self):
        # a stored angle does not exempt a state from lying on its arc
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, ONE))
        for reserves, angle in itertools.product(((ONE, F("1.5")), (ONE, F("0.5"))),
                                                 (None, F(45))):
            state = PoolState(reserves=reserves, angle_deg=angle)
            for token_in in (0, 1):
                with pytest.raises(DomainError, match="off-curve point"):
                    swap_across_ticks(CIRCLE, ledger, state, token_in, F("0.1"))


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

    def test_end_a_quantum_short_of_the_stop_stays_below_it(self):
        # a trade a quantum short of the boundary ends inside the segment:
        # it stays on the lower circle and reports an angle below the stop,
        # while the exact fill lands on the stop with the upper circle's
        # liquidity
        ledger = add_position(TickLedger(grid=TickGrid(spacing_deg=F("0.5"))),
                              LpPosition("base", ZERO, NINETY, F(10)))
        ledger = add_position(ledger, LpPosition("step", F(45), F("45.5"), F(2)))
        start = F("44.9")
        state = PoolState(reserves=reserves_at_angle(CIRCLE, start, F(10)),
                          liquidity_scale=F(10), angle_deg=start)
        capacity = swap_across_ticks(CIRCLE, ledger, state, 0, F("0.5")).segments[0].delta_in
        short = swap_across_ticks(CIRCLE, ledger, state, 0, capacity - F.from_raw(1))
        assert len(short.segments) == 1
        assert short.final_liquidity == F(10)
        assert start < short.final_angle_deg < F(45)
        # token 1's test places that end past 45, so it commits its angle,
        # which keys the lower segment from both tokens
        committed = commit_tick_swap(state, short)
        assert committed.angle_deg == short.final_angle_deg
        for token_in in (0, 1):
            assert swap_across_ticks(CIRCLE, ledger, committed, token_in, F.from_raw(1)) \
                .segments[0].liquidity == F(10)
        exact = swap_across_ticks(CIRCLE, ledger, state, 0, capacity)
        assert len(exact.segments) == 1
        assert exact.final_liquidity == F(12)
        assert exact.final_angle_deg == F(45)
        assert commit_tick_swap(state, exact).angle_deg == F(45)

    # seeded ladders of half-degree ranges over a full-range base, a start
    # angle, the token sold and its share of the room left
    LADDER_WALKS = (
        st.lists(st.tuples(st.integers(0, 179), st.integers(1, 40),
                           st.integers(10 ** 15, 10 ** 19)), min_size=1, max_size=12),
        st.integers(1, 179 * 10 ** 6 - 1),
        st.sampled_from([0, 1]),
        st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 18)),
    )

    @staticmethod
    def seeded_ladder(spans, where):
        """The ledger and the parked start state of a ``LADDER_WALKS`` draw."""
        ledger = add_position(TickLedger(grid=TickGrid(spacing_deg=F("0.5"))),
                              LpPosition("base", ZERO, NINETY, ONE))
        half = WAD // 2
        for k, (lo, span, liq_raw) in enumerate(spans):
            hi = min(180, lo + span)
            ledger = add_position(ledger, LpPosition(
                f"h{k}", F.from_raw(lo * half), F.from_raw(hi * half), F.from_raw(liq_raw)))
        return ledger, parked_state(ledger, F.from_raw(where * half // 10 ** 6))

    @given(*LADDER_WALKS)
    # trades from a boundary that end a few quanta past it, where the
    # other token's test places the end on the boundary
    @example([(173, 2, 8357352752729052758)], 173 * 10 ** 6, 0, 25)
    @example([(6, 1, 4469524328577296407)], 6 * 10 ** 6, 1, 7)
    @settings(max_examples=200, deadline=None)
    def test_next_trade_starts_where_the_walk_ends(self, spans, where, token_in,
                                                   share_raw):
        # seeded ladders over a full-range base, walked from either token:
        # the next trade from the committed state starts in the walk's final
        # segment, from the reserves or from the angle a pool file would keep
        ledger, state = self.seeded_ladder(spans, where)
        room = fp_sub(fp_mul(CIRCLE.l, state.liquidity_scale), state.reserves[token_in])
        result = tick_outcome(ledger, state, token_in,
                              F.from_raw(max(1, room.raw * share_raw // WAD)))
        assume(not isinstance(result, EngineError))
        index = ledger.mirrored_index if token_in == 1 else ledger.index

        def walk(angle):
            return (NINETY - angle if token_in == 1 else angle).raw

        # an exact end angle keys its segment; a formed one lies strictly
        # inside. A walk that lands where liquidity ends stays on the circle
        # below
        cursor = bisect.bisect_right(index.raws, walk(result.final_angle_deg))
        live = index.totals[cursor - 1] if cursor else 0
        assert result.final_liquidity.raw == live or live == 0
        committed = commit_tick_swap(state, result)
        # a pool file keeps the final angle, which must key a reload as
        # memory keys the state: the three-way rule's angle
        assert result.final_angle_deg == three_way_angle(CIRCLE, ledger, committed, result)
        saved = replace(committed, angle_deg=result.final_angle_deg)
        for start in (committed, saved):
            after = tick_outcome(ledger, start, token_in, F.from_raw(1))
            if isinstance(after, EngineError):
                # the walk ended where liquidity ends
                assert after.filled_in == ZERO and live == 0
                continue
            first = after.segments[0]
            assert bisect.bisect_right(index.raws, walk(first.angle_from_deg)) == cursor
            assert first.liquidity == result.final_liquidity
        # a trade the other way reads the saved angle as memory reads the
        # point
        assert fills(tick_outcome(ledger, saved, 1 - token_in, F.from_raw(1))) == \
            fills(tick_outcome(ledger, committed, 1 - token_in, F.from_raw(1)))

    @given(*LADDER_WALKS[:3])
    @settings(max_examples=100, deadline=None)
    def test_landing_stands_on_the_table_point(self, spans, where, token_in):
        # the walk to the arc end crosses every boundary above the start; a
        # trade of its first m segments lands on the m-th stop b and commits
        # the table point (round(L cos b), round(L sin b)) of its final
        # circle, in walk orientation, bit for bit
        ledger, state = self.seeded_ladder(spans, where)
        with pytest.raises(InsufficientLiquidityError) as info:
            swap_across_ticks(CIRCLE, ledger, state, token_in, F(10 ** 9))
        assume(info.value.filled_in > ZERO)
        segments = swap_across_ticks(CIRCLE, ledger, state, token_in,
                                     info.value.filled_in).segments
        for m in range(1, len(segments) + 1):
            landed = swap_across_ticks(CIRCLE, ledger, state, token_in,
                                       sum((s.delta_in for s in segments[:m]), ZERO))
            assert landed.final_angle_deg == segments[m - 1].angle_to_deg
            b = NINETY - landed.final_angle_deg if token_in == 1 else landed.final_angle_deg
            cos_b, sin_b = polarpool.polar.boundary_cos_sin(b.raw)
            offset = fp_mul(CIRCLE.l, landed.final_liquidity).raw
            reserves = landed.quote.new_reserves
            assert (offset - reserves[token_in].raw, offset - reserves[1 - token_in].raw) == (
                round(Fraction(offset * cos_b.raw, WAD)), round(Fraction(offset * sin_b.raw, WAD)))

    def test_point_off_a_boundary_from_both_tokens_saves_no_angle(self, tmp_path, capsys):
        # a point just past 45 on both axes: each token's test places it on
        # the far side of 45, which no single angle does. A zero trade
        # commits nothing, so a zero swap keeps its pool file byte for byte,
        # as it does a point inside a segment, a cached angle and n = 3
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, F(1000)))
        ledger = add_position(ledger, LpPosition("core", F(45), F(46), F(1000)))
        radius = fp_mul(CIRCLE.l, F(1000)).raw
        cos_45 = polarpool.polar.boundary_cos_sin(45 * WAD)[0].raw
        v = radius * cos_45 // WAD + 1
        state = PoolState(reserves=(F.from_raw(radius - v),) * 2,
                          liquidity_scale=F(1000), angle_deg=None)
        assert commit_tick_swap(state, swap_across_ticks(CIRCLE, ledger, state, 0, ZERO)) == state
        n3 = CurveParams(n=3)
        scale = solve_ccmm_scale(n3, (ONE, F(2), F(3)))
        pools = [
            (PoolFile(CIRCLE, state, ledger), (0,)),
            (PoolFile(CIRCLE, replace(parked_state(ledger, F(30)), angle_deg=None), ledger),
             (0, 1)),
            (PoolFile(CIRCLE, parked_state(ledger, F("45.5")), ledger), (0, 1)),
            (PoolFile(n3, PoolState((ONE, F(2), F(3)), scale), add_position(
                TickLedger(), LpPosition("base", ZERO, NINETY, scale))), (0, 2)),
        ]
        for k, (pool, tokens) in enumerate(pools):
            path = tmp_path / f"pool{k}.json"
            save(path, pool)
            before = path.read_bytes()
            for token_in in tokens:
                assert main(["swap", "--pool", str(path), "--token-in", str(token_in),
                             "--token-out", str(1 - token_in % 2), "--amount", "0",
                             "--route", "ticks"]) == 0, capsys.readouterr().err
                assert path.read_bytes() == before
        # from memory token 0 starts below its side of 45, on the state's
        # circle; token 1 keys the circle above 45, and the point stands on
        # 45 by neither test, so it may not move there
        assert swap_across_ticks(CIRCLE, ledger, state, 0, F.from_raw(1)) \
            .segments[0].liquidity == F(1000)
        with pytest.raises(ValidationError, match="liquidity_scale disagrees"):
            swap_across_ticks(CIRCLE, ledger, state, 1, F.from_raw(1))


class TestCircleChange:
    """A walk changes circle only on a boundary, onto that boundary's table point."""

    @pytest.mark.parametrize("angle", [F(30), None], ids=["cached", "point"])
    def test_in_segment_scale_off_the_ledger_refused(self, angle):
        # liquidity 5 holds 30 degrees; a state there at scale 8 stands on
        # no boundary, so neither token may trade it onto another circle
        ledger = make_fig3_ledger()
        state = PoolState(reserves=reserves_at_angle(CIRCLE, F(30), F(8)),
                          liquidity_scale=F(8), angle_deg=angle)
        for token_in in (0, 1):
            with pytest.raises(ValidationError, match="liquidity_scale disagrees with the ledger"):
                swap_across_ticks(CIRCLE, ledger, state, token_in, F("0.1"))

    def test_end_past_the_stop_by_the_other_test_keeps_its_angle(self):
        # trades that end a few quanta short of 67 on the circle below it:
        # where token 1's test places the end past 67, the walk commits the
        # end's angle, so both tokens trade on from the circle below 67
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, ONE))
        ledger = add_position(ledger, LpPosition("top", F(67), NINETY, ONE))
        state = parked_state(ledger, F("66.5"))
        offset = fp_mul(CIRCLE.l, ONE).raw
        cos_67, sin_67 = polarpool.polar.boundary_cos_sin(67 * WAD)
        to_stop = offset - state.reserves[0].raw - round(Fraction(offset * cos_67.raw, WAD))
        past = 0
        for short in range(1, 40):
            result = swap_across_ticks(CIRCLE, ledger, state, 0, F.from_raw(to_stop - short))
            after = commit_tick_swap(state, result)
            if (offset - after.reserves[1].raw) * WAD <= offset * sin_67.raw:
                assert after.angle_deg is None
                continue
            past += 1
            assert after.angle_deg == result.final_angle_deg < F(67)
            for token_in in (0, 1):
                assert swap_across_ticks(CIRCLE, ledger, after, token_in, F.from_raw(1)) \
                    .segments[0].liquidity == ONE
        assert past > 0

    def test_n3_scale_off_its_base_liquidity_refused(self):
        params = CurveParams(n=3)
        reserves = (ONE, ONE, ONE)
        scale = solve_ccmm_scale(params, reserves)
        state = PoolState(reserves=reserves, liquidity_scale=scale)
        for liquidity in (scale + F.from_raw(1), scale - F.from_raw(1)):
            ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, liquidity))
            with pytest.raises(ValidationError, match="liquidity_scale disagrees with the ledger"):
                route_swap(params, ledger, state, "ticks", 0, 1, F("0.1"))

    @pytest.mark.parametrize("stored", [True, False], ids=["stored-angle", "point"])
    def test_boundary_read_from_the_other_side_trades(self, stored):
        # the state stands on 40 at the scale above it, 8, by a stored angle
        # or by a point both tokens' tests place on 40. A token-1 sell keys
        # the segment below 40 and trades from 40's table point on the
        # circle of scale 5, as a state parked there does
        ledger = make_fig3_ledger()
        if stored:
            state = parked_state(ledger, F(40))
        else:
            offset = fp_mul(CIRCLE.l, F(8)).raw
            cos_40, sin_40 = polarpool.polar.boundary_cos_sin(40 * WAD)
            x, y = offset * cos_40.raw // WAD, offset * sin_40.raw // WAD
            state = PoolState(reserves=(F.from_raw(offset - x), F.from_raw(offset - y)),
                              liquidity_scale=F(8))
        assert state.liquidity_scale == F(8)
        below = PoolState(reserves=reserves_at_angle(CIRCLE, F(40), F(5)),
                          liquidity_scale=F(5), angle_deg=F(40))
        result = swap_across_ticks(CIRCLE, ledger, state, 1, F("0.5"))
        want = swap_across_ticks(CIRCLE, ledger, below, 1, F("0.5"))
        assert result.segments[0].liquidity == F(5)
        assert result.segments == want.segments
        assert result.quote.new_reserves == want.quote.new_reserves
        assert result.quote.amount_out == want.quote.amount_out
        # token 0 trades on from the state's own circle
        assert swap_across_ticks(CIRCLE, ledger, state, 0, F("0.1")).segments[0].liquidity == F(8)


class TestIntegerKernel:
    """Raw ints inside the walk: overflow only where a FixedDecimal wrap raised."""

    @staticmethod
    def crossing(liquidity):
        # a full-range base and as much again above 45 degrees, from the
        # point at 44 whose out-reserve is the exact circle's, the nearest
        # root of the exact radicand
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, liquidity))
        ledger = add_position(ledger, LpPosition("top", F(45), NINETY, liquidity))
        offset = fp_mul(CIRCLE.l, liquidity)
        x = fp_sub(offset, reserves_at_angle(CIRCLE, F(44), liquidity)[0])
        y = FixedDecimal.from_raw(_nearest_isqrt(offset.raw ** 2 - x.raw ** 2))
        state = PoolState(reserves=(offset - x, offset - y),
                          liquidity_scale=liquidity)
        room = fp_sub(fp_mul(CIRCLE.l, liquidity), state.reserves[0])
        return ledger, state, fp_mul(room, F("0.5"))

    @pytest.mark.parametrize("liquidity, overflows", [
        # the crossing at 45 puts the walk on the table point of the circle
        # above, whose centre offset l * 2 s leaves the range once s is
        # above 1e20 / (2 l), about 1.46e19
        ("2000000000", False),
        ("3000000000", False),
        ("15000000000000000000", True),
    ])
    def test_crossing_overflows_where_l_scale_does(self, liquidity, overflows):
        ledger, state, delta = self.crossing(F(liquidity))
        if overflows:
            # the circle below 45 is in range; the one above is not
            assert len(swap_across_ticks(CIRCLE, ledger, state, 0, ONE).segments) == 1
            with pytest.raises(RangeError, match="exceeds 1e20"):
                swap_across_ticks(CIRCLE, ledger, state, 0, delta)
            return
        result = swap_across_ticks(CIRCLE, ledger, state, 0, delta)
        below, above = result.segments
        assert (below.liquidity, above.liquidity) == (F(liquidity), F(liquidity) + F(liquidity))
        assert below.angle_to_deg == above.angle_from_deg == F(45)
        # the second segment starts from L' - round(L' cos 45) on the circle above
        offset = fp_mul(CIRCLE.l, above.liquidity).raw
        x_45 = round(Fraction(offset * polarpool.polar.boundary_cos_sin(45 * WAD)[0].raw, WAD))
        assert result.quote.new_reserves[0].raw == offset - x_45 + above.delta_in.raw

    @pytest.mark.parametrize("scale, overflows", [
        # price cot(phi) = x / y with y one quantum: above 1e20 once x is
        # above 100, that is l s above 100
        ("29", False),
        ("30", True),
    ])
    def test_price_overflows_as_its_wrap_did(self, scale, overflows):
        scale = F(scale)
        offset = fp_mul(CIRCLE.l, scale)
        # the point (x, y) = (offset, 1 quantum), a hair past the arc start
        state = PoolState(reserves=(ZERO, offset - F.from_raw(1)), liquidity_scale=scale,
                          angle_deg=ZERO)
        ledger = add_position(TickLedger(), LpPosition("base", ZERO, NINETY, scale))
        if overflows:
            with pytest.raises(RangeError, match="exceeds 1e20"):
                swap_across_ticks(CIRCLE, ledger, state, 0, F.from_raw(1))
        else:
            result = swap_across_ticks(CIRCLE, ledger, state, 0, F.from_raw(1))
            assert result.quote.price_before == F.from_raw(offset.raw * WAD)

    def test_segments_are_wrapped_when_read(self):
        ledger = make_fig3_ledger()
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        result = swap_across_ticks(CIRCLE, ledger, state, 0, F(5))
        assert "segments" not in vars(result)
        assert [s.liquidity for s in result.segments] == [F(8), F(5)]
        assert result.segments is result.segments
