"""Hedge construction, position marking, and the binary payoff shape."""

import random
import sys
from dataclasses import replace

import mpmath
import pytest

from polarpool.errors import RangeError, ValidationError
from polarpool.fixed import FixedDecimal, ONE, ZERO, fp_div
from polarpool.hedge import (
    HedgeSpec,
    PayoffCurve,
    build_hedge,
    hedge_legs,
    hedge_payoff,
    position_value,
)
from polarpool.invariant import CurveParams
from polarpool.polar import arbitrage_point, boundary_cos_sin
from polarpool.ticks import LpPosition, TickGrid, TickLedger, active_liquidity, add_position
from reference import LegMarkByWraps, hedge_payoff_by_wraps, to_mp

F = FixedDecimal
CIRCLE = CurveParams(n=2)


def price_grid(lo: str, hi: str, n: int):
    lo_raw, hi_raw = F(lo).raw, F(hi).raw
    return [F.from_raw(lo_raw + (hi_raw - lo_raw) * k // (n - 1)) for k in range(n)]


BAND = LpPosition("band", F(46), F(47), ONE)


class TestPositionValue:
    def test_above_band_in_angle_linear_in_price(self):
        # deep depeg: all x, value = price * x holding
        v1 = position_value(CIRCLE, BAND, F("0.2"))
        v2 = position_value(CIRCLE, BAND, F("0.4"))
        assert abs(2 * v1.raw - v2.raw) <= 10

    def test_below_band_in_angle_constant(self):
        v1 = position_value(CIRCLE, BAND, F(2))
        v2 = position_value(CIRCLE, BAND, F(5))
        assert v1 == v2

    def test_concave_inside(self):
        # concavity: mid-range values dominate the chord between the two
        # boundary values (brute force over 1000 prices)
        p_lo, p_hi = F("0.85"), F("1.05")
        v_lo = position_value(CIRCLE, BAND, p_lo)
        v_hi = position_value(CIRCLE, BAND, p_hi)
        span = p_hi.raw - p_lo.raw
        for k in range(1, 1000):
            p = F.from_raw(p_lo.raw + span * k // 1000)
            chord = v_lo.raw + (v_hi.raw - v_lo.raw) * k // 1000
            assert position_value(CIRCLE, BAND, p).raw >= chord - 100


class TestTrigFreeMarking:
    @pytest.fixture
    def calls(self, monkeypatch):
        # count the calls wherever an engine module binds the name
        counts = {"fp_atan2": 0, "fp_sin_cos": 0}
        modules = [m for name, m in sys.modules.items() if name.startswith("polarpool")]
        for module in modules:
            for name in counts:
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _name=name):
                    counts[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
        return counts

    def test_no_trig_per_price_sample(self, calls):
        spec = HedgeSpec(F("0.95"), width_deg=F(1))
        grid = price_grid("0.3", "1.8", 201)
        wide = LpPosition("wide", F(10), F(30), F(3))
        # the first marks put the band edges in the table
        hedge_payoff(CIRCLE, spec, grid[:1])
        position_value(CIRCLE, BAND, ONE)
        position_value(CIRCLE, wide, ONE)
        calls.update(fp_atan2=0, fp_sin_cos=0)
        hedge_payoff(CIRCLE, spec, grid)
        for price in grid:
            position_value(CIRCLE, BAND, price)
            position_value(CIRCLE, wide, price)
        assert calls == {"fp_atan2": 0, "fp_sin_cos": 0}


class TestBuildHedge:
    def test_strike_095_bands(self):
        # 90/1.95 = 46.1538... aligns to 46 on the 1-degree grid
        long_leg, short_leg = hedge_legs(CIRCLE, TickGrid(), HedgeSpec(F("0.95")))
        assert long_leg.lower_deg == F(46) and long_leg.upper_deg == F(47)
        assert short_leg.lower_deg == F(45) and short_leg.upper_deg == F(46)
        assert short_leg.side == "short"

    def test_strike_near_one_centers_at_45(self):
        long_leg, short_leg = hedge_legs(
            CIRCLE, TickGrid(), HedgeSpec(F("0.999999999999999999"))
        )
        assert long_leg.lower_deg == F(45)
        assert short_leg.lower_deg == F(44)

    def test_width_zero_rejected(self):
        with pytest.raises(ValidationError):
            HedgeSpec(F("0.95"), width_deg=ZERO)

    def test_bands_must_fit(self):
        # strike near 0 maps to ~89-90 degrees; a wide band falls off the end
        with pytest.raises(RangeError):
            hedge_legs(CIRCLE, TickGrid(), HedgeSpec(F("0.001"), width_deg=F(2)))

    def test_registers_both_legs(self):
        ledger = TickLedger()
        ledger = add_position(ledger, LpPosition("backstop", F(0), F(90), F(10)))
        long_leg, short_leg, ledger = build_hedge(CIRCLE, ledger, HedgeSpec(F("0.95")))
        assert ledger.position(long_leg.id) == long_leg
        inside = active_liquidity(ledger, F("45.5"))
        assert inside < F(10)  # short subtracts from the backstop

    def test_short_needs_long_coverage(self):
        with pytest.raises(ValidationError):
            build_hedge(CIRCLE, TickLedger(), HedgeSpec(F("0.95"), notional_liquidity=F(5)))


class TestHedgePayoff:
    def payoff(self, strike="0.95", width="1", lo="0.3", hi="1.8", n=2001):
        spec = HedgeSpec(F(strike), width_deg=F(width))
        curve = hedge_payoff(CIRCLE, spec, price_grid(lo, hi, n))
        return curve

    def test_plateaus_zero_and_one(self):
        curve = self.payoff()
        values = [to_mp(v) for _, v in curve.samples]
        deep = values[:200]       # prices well below the transition
        calm = values[-200:]      # prices well above
        assert all(abs(v - 1) < 1e-9 for v in deep)
        assert all(abs(v) < 1e-9 for v in calm)
        var_deep = sum((v - 1) ** 2 for v in deep) / len(deep)
        var_calm = sum(v ** 2 for v in calm) / len(calm)
        assert var_deep <= 1e-24 and var_calm <= 1e-24

    def test_monotone_non_increasing(self):
        curve = self.payoff()
        values = [v.raw for _, v in curve.samples]
        assert all(a >= b - 2 for a, b in zip(values, values[1:]))

    def test_transition_within_band_price_width(self):
        curve = self.payoff(n=10001)
        inside = [to_mp(p) for p, v in curve.samples if 1e-9 < to_mp(v) < 1 - 1e-9]
        transition_width = max(inside) - min(inside)
        # bands cover angles [45, 47]; their price interval is the
        # cotangent image, and the tick-label widths bound it from above
        label_width = (mpmath.mpf(90) / 45 - 1) - (mpmath.mpf(90) / 47 - 1)
        assert transition_width <= label_width

    def test_transition_narrows_with_width(self):
        widths = []
        for w, spacing in [("2", "2"), ("1", "1"), ("0.5", "0.5")]:
            spec = HedgeSpec(F("0.95"), width_deg=F(w))
            curve = hedge_payoff(
                CIRCLE, spec, price_grid("0.3", "1.8", 10001),
                grid=TickGrid(spacing_deg=F(spacing)),
            )
            inside = [to_mp(p) for p, v in curve.samples if 1e-9 < to_mp(v) < 1 - 1e-9]
            widths.append(max(inside) - min(inside))
        assert widths[0] > widths[1] > widths[2]

    def test_long_concave_short_convex_near_strike(self):
        # second differences: the long leg's band is concave, the short
        # leg's (higher-price) band convex, matching the spread geometry
        spec = HedgeSpec(F("0.95"))
        long_leg, short_leg = hedge_legs(CIRCLE, TickGrid(), spec)
        long_prices = price_grid("0.88", "0.95", 301)   # inside [46, 47] band
        short_prices = price_grid("0.97", "1.02", 301)  # inside [45, 46] band
        curve = hedge_payoff(CIRCLE, spec, price_grid("0.85", "1.05", 2001))
        vals = [to_mp(v) for _, v in curve.samples]
        prices = [to_mp(p) for p, _ in curve.samples]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
        for i in range(1, len(vals) - 1):
            p = prices[i]
            if 0.89 < p < 0.945:
                assert second[i - 1] <= 1e-12   # concave stretch (long band)
            if 0.975 < p < 0.995:
                assert second[i - 1] >= -1e-12  # convex stretch (short band)
        # and the isolated legs have the textbook shapes
        lv = [to_mp(position_value(CIRCLE, long_leg, p)) for p in long_prices]
        l2 = [lv[i - 1] - 2 * lv[i] + lv[i + 1] for i in range(1, len(lv) - 1)]
        assert all(d <= 1e-12 for d in l2)

    def test_curve_rejects_unsorted_grid(self):
        with pytest.raises(ValidationError):
            PayoffCurve(samples=((ONE, ZERO), (ONE, ZERO)))


class TestRawMarksMatchWraps:
    """The raw marks reproduce the wrap-by-wrap FixedDecimal marks bit for bit."""

    # tick spacings that divide each band width (and 90)
    SPACINGS = {"0.5": ("0.5", "0.25", "0.1"), "1": ("1", "0.5", "0.25"),
                "2": ("2", "1", "0.5")}

    @staticmethod
    def edge_price(raw_deg):
        cos_b, sin_b = boundary_cos_sin(raw_deg)
        return float(to_mp(cos_b) / to_mp(sin_b))

    def prices_across(self, long_leg, short_leg):
        """A coarse grid over [0.05, 4] and a dense one across both bands."""
        lo = self.edge_price(long_leg.upper_deg.raw) * 0.99
        hi = self.edge_price(short_leg.lower_deg.raw) * 1.01
        raws = {p.raw for p in price_grid("0.05", "4", 201)}
        raws |= {p.raw for p in price_grid(f"{lo:.12f}", f"{hi:.12f}", 201)}
        return [F.from_raw(raw) for raw in sorted(raws)]

    @staticmethod
    def places(leg, prices):
        """Where each price's arbitrage point lies: below, inside or above the band."""
        mark = LegMarkByWraps(CIRCLE, leg)
        out = set()
        for price in prices:
            cos_at, _ = arbitrage_point(price)
            out.add("below" if cos_at >= mark.cos_lo else
                    "above" if cos_at <= mark.cos_hi else "inside")
        return out

    def test_seeded_spreads_and_positions(self):
        rng = random.Random(20261019)
        for _ in range(48):
            width = rng.choice(sorted(self.SPACINGS))
            grid = TickGrid(spacing_deg=F(rng.choice(self.SPACINGS[width])))
            spec = HedgeSpec(F.from_raw(rng.randrange(3 * 10 ** 17 + 1, 99 * 10 ** 16)),
                             width_deg=F(width),
                             notional_liquidity=F.from_raw(int(10 ** rng.uniform(12, 21))))
            long_leg, short_leg = hedge_legs(CIRCLE, grid, spec)
            x_long, _ = LegMarkByWraps(CIRCLE, long_leg).full_amounts()
            x_unit, _ = LegMarkByWraps(CIRCLE, replace(short_leg, liquidity=ONE)).full_amounts()
            assert short_leg.liquidity == fp_div(x_long, x_unit)
            prices = self.prices_across(long_leg, short_leg)
            for leg in (long_leg, short_leg):
                assert self.places(leg, prices) == {"below", "inside", "above"}
            assert (hedge_payoff(CIRCLE, spec, prices, grid=grid).samples
                    == hedge_payoff_by_wraps(CIRCLE, long_leg, short_leg, prices))
            wide = LpPosition("wide", F(rng.randrange(0, 30)), F(rng.randrange(60, 91)),
                              spec.notional_liquidity)
            for leg in (long_leg, short_leg, wide):
                mark = LegMarkByWraps(CIRCLE, leg)
                for price in prices[::5]:
                    assert (position_value(CIRCLE, leg, price)
                            == mark.value(price, *arbitrage_point(price)))

    def test_overflow_edge(self):
        prices = price_grid("0.3", "3", 11)
        # the long leg's liquidity times l passes 1e20
        spec = HedgeSpec(F("0.95"), notional_liquidity=F("90000000000000000000"))
        with pytest.raises(RangeError):
            LegMarkByWraps(CIRCLE, LpPosition("long", F(46), F(47), spec.notional_liquidity))
        with pytest.raises(RangeError):
            hedge_payoff(CIRCLE, spec, prices)
        # the largest notional the marks by wraps take, and one quantum more
        lo, hi = F(1).raw, F("90000000000000000000").raw
        while hi - lo > 1:
            mid = (lo + hi) // 2
            spec = HedgeSpec(F("0.95"), notional_liquidity=F.from_raw(mid))
            try:
                hedge_payoff_by_wraps(CIRCLE, *hedge_legs(CIRCLE, TickGrid(), spec), prices)
                lo = mid
            except RangeError:
                hi = mid
        spec = HedgeSpec(F("0.95"), notional_liquidity=F.from_raw(lo))
        assert (hedge_payoff(CIRCLE, spec, prices).samples
                == hedge_payoff_by_wraps(CIRCLE, *hedge_legs(CIRCLE, TickGrid(), spec), prices))
        with pytest.raises(RangeError):
            hedge_payoff(CIRCLE, replace(spec, notional_liquidity=F.from_raw(hi)), prices)
