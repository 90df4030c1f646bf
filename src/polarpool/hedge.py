"""Synthetic binary depeg payoff from two adjacent LP range positions.

A depeg hedge is a vertical spread in tick space: a long band one tick
width wide starting at the strike angle, and a short band immediately
below it (lower angle, higher price). The short leg's liquidity is sized
so both legs hold the same amount of the risky token once the price has
fallen through them; the long-minus-short value is then exactly flat on
both sides of the transition, and normalizing the two plateau levels to
1 (deep depeg) and 0 (no depeg) yields the prediction-market-style
payoff.

Positions are marked at the arbitrage-consistent reserve mix: the arc
point whose marginal price cot phi equals the valuation price p, which is
the unit vector (cos, sin) = (p, 1) / sqrt(1 + p^2), clamped to the band.
The band edges' (cos, sin) come from the boundary table the tick kernel
reads, so marking a price evaluates no trigonometric function.

Marks run on raw integers at scale 10^18, with the roundings and range
checks a wrap of each intermediate would make. A band is its liquidity
times l, its edge points and its holdings at the clamped edges, which are
constants: all y below the band in angle, all x above it. A payoff forms
a ``FixedDecimal`` only for each output sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, RangeError, ValidationError
from .fixed import (
    MAX_RAW,
    WAD,
    FixedDecimal,
    ONE,
    ZERO,
    _div,
    _nearest_isqrt,
    _range_error,
    _round_div,
    fp_add,
    fp_mul,
    fp_sub,
)
from .invariant import CurveParams
from .polar import NINETY, arbitrage_point, boundary_cos_sin, price_to_angle
from .ticks import LpPosition, TickGrid, TickLedger


@dataclass(frozen=True)
class HedgeSpec:
    """Depeg threshold, band width in degrees, and the long leg's size."""

    strike_price: FixedDecimal
    width_deg: FixedDecimal = field(default_factory=lambda: ONE)
    notional_liquidity: FixedDecimal = field(default_factory=lambda: ONE)

    def __post_init__(self):
        if not (ZERO < self.strike_price < ONE):
            raise ValidationError("depeg strike must lie in (0, 1)")
        if self.width_deg <= ZERO:
            raise ValidationError("band width must be positive")
        if self.notional_liquidity <= ZERO:
            raise ValidationError("notional liquidity must be positive")


@dataclass(frozen=True)
class PayoffCurve:
    """Ordered (price, value) samples."""

    samples: tuple[tuple[FixedDecimal, FixedDecimal], ...]

    def __post_init__(self):
        prices = [p for p, _ in self.samples]
        if any(b <= a for a, b in zip(prices, prices[1:])):
            raise ValidationError("prices must be strictly increasing")


def position_value(params: CurveParams, position: LpPosition,
                   price: FixedDecimal) -> FixedDecimal:
    """Mark-to-price value of the claim a range position holds.

    Below the band in angle the position is entirely in y (constant
    value); above it entirely in x (value linear in price); inside it the
    on-curve mix at the arbitrage point. The mark is of the held claim:
    short legs enter spreads through subtraction, not through this sign.
    """
    if price <= ZERO:
        raise DomainError("price must be positive")
    cos_at, sin_at = arbitrage_point(price)
    return FixedDecimal.from_raw(
        _LegMark(params, position).value(price.raw, cos_at.raw, sin_at.raw))


def _aligned_strike_angle(grid, spec: HedgeSpec) -> FixedDecimal:
    angle = price_to_angle(spec.strike_price)
    spacing = grid.spacing_deg.raw
    index = (angle.raw + spacing // 2) // spacing
    return FixedDecimal.from_raw(index * spacing)


def hedge_legs(params: CurveParams, grid, spec: HedgeSpec) -> tuple[LpPosition, LpPosition]:
    """Long and short leg positions of the spread (not yet registered).

    The long band starts at the tick-aligned strike angle and extends one
    width upward (cheaper prices); the short band sits immediately below.
    The short leg's liquidity is scaled so both legs hold identical x
    inventory after a full depeg, which is what makes the combined payoff
    flat on the depeg side.
    """
    if spec.width_deg.raw % grid.spacing_deg.raw:
        raise ValidationError("band width must be a multiple of the tick spacing")
    strike_angle = _aligned_strike_angle(grid, spec)
    long_hi = fp_add(strike_angle, spec.width_deg)
    short_lo = fp_sub(strike_angle, spec.width_deg)
    if short_lo < ZERO or long_hi > NINETY:
        raise RangeError("hedge bands leave the [0, 90] degree range")
    long_leg = LpPosition(
        id=f"hedge:{spec.strike_price}:{spec.width_deg}:long",
        lower_deg=strike_angle,
        upper_deg=long_hi,
        liquidity=spec.notional_liquidity,
    )
    probe_short = LpPosition(
        id="probe", lower_deg=short_lo, upper_deg=strike_angle, liquidity=ONE
    )
    short_liquidity = FixedDecimal.from_raw(
        _div(_LegMark(params, long_leg).x_full, _LegMark(params, probe_short).x_full))
    short_leg = LpPosition(
        id=f"hedge:{spec.strike_price}:{spec.width_deg}:short",
        lower_deg=short_lo,
        upper_deg=strike_angle,
        liquidity=short_liquidity,
        side="short",
    )
    return long_leg, short_leg


def build_hedge(params: CurveParams, ledger: TickLedger,
                spec: HedgeSpec) -> tuple[LpPosition, LpPosition, TickLedger]:
    """Construct the spread and register both legs in the ledger."""
    long_leg, short_leg = hedge_legs(params, ledger.grid, spec)
    ledger = TickLedger(ledger.grid, ledger.positions + (long_leg, short_leg))
    return long_leg, short_leg, ledger


class _LegMark:
    """A band as raw ints at scale 10^18, for fast repeated valuation.

    Reads only the bounds and the liquidity: a short leg marks as the claim
    it holds, and spreads subtract it.
    """

    __slots__ = ("lam_l", "cos_lo", "cos_hi", "sin_hi", "x_full", "y_full")

    def __init__(self, params: CurveParams, position: LpPosition):
        self.lam_l = lam_l = fp_mul(position.liquidity, params.l).raw
        cos_lo, sin_lo = boundary_cos_sin(position.lower_deg.raw)
        cos_hi, sin_hi = boundary_cos_sin(position.upper_deg.raw)
        self.cos_lo, self.cos_hi, self.sin_hi = cos_lo.raw, cos_hi.raw, sin_hi.raw
        # The full holdings once the price has crossed the band: x when the
        # pool angle is above it, y when below; per the arc
        # x(phi) = lam*l*(1 - cos phi), y(phi) = lam*l*(1 - sin phi). Edge
        # gaps are at most 1, so neither leaves lam*l's range.
        self.x_full = _round_div(lam_l * (cos_lo.raw - cos_hi.raw), WAD)
        self.y_full = _round_div(lam_l * (sin_hi.raw - sin_lo.raw), WAD)

    def value(self, price: int, cos_at: int, sin_at: int) -> int:
        """Raw value at raw price ``price`` of the band's holdings at the arc
        point (cos_at, sin_at), clamped to the band."""
        # cos falls as the angle rises: the band is cos_hi <= cos <= cos_lo
        if cos_at >= self.cos_lo:
            return self.y_full
        if cos_at <= self.cos_hi:
            x, y = self.x_full, 0
        else:
            x = _round_div(self.lam_l * (self.cos_lo - cos_at), WAD)
            y = _round_div(self.lam_l * (self.sin_hi - sin_at), WAD)
        # x >= 0 and |y| <= lam*l: only the product and the sum can pass
        # the range, and only upward
        value = _round_div(price * x, WAD)
        if value > MAX_RAW:
            raise _range_error()
        value += y
        if value > MAX_RAW:
            raise _range_error()
        return value


# ONE's raw squared, and squared again: the terms of fp_unit(price, ONE)
_WAD_SQ = WAD * WAD
_WAD_4 = _WAD_SQ * _WAD_SQ


def hedge_payoff(params: CurveParams, spec: HedgeSpec, price_grid,
                 grid=None) -> PayoffCurve:
    """Normalized long-minus-short value across a price grid.

    Plateau levels come from the single-asset compositions: the no-depeg
    side is all-y on both legs (a constant), the deep-depeg side all-x
    with matched inventories (zero). The affine normalization maps them
    to 0 and 1 respectively.
    """
    grid = grid or TickGrid()
    long_leg, short_leg = hedge_legs(params, grid, spec)
    long_mark = _LegMark(params, long_leg)
    short_mark = _LegMark(params, short_leg)
    no_depeg_level = long_mark.y_full - short_mark.y_full
    scale = -no_depeg_level
    if scale <= 0:
        raise ValidationError("degenerate hedge: bands too narrow for the grid")
    long_value, short_value = long_mark.value, short_mark.value
    samples = []
    for price in price_grid:
        p = price.raw
        if p <= 0:
            raise DomainError("price must be positive")
        # arbitrage_point's (p, 1) / sqrt(1 + p^2), each component
        # correctly rounded from its exact ratio of squares
        p_sq = p * p
        n = p_sq + _WAD_SQ
        cos_at = _nearest_isqrt(p_sq * _WAD_SQ, n)
        sin_at = _nearest_isqrt(_WAD_4, n)
        raw = long_value(p, cos_at, sin_at) - short_value(p, cos_at, sin_at)
        if not -MAX_RAW <= raw <= MAX_RAW:
            raise _range_error()
        raw -= no_depeg_level
        if not -MAX_RAW <= raw <= MAX_RAW:
            raise _range_error()
        samples.append((price, FixedDecimal.from_raw(_div(raw, scale))))
    return PayoffCurve(samples=tuple(samples))
