"""Arc geometry: angles, arc points and price/angle conversion.

A two-token circular pool is an arc of the circle centered at (L, L) with
radius L = l * scale. Points on the trading arc are parameterized by the
angle phi in degrees,

    x = L (1 - cos phi),   y = L (1 - sin phi),   phi in [0, 90],

so phi = 0 is the all-y endpoint where x costs everything and phi = 90 the
all-x endpoint where x is free: larger angle means cheaper x. Tick systems
label angles through the rational convention phi = 90 / (price + 1), which
agrees with the arc at the anchors (price 1 at 45 degrees, price 0 at 90)
and is inverted by price = 90 / phi - 1.

Degrees are the public angle unit; radians appear only inside the
trigonometric calls. An angle and an arc point are two labels of one
place, and each direction has one conversion: :func:`arc_cos_sin` from an
angle to the unit point (cos phi, sin phi), and :func:`point_angle` from a
point R (cos phi, sin phi) back to the angle.

This module trades nothing. The polar route's rotation that adds
``delta`` to the in-reserve ends where the pair circle meets the new
in-reserve, so its out-reserve is the square root the appendix routine
takes, L sqrt(1 - ratio^2): ``ticks.route_swap`` runs it as the
pair-circle step of ``swap.pair_swap``, correctly rounded, with no angle.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, RangeError
from .fixed import (
    FixedDecimal,
    ONE,
    PI,
    ZERO,
    fp_add,
    fp_atan2,
    fp_div,
    fp_hypot,
    fp_mul,
    fp_sin_cos,
    fp_sqrt,
    fp_sub,
    fp_unit,
)
from .invariant import CurveParams, ON_CURVE_TOLERANCE, PoolState

F = FixedDecimal

NINETY = F(90)
DEG_PER_RAD = fp_div(F(180), PI)


def deg_to_rad(angle_deg: FixedDecimal) -> FixedDecimal:
    # pi / 180 rounded to the grid would carry its rounding times the angle
    return fp_div(fp_mul(angle_deg, PI), F(180))


def rad_to_deg(angle_rad: FixedDecimal) -> FixedDecimal:
    return fp_mul(angle_rad, DEG_PER_RAD)


def arc_cos_sin(angle_deg: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """(cos, sin) of an arc angle in degrees, in [0, 90].

    Sine and cosine are evaluated only at angles of at most 45 degrees; an
    angle b above reads the pair of 90 - b swapped, so the pairs of b and
    90 - b mirror each other bit for bit, and the arc ends are the exact
    (1, 0) and (0, 1).
    """
    if 2 * angle_deg.raw > NINETY.raw:
        cos_m, sin_m = arc_cos_sin(fp_sub(NINETY, angle_deg))
        return sin_m, cos_m
    if angle_deg.is_zero():
        return ONE, ZERO
    sin_a, cos_a = fp_sin_cos(deg_to_rad(angle_deg))
    return cos_a, sin_a


@lru_cache(maxsize=None)
def boundary_cos_sin(raw: int) -> tuple[FixedDecimal, FixedDecimal]:
    """:func:`arc_cos_sin` of the angle ``raw`` (raw degrees in [0, 90]).

    A process-wide table over tick boundaries, filled one angle at a time
    on first use.
    """
    return arc_cos_sin(FixedDecimal.from_raw(raw))


def point_angle(x: FixedDecimal, y: FixedDecimal) -> FixedDecimal:
    """Angle in degrees of the arc point R (cos phi, sin phi) = (x, y).

    The inverse of :func:`arc_cos_sin`; a point with x = 0 is exactly at 90.
    """
    if x.is_zero():
        return NINETY
    return rad_to_deg(fp_atan2(y, x))


def arbitrage_point(price: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """(cos, sin) of the arc point whose marginal price cot phi is ``price``.

    That is the unit vector (p, 1) / sqrt(1 + p^2); no angle is formed.
    """
    return fp_unit(price, ONE)


def price_to_angle(price: FixedDecimal) -> FixedDecimal:
    """Tick angle 90 / (price + 1); price 1 sits at 45 degrees."""
    if price < ZERO:
        raise DomainError("negative prices are disabled")
    return fp_div(NINETY, fp_add(price, ONE))


def angle_to_price(angle_deg: FixedDecimal) -> FixedDecimal:
    """Inverse tick mapping 90 / phi - 1 for phi in (0, 90]."""
    if angle_deg <= ZERO or angle_deg > NINETY:
        raise DomainError("angle must lie in (0, 90] degrees (0 is infinite price)")
    return fp_sub(fp_div(NINETY, angle_deg), ONE)


def reserves_at_angle(params: CurveParams, angle_deg: FixedDecimal,
                      scale: FixedDecimal = ONE) -> tuple[FixedDecimal, FixedDecimal]:
    """Arc point (x, y) at the given angle."""
    offset = fp_mul(params.l, scale)
    cos_a, sin_a = arc_cos_sin(angle_deg)
    x = fp_sub(offset, fp_mul(offset, cos_a))
    y = fp_sub(offset, fp_mul(offset, sin_a))
    return x, y


def cartesian_to_polar(params: CurveParams, x: FixedDecimal, y: FixedDecimal,
                       scale: FixedDecimal = ONE) -> FixedDecimal:
    """Angle in degrees of an on-curve reserve point.

    Rejects points whose distance from the center deviates from L by more
    than the on-curve tolerance.
    """
    offset = fp_mul(params.l, scale)
    dx = fp_sub(offset, x)
    dy = fp_sub(offset, y)
    if dx < ZERO or dy < ZERO:
        raise DomainError("point outside the trading quadrant")
    if abs(fp_sub(fp_hypot(dx, dy), offset)) > ON_CURVE_TOLERANCE:
        raise DomainError("off-curve point: radius deviates from l*scale")
    return point_angle(dx, dy)


def angle_of_state(params: CurveParams, state: PoolState) -> FixedDecimal:
    """Current polar angle of a two-token state, from cache or geometry."""
    if state.angle_deg is not None:
        return state.angle_deg
    x, y = state.reserves
    return cartesian_to_polar(params, x, y, state.liquidity_scale)


def polar_swap_delta_y(params: CurveParams, x_in: FixedDecimal) -> FixedDecimal:
    """Trigonometric swap output with the historical 10000-fold scaling.

    Reproduces, step for step, the reference routine that rotates from the
    45-degree point using the 135-degree sine/cosine pair on a circle
    scaled by 10000. The scaling is part of the pinned output (the
    documented result for x_in = 1 is 0.999958580363); the polar route of
    ``ticks.route_swap`` drops the scaling and takes the same root through
    ``swap.pair_swap``.
    """
    l_scaled = fp_mul(params.l, F(10000))
    radians_45 = fp_div(PI, F(4))
    radians_135 = fp_mul(F(3), radians_45)
    sin_135, cos_135 = fp_sin_cos(radians_135)
    l_cos = fp_mul(l_scaled, cos_135)
    l_sin = fp_mul(l_scaled, sin_135)
    ratio = fp_div(fp_sub(l_sin, x_in), l_scaled)
    radicand = fp_sub(ONE, fp_mul(ratio, ratio))
    if radicand < ZERO:
        raise RangeError("rotation leaves the arc: radicand negative")
    return fp_add(fp_mul(l_scaled, fp_sqrt(radicand)), l_cos)

