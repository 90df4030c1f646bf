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
trigonometric calls, at the working scale of ``fixed``. An angle and an
arc point are two labels of one place, and each direction has one
conversion, correctly rounded: :func:`arc_cos_sin` from an angle to the
unit point (cos phi, sin phi), and :func:`point_angle` from a point
R (cos phi, sin phi) back to the angle. Trades form no angle: the tick
walk finds a point's segment by comparing its cosine with the
boundaries', and degrees are formed only for output.

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
    WAD,
    ZERO,
    _DIGITS,
    _PI_DIGITS,
    _PI_RAW,
    _from_scaled,
    _nearest_isqrt,
    _round_div,
    _taylor_sin_cos,
    fp_add,
    fp_atan2,
    fp_div,
    fp_mul,
    fp_sin_cos,
    fp_sqrt,
    fp_sub,
    fp_unit,
)
from .invariant import CurveParams, ON_CURVE_TOLERANCE

F = FixedDecimal

NINETY = F(90)


def arc_cos_sin(angle_deg: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """(cos, sin) of an arc angle in degrees, in [0, 90], correctly rounded.

    The radians are formed at the working scale from pi's 110 digits with
    one rounding, and cos and sin each round once, so the arc ends are the
    exact (1, 0) and (0, 1) and 45 gives sqrt(1/2) twice. An angle b above
    45 reads the pair of 90 - b swapped, which halves a table's evaluations.
    """
    if 2 * angle_deg.raw > NINETY.raw:
        cos_m, sin_m = arc_cos_sin(fp_sub(NINETY, angle_deg))
        return sin_m, cos_m
    sin_a, cos_a = _taylor_sin_cos(_round_div(
        angle_deg.raw * _PI_RAW, 180 * WAD * 10 ** (_PI_DIGITS - _DIGITS)))
    return _from_scaled(cos_a), _from_scaled(sin_a)


@lru_cache(maxsize=None)
def boundary_cos_sin(raw: int) -> tuple[FixedDecimal, FixedDecimal]:
    """:func:`arc_cos_sin` of the angle ``raw`` (raw degrees in [0, 90]).

    A process-wide table over tick boundaries, filled one angle at a time
    on first use. Only angles of at most 45 degrees are evaluated: an angle
    b above reads the entry of 90 - b, swapped, as ``arc_cos_sin`` does, so
    b and 90 - b share one evaluation.
    """
    if 2 * raw > NINETY.raw:
        cos_m, sin_m = boundary_cos_sin(NINETY.raw - raw)
        return sin_m, cos_m
    return arc_cos_sin(FixedDecimal.from_raw(raw))


def point_angle(x: FixedDecimal, y: FixedDecimal) -> FixedDecimal:
    """Angle in degrees of the arc point R (cos phi, sin phi) = (x, y).

    The inverse of :func:`arc_cos_sin`, correctly rounded; a point with
    x = 0 is exactly at 90.
    """
    return fp_atan2(y, x)


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


def circle_point(params: CurveParams, reserves, scale: FixedDecimal = ONE) -> list[int]:
    """Raw point (L - x_i)_i of a circular pool's reserves, L = l * scale.

    The on-curve rule of every route's start and of ``init``, for any n:
    each L - x_i is non-negative, and the rounded radius is within
    ON_CURVE_TOLERANCE * max(1, L) of L, as a table point's error scales.
    """
    offset = fp_mul(params.l, scale).raw
    ds = [offset - x.raw for x in reserves]
    if min(ds) < 0:
        raise DomainError("point outside the trading quadrant")
    radius = _nearest_isqrt(sum(d * d for d in ds))
    if abs(radius - offset) * WAD > ON_CURVE_TOLERANCE.raw * max(offset, WAD):
        raise DomainError("off-curve point: radius deviates from l*scale")
    return ds


def arc_point(params: CurveParams, x: FixedDecimal, y: FixedDecimal,
              scale: FixedDecimal = ONE) -> tuple[FixedDecimal, FixedDecimal]:
    """The point R (cos phi, sin phi) = (L - x, L - y) of a reserve pair
    that passes :func:`circle_point`; the point of (y, x) is its mirror."""
    dx, dy = circle_point(params, (x, y), scale)
    return FixedDecimal.from_raw(dx), FixedDecimal.from_raw(dy)


def cartesian_to_polar(params: CurveParams, x: FixedDecimal, y: FixedDecimal,
                       scale: FixedDecimal = ONE) -> FixedDecimal:
    """Angle in degrees of a reserve pair on the arc (see :func:`arc_point`)."""
    return point_angle(*arc_point(params, x, y, scale))


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

