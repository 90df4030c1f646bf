"""Polar tick grid, LP range positions, and tick-crossing swaps.

Liquidity lives on angle ranges: a position contributes its liquidity to
the pool's scale at every angle in [lower, upper) (half-open, so a
boundary belongs to the segment above it). Each ledger indexes its
aggregate liquidity once, on first use: the sorted boundary angles and
the prefix sums of the signed deltas there, searched with bisect. Since
fixed-point addition is exact, the prefix sums match a brute-force sum
over containing positions bit for bit, in any insertion order.

A swap that traverses several tick segments trades each segment on its
own scaled circle: within a segment the scale is the active liquidity
there, and at a boundary the virtual reserves re-anchor to the new
circle at the same angle, which keeps the marginal price (cot of the
angle) continuous across the crossing. The walk always moves the angle
up: selling token 1 of a two-token pool is the same walk in the mirror
angle 90 - phi, on the ledger's mirrored index. The walk searches the
index once, for the segment that holds its start angle, and then moves a
cursor one segment up at each boundary it reaches, the way Uniswap v3
steps from tick to next initialized tick.

The walk carries the point, not the angle: (x, y) = R (cos phi, sin phi),
the in- and out-reserves' distances below the centre of a circle of
radius R. Selling d moves x to x - d exactly, and y follows from one
correctly rounded square root of R^2 - x^2. Every pool walks its pair
circle: for two tokens that is the pool's own circle, and a pool with
more tokens holds its other reserves fixed. The start point comes from
the reserves. A boundary's (cos, sin) comes from the process-wide table
``polar.boundary_cos_sin``, shared by every ledger and filled one angle
at a time on first use; it evaluates sin and cos only at angles of at
most 45 degrees and swaps the pair of 90 - b for an angle b above, so
both trade directions read the same values. The angle in degrees serves
only as the ledger's search key and as output: a trade takes one atan2,
``polar.point_angle`` of the point where it ends inside a segment (n > 2
pools take one more, for the start angle of the pair-circle point).

``route_swap`` is the one entry point for a trade on any route: it
quotes on the Cartesian, polar or tick route and returns the committed
state with the quote, so callers hold no route logic of their own.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import (
    DomainError,
    InsufficientLiquidityError,
    NotFoundError,
    NumericError,
    ValidationError,
)
from .fixed import (
    FixedDecimal,
    ONE,
    ZERO,
    fp_add,
    fp_div,
    fp_mul,
    fp_sqrt_diff_squares,
    fp_sub,
)
from .invariant import CurveParams, PoolState, token_pair
from .polar import (
    NINETY,
    angle_of_state,
    angle_to_price,
    boundary_cos_sin,
    point_angle,
)
from .swap import SwapQuote, commit, effective_pair_circle, pair_swap

_NINETY_RAW = NINETY.raw


@dataclass(frozen=True)
class TickGrid:
    """Uniform tick granularity; the spacing must divide 90 evenly."""

    spacing_deg: FixedDecimal = field(default_factory=lambda: ONE)

    def __post_init__(self):
        if self.spacing_deg <= ZERO:
            raise ValidationError("tick spacing must be positive")
        if _NINETY_RAW % self.spacing_deg.raw != 0:
            raise ValidationError("tick spacing must divide 90 degrees evenly")

    @property
    def tick_count(self) -> int:
        return _NINETY_RAW // self.spacing_deg.raw

    def is_aligned(self, angle_deg: FixedDecimal) -> bool:
        return (
            ZERO <= angle_deg <= NINETY
            and angle_deg.raw % self.spacing_deg.raw == 0
        )

    def boundary(self, index: int) -> FixedDecimal:
        if not 0 <= index <= self.tick_count:
            raise ValidationError("tick index out of range")
        return FixedDecimal.from_raw(index * self.spacing_deg.raw)


@dataclass(frozen=True)
class LpPosition:
    """A liquidity amount committed over a tick-aligned angle range."""

    id: str
    lower_deg: FixedDecimal
    upper_deg: FixedDecimal
    liquidity: FixedDecimal
    side: str = "long"

    def __post_init__(self):
        if self.side not in ("long", "short"):
            raise ValidationError("side must be 'long' or 'short'")
        if self.liquidity <= ZERO:
            raise ValidationError("liquidity must be positive")
        if not self.lower_deg < self.upper_deg:
            raise ValidationError("lower bound must be below upper bound")
        if self.lower_deg < ZERO or self.upper_deg > NINETY:
            raise ValidationError("position must lie within [0, 90] degrees")

    def contains(self, angle_deg: FixedDecimal) -> bool:
        return self.lower_deg <= angle_deg < self.upper_deg


@dataclass(frozen=True)
class TickLedger:
    """All registered positions on one grid.

    Every ledger, built or loaded, holds tick-aligned positions with
    distinct ids, and its longs cover its shorts at every angle.
    """

    grid: TickGrid = field(default_factory=TickGrid)
    positions: tuple[LpPosition, ...] = ()

    def __post_init__(self):
        spacing = self.grid.spacing_deg.raw
        ids = set()
        has_short = False
        for p in self.positions:
            # LpPosition keeps its bounds within [0, 90]
            if p.lower_deg.raw % spacing or p.upper_deg.raw % spacing:
                raise ValidationError("position bounds must be tick-aligned")
            if p.id in ids:
                raise ValidationError(f"duplicate position id {p.id!r}")
            ids.add(p.id)
            has_short = has_short or p.side == "short"
        if has_short and any(total.raw < 0 for total in self.index[1]):
            raise ValidationError("short liquidity exceeds long liquidity")

    def position(self, position_id: str) -> LpPosition:
        for p in self.positions:
            if p.id == position_id:
                return p
        raise NotFoundError(position_id)

    @cached_property
    def index(self) -> tuple[tuple[int, ...], tuple[FixedDecimal, ...]]:
        """Sorted raw boundary angles and the aggregate liquidity from each up.

        Boundaries whose signed deltas cancel are left out. Built on first
        use; not a field, so equality and the pool-file format ignore it.
        """
        deltas: dict[int, FixedDecimal] = {}
        for p in self.positions:
            amt = p.liquidity if p.side == "long" else -p.liquidity
            deltas[p.lower_deg.raw] = fp_add(deltas.get(p.lower_deg.raw, ZERO), amt)
            deltas[p.upper_deg.raw] = fp_sub(deltas.get(p.upper_deg.raw, ZERO), amt)
        raws, totals, total = [], [], ZERO
        for raw in sorted(deltas):
            if not deltas[raw].is_zero():
                total = fp_add(total, deltas[raw])
                raws.append(raw)
                totals.append(total)
        return tuple(raws), tuple(totals)

    @cached_property
    def mirrored_index(self) -> tuple[tuple[int, ...], tuple[FixedDecimal, ...]]:
        """The index seen from token 1, in the mirror angle 90 - phi.

        A boundary at b moves to 90 - b, and the liquidity just above it
        there is the canonical liquidity just below b: the same prefix
        sums, reversed and shifted by one boundary.
        """
        raws, totals = self.index
        below = ((ZERO,) + totals)[:-1]
        return tuple(_NINETY_RAW - raw for raw in reversed(raws)), below[::-1]


def _active(index, raw: int) -> FixedDecimal:
    """Liquidity on the half-open segment of ``index`` holding ``raw``."""
    raws, totals = index
    k = bisect_right(raws, raw)
    return totals[k - 1] if k else ZERO


def active_liquidity(ledger: TickLedger, angle_deg: FixedDecimal) -> FixedDecimal:
    """Aggregate liquidity at an angle (sum over containing positions)."""
    if angle_deg < ZERO or angle_deg > NINETY:
        raise DomainError("angle outside [0, 90] degrees")
    total = _active(ledger.index, angle_deg.raw)
    if total < ZERO:
        raise NumericError("negative aggregate liquidity in the ledger")
    return total


def add_position(ledger: TickLedger, position: LpPosition, *,
                 _from_hedge: bool = False) -> TickLedger:
    """Register a position; the new ledger passes the ledger's checks.

    Short positions are constructible only through the hedge builder, and
    only while longs cover them everywhere.
    """
    if position.side == "short" and not _from_hedge:
        raise ValidationError("short positions are created by the hedge builder")
    return replace(ledger, positions=ledger.positions + (position,))


def remove_position(ledger: TickLedger, position_id: str) -> TickLedger:
    """Drop a position by id; unknown ids raise NotFoundError."""
    ledger.position(position_id)
    remaining = tuple(p for p in ledger.positions if p.id != position_id)
    return replace(ledger, positions=remaining)


def tick_width_in_price(grid: TickGrid, tick_index: int):
    """Price interval spanned by one tick.

    Returns (price_lo, price_hi); price_hi is None for the first tick,
    whose lower angle boundary maps to unbounded price.
    """
    if not 0 <= tick_index < grid.tick_count:
        raise ValidationError("tick index out of range")
    angle_lo = grid.boundary(tick_index)
    angle_hi = grid.boundary(tick_index + 1)
    price_lo = angle_to_price(angle_hi)
    price_hi = None if angle_lo.is_zero() else angle_to_price(angle_lo)
    return price_lo, price_hi


@dataclass(frozen=True)
class SegmentFill:
    """One constant-liquidity stretch of a tick-crossing swap."""

    index: int
    angle_from_deg: FixedDecimal
    angle_to_deg: FixedDecimal
    liquidity: FixedDecimal
    delta_in: FixedDecimal
    delta_out: FixedDecimal


@dataclass(frozen=True)
class TickSwapResult:
    quote: SwapQuote
    segments: tuple[SegmentFill, ...]
    final_angle_deg: FixedDecimal
    final_liquidity: FixedDecimal


def swap_across_ticks(params: CurveParams, ledger: TickLedger, state: PoolState,
                      token_in: int, delta_in: FixedDecimal,
                      token_out: int | None = None) -> TickSwapResult:
    """Trade across tick segments, re-scaling the curve at each crossing.

    The pool's scale within a segment is the ledger's active liquidity
    there. Runs of the arc with zero liquidity, or the arc ends, stop the
    trade with an insufficient-liquidity error carrying the partial fill.
    Crossings are supported for two-token pools; n-token pools trade
    pairwise on uniform ledgers.
    """
    if params.mode != "ccmm":
        raise ValidationError("tick traversal is defined on circular pools")
    if delta_in < ZERO:
        raise ValidationError("delta_in must be non-negative")
    i, j = token_pair(params, token_in, token_out)

    # trade orientation: the in-token on the cosine axis, the out-token on
    # the sine axis, so selling always moves the angle up. Ledger angles
    # are canonical (token 0 in); selling token 1 walks the mirror image.
    mirrored = params.n == 2 and i == 1
    raws, totals = ledger.mirrored_index if mirrored else ledger.index
    if params.n > 2 and any(raw not in (0, _NINETY_RAW) for raw in raws):
        raise ValidationError(
            "tick crossings are two-token only; n-dim pools need a uniform ledger"
        )

    def canonical(angle: FixedDecimal) -> FixedDecimal:
        # the mirror is its own inverse, so this maps both ways
        return fp_sub(NINETY, angle) if mirrored else angle

    # the point (x, y) = circle * (cos phi, sin phi) in walk orientation,
    # on the pair circle, which for two tokens is the pool's own circle
    reserves = list(state.reserves)
    scale = state.liquidity_scale
    offset, circle = effective_pair_circle(params, reserves, scale, i, j)
    x, y = fp_sub(offset, reserves[i]), fp_sub(offset, reserves[j])
    phi = canonical(angle_of_state(params, state)) if params.n == 2 else point_angle(x, y)

    def reanchor(scale):
        # the point at the same angle on the pair circle at another scale
        offset, radius = effective_pair_circle(params, reserves, scale, i, j)
        return (offset, radius,
                fp_div(fp_mul(x, radius), circle), fp_div(fp_mul(y, radius), circle))

    x_0, y_0 = x, y
    remaining = delta_in
    filled_in = ZERO
    filled_out = ZERO
    segments: list[SegmentFill] = []
    # the cursor: segment k - 1 holds phi and raws[k] is the next stop. A
    # state committed a hair before the start of the walk, where a trade
    # that exhausted the arc left it, trades on the first segment
    k = bisect_right(raws, max(phi.raw, 0))
    # a zero trade is the zero quote: no segment, so no rounded root
    while remaining > ZERO:
        if phi.raw >= _NINETY_RAW:
            raise InsufficientLiquidityError(
                "ran out of liquidity at the arc end",
                filled_in=filled_in, filled_out=filled_out,
                boundary_angle_deg=canonical(NINETY),
            )
        active = totals[k - 1] if k else ZERO
        if active <= ZERO:
            raise InsufficientLiquidityError(
                "ran out of liquidity at a dead segment",
                filled_in=filled_in, filled_out=filled_out,
                boundary_angle_deg=canonical(phi),
            )
        if active != scale:
            scale = active
            offset, circle, x, y = reanchor(scale)

        # every position's deltas sum to zero, so no liquidity lies above
        # the last boundary and a live segment always has one above it
        stop = FixedDecimal.from_raw(raws[k])
        cos_stop, sin_stop = boundary_cos_sin(stop.raw)
        x_stop = fp_mul(circle, cos_stop)
        capacity = fp_sub(x, x_stop)

        if remaining < capacity:
            step, x_end = remaining, fp_sub(x, remaining)
            y_end = fp_sqrt_diff_squares(circle, x_end)
            # rounding in the angle must not move it back or out of the segment
            end = min(max(point_angle(x_end, y_end), phi), stop)
        else:
            # the segment fills: land on its boundary
            step, x_end, y_end, end = capacity, x_stop, fp_mul(circle, sin_stop), stop
        out = fp_sub(y_end, y)
        segments.append(SegmentFill(
            index=len(segments),
            angle_from_deg=canonical(phi),
            angle_to_deg=canonical(end),
            liquidity=scale,
            delta_in=step,
            delta_out=out,
        ))
        filled_in = fp_add(filled_in, step)
        filled_out = fp_add(filled_out, out)
        remaining = fp_sub(remaining, step)
        phi, x, y = end, x_end, y_end
        if end == stop:
            k += 1

    # the cursor's segment holds the final angle: a walk that ends on a
    # boundary goes on from the circle above it, unless that arc is empty
    if segments and ZERO < totals[k - 1] != scale:
        scale = totals[k - 1]
        offset, circle, x, y = reanchor(scale)
    reserves[i] = fp_sub(offset, x)
    reserves[j] = fp_sub(offset, y)

    # prices are the scale-free cotangent of the trade angle
    if y.is_zero() or y_0.is_zero():
        raise NumericError("price undefined at the arc endpoint")

    quote = SwapQuote(
        token_in=i,
        token_out=j,
        amount_in=filled_in,
        amount_out=filled_out,
        price_before=fp_div(x_0, y_0),
        price_after=fp_div(x, y),
        new_reserves=tuple(reserves),
    )
    return TickSwapResult(
        quote=quote,
        segments=tuple(segments),
        final_angle_deg=canonical(phi),
        final_liquidity=scale,
    )


def commit_tick_swap(state: PoolState, result: TickSwapResult) -> PoolState:
    """Apply a tick swap: reserves, scale, and cached angle."""
    return PoolState(
        reserves=result.quote.new_reserves,
        liquidity_scale=result.final_liquidity,
        angle_deg=result.final_angle_deg,
    )


def route_swap(params: CurveParams, ledger: TickLedger, state: PoolState, route: str,
               token_in: int, token_out: int, amount: FixedDecimal,
               exact_out: bool = False
               ) -> tuple[SwapQuote, PoolState, TickSwapResult | None]:
    """Quote a trade on ``route`` and commit it.

    ``route`` is ``cartesian``, ``polar`` or ``ticks``; ``amount`` is the
    input, or with ``exact_out`` (Cartesian route) the output. The polar
    route is the Cartesian route's ``pair_swap`` on circular pools, where
    it takes the pair-circle step. Returns the quote, the state after the
    trade and the tick result, which is None off the tick route.
    """
    if amount < ZERO:
        raise ValidationError("amount must be non-negative")
    if exact_out:
        if route != "cartesian":
            raise ValidationError("--exact-out is a cartesian-route feature")
        quote = pair_swap(params, state, token_out, -amount, token_in)
    elif route == "ticks":
        result = swap_across_ticks(params, ledger, state, token_in, amount, token_out)
        return result.quote, commit_tick_swap(state, result), result
    elif route in ("cartesian", "polar"):
        if route == "polar" and params.mode != "ccmm":
            raise ValidationError("polar route needs a circular pool")
        quote = pair_swap(params, state, token_in, amount, token_out)
    else:
        raise ValidationError(f"unknown route {route!r}")
    return quote, commit(state, quote), None
