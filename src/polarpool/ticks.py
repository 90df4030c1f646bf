"""Polar tick grid, LP range positions, and tick-crossing swaps.

Liquidity lives on angle ranges: a position contributes its liquidity to
the pool's scale at every angle in [lower, upper) (half-open, so a
boundary belongs to the segment above it). Each ledger keeps its
positions as raw rows and indexes its aggregate liquidity once, in the
pass that checks them when it is built or loaded: the sorted boundary
angles and the prefix sums of the signed deltas there, searched with
bisect. Since fixed-point addition is exact, the prefix sums match a
brute-force sum over containing positions bit for bit, in any insertion
order.

A swap that traverses several tick segments trades each segment on its
own scaled circle: within a segment the scale is the active liquidity
there, and at a boundary b the walk moves to the new circle's table
point (round(L' cos b), round(L' sin b)), the point a walk on that circle
reaches when it lands on b, so the marginal price (cot of the angle)
stays continuous across the crossing. A start whose scale is not its
segment's liquidity moves the same way, but only from the segment's
first boundary; any other such start is refused. The walk always moves
the angle up: selling token 1 of a two-token pool is the same walk in
the mirror angle 90 - phi, on the ledger's mirrored index. The walk
searches the index once, for the segment that holds its start, and then
moves a cursor one segment up at each boundary it reaches, the way
Uniswap v3 steps from tick to next initialized tick.

The walk carries the point, not the angle: (x, y) = R (cos phi, sin phi),
the in- and out-reserves' distances below the centre of a circle of
radius R, as Python ints in raw units. Selling d moves x to x - d
exactly, and y follows from one correctly rounded square root of
R^2 - x^2. Every pool walks its pair circle: for two tokens that is the
pool's own circle, and a pool with more tokens walks the circle through
its point that holds its other reserves fixed, the Cartesian route's
circle. The start point comes from the reserves. A boundary's (cos, sin)
comes from the process-wide table ``polar.boundary_cos_sin``, shared by
every ledger and filled one angle at a time on first use; it evaluates
sin and cos only at angles of at most 45 degrees and swaps the pair of
90 - b for an angle b above, so both trade directions read the same
values. Values become ``FixedDecimal`` only in the results, and the walk
raises RangeError exactly where a wrap of each step's value would.

A trade forms no angle. A two-token state's cached angle keys its start
segment; any other state's point does, since phi >= b exactly when
x * 10^18 <= R cos b on integers: one bisect over the boundaries of the
index, which reads only the cosines it probes. One rule places a walk's
end: on the boundary it lands on; on its segment's start where either
token's test places it at or below that start; on its own angle, formed
inside the segment, where the other token's test places it past the
segment's end; else on its point, inside the segment by both tests. A
state caches an exact end angle and a pool file the final angle, which
key the same segments. Degrees are otherwise formed, correctly rounded,
only when a result's angles are read: the quote's final angle, the
segment trace and the angle a pool file keeps.

``route_swap`` is the one entry point for a trade on any route: it
quotes on the Cartesian, polar or tick route and returns the committed
state with the quote, so callers hold no route logic of their own.
``replay`` and ``gen_trades`` run whole trade logs through it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DomainError,
    InsufficientLiquidityError,
    NotFoundError,
    NumericError,
    ValidationError,
)
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
from .invariant import CurveParams, PoolState, invariant_residual, token_pair
from .polar import NINETY, angle_to_price, boundary_cos_sin, circle_point, point_angle
from .swap import SwapQuote, _pair_circle, commit, pair_swap

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


def _check_position(lower: int, upper: int, liquidity: int, side: str) -> None:
    """The rules of one position, on raws: a side, positive liquidity and a
    non-empty range within [0, 90] degrees."""
    if side not in ("long", "short"):
        raise ValidationError("side must be 'long' or 'short'")
    if liquidity <= 0:
        raise ValidationError("liquidity must be positive")
    if not lower < upper:
        raise ValidationError("lower bound must be below upper bound")
    if lower < 0 or upper > _NINETY_RAW:
        raise ValidationError("position must lie within [0, 90] degrees")


@dataclass(frozen=True)
class LpPosition:
    """A liquidity amount committed over a tick-aligned angle range."""

    id: str
    lower_deg: FixedDecimal
    upper_deg: FixedDecimal
    liquidity: FixedDecimal
    side: str = "long"

    def __post_init__(self):
        _check_position(self.lower_deg.raw, self.upper_deg.raw, self.liquidity.raw, self.side)


@dataclass(frozen=True)
class SegmentIndex:
    """A ledger's segments in one walk orientation, in raw units.

    ``raws`` are the sorted boundary angles and ``totals[k]`` the liquidity
    from ``raws[k]`` up to the next boundary. It holds no cosines: a
    search reads those it probes from the process-wide table.
    """

    raws: tuple[int, ...]
    totals: tuple[int, ...]

    def point_segment(self, x: int, radius: int) -> int:
        """The cursor of the point R (cos phi, sin phi) with x = R cos phi.

        That is the number of boundaries b with phi >= b, decided on
        integers as x * 10^18 <= R cos b: one bisect, and no angle. The
        bisect reads the cosine of each boundary it probes from
        ``boundary_cos_sin``, so a search evaluates only about log2 of the
        boundaries. A point with x >= R counts as angle 0.
        """
        return bisect_right(self.raws, -min(x, radius) * WAD // radius,
                            key=lambda raw: -boundary_cos_sin(raw)[0].raw)


@dataclass(frozen=True, init=False)
class TickLedger:
    """All registered positions on one grid.

    Every ledger, built or loaded, holds tick-aligned positions with
    distinct ids, and its longs cover its shorts at every angle. It keeps
    them as raw ``rows`` (id, lower, upper, liquidity, side), which one
    pass checks and indexes when the ledger is made; ``positions`` wraps
    the rows as ``LpPosition`` objects when first read. Ledgers with equal
    grids and rows are equal, however they were made.
    """

    grid: TickGrid
    rows: tuple[tuple[str, int, int, int, str], ...]

    def __init__(self, grid: TickGrid | None = None, positions: tuple[LpPosition, ...] = ()):
        positions = tuple(positions)
        self._fill(grid or TickGrid(), (
            (p.id, p.lower_deg.raw, p.upper_deg.raw, p.liquidity.raw, p.side)
            for p in positions))
        # the cached value of ``positions``: the objects it was built from
        self.__dict__["positions"] = positions

    @classmethod
    def from_rows(cls, grid: TickGrid, rows) -> TickLedger:
        """The ledger of raw rows (id, lower, upper, liquidity, side), as a
        pool file holds them; its positions are built when first read."""
        ledger = object.__new__(cls)
        ledger._fill(grid, rows)
        return ledger

    def _fill(self, grid: TickGrid, rows) -> None:
        """Check every rule over ``rows`` and index them, in one pass.

        Each row passes the position rules as it is read, so a row that
        fails them (or fails to parse, in a pool file's lazy rows) raises
        before any ledger rule: the first misaligned or repeated row
        raises only once every row has been read.
        """
        spacing = grid.spacing_deg.raw
        kept, ids, deltas = [], set(), {}
        misfit, in_range, has_short = None, True, False
        for row in rows:
            pid, lower, upper, amount, side = row
            _check_position(lower, upper, amount, side)
            kept.append(row)
            if misfit is None:
                if lower % spacing or upper % spacing:
                    misfit = "position bounds must be tick-aligned"
                elif pid in ids:
                    misfit = f"duplicate position id {pid!r}"
                ids.add(pid)
            if side == "short":
                has_short, amount = True, -amount
            # raw sums, range-checked as the wrap of every partial sum would
            # be; a ledger past the range raises when its index is read
            at_lower = deltas.get(lower, 0) + amount
            at_upper = deltas.get(upper, 0) - amount
            deltas[lower], deltas[upper] = at_lower, at_upper
            if abs(at_lower) > MAX_RAW or abs(at_upper) > MAX_RAW:
                in_range = False
        if misfit is not None:
            raise ValidationError(misfit)
        raws, totals, total = [], [], 0
        for raw in sorted(deltas):
            if deltas[raw]:
                total += deltas[raw]
                in_range = in_range and abs(total) <= MAX_RAW
                raws.append(raw)
                totals.append(total)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rows", tuple(kept))
        object.__setattr__(self, "_index",
                           SegmentIndex(tuple(raws), tuple(totals)) if in_range else None)
        if has_short and any(total < 0 for total in self.index.totals):
            raise ValidationError("short liquidity exceeds long liquidity")

    @cached_property
    def positions(self) -> tuple[LpPosition, ...]:
        """The rows as positions, built on first read: by the hedge builder,
        ``remove_position`` and ``position``."""
        wrap = FixedDecimal.from_raw
        return tuple(LpPosition(pid, wrap(lower), wrap(upper), wrap(amount), side)
                     for pid, lower, upper, amount, side in self.rows)

    def position(self, position_id: str) -> LpPosition:
        for p in self.positions:
            if p.id == position_id:
                return p
        raise NotFoundError(position_id)

    @property
    def index(self) -> SegmentIndex:
        """The segments seen from token 0, in the canonical angle.

        Boundaries whose signed deltas cancel are left out. Built with the
        ledger; where a sum of its liquidity leaves the range, reading it
        raises RangeError.
        """
        if self._index is None:
            raise _range_error()
        return self._index

    @cached_property
    def mirrored_index(self) -> SegmentIndex:
        """The segments seen from token 1, in the mirror angle 90 - phi.

        A boundary at b moves to 90 - b, and the liquidity just above it
        there is the canonical liquidity just below b: the same prefix
        sums, reversed and shifted by one boundary.
        """
        raws, totals = self.index.raws, self.index.totals
        below = ((0,) + totals)[:-1]
        return SegmentIndex(tuple(_NINETY_RAW - raw for raw in reversed(raws)), below[::-1])


def active_liquidity(ledger: TickLedger, angle_deg: FixedDecimal) -> FixedDecimal:
    """Aggregate liquidity at an angle (sum over containing positions)."""
    if angle_deg < ZERO or angle_deg > NINETY:
        raise DomainError("angle outside [0, 90] degrees")
    index = ledger.index
    k = bisect_right(index.raws, angle_deg.raw)
    total = index.totals[k - 1] if k else 0
    if total < 0:
        raise NumericError("negative aggregate liquidity in the ledger")
    return FixedDecimal.from_raw(total)


def add_position(ledger: TickLedger, position: LpPosition) -> TickLedger:
    """Register a long position; the new ledger passes the ledger's checks.

    Short positions enter a ledger only with the longs that cover them,
    through the hedge builder or a pool file.
    """
    if position.side == "short":
        raise ValidationError("short positions are created by the hedge builder")
    return TickLedger(ledger.grid, ledger.positions + (position,))


def remove_position(ledger: TickLedger, position_id: str) -> TickLedger:
    """Drop a position by id; unknown ids raise NotFoundError."""
    ledger.position(position_id)
    return TickLedger(ledger.grid, tuple(p for p in ledger.positions if p.id != position_id))


def tick_width_in_price(grid: TickGrid, tick_index: int):
    """Price interval spanned by one tick.

    Returns (price_lo, price_hi); price_hi is None for the first tick,
    whose lower angle boundary maps to unbounded price.
    """
    if not 0 <= tick_index < grid.tick_count:
        raise ValidationError("tick index out of range")
    angle_lo = FixedDecimal.from_raw(tick_index * grid.spacing_deg.raw)
    angle_hi = fp_add(angle_lo, grid.spacing_deg)
    price_lo = angle_to_price(angle_hi)
    price_hi = None if angle_lo.is_zero() else angle_to_price(angle_lo)
    return price_lo, price_hi


class _Point(NamedTuple):
    """A walk point R (cos phi, sin phi) = (x, y), in raw units, inside the
    open segment (lo, hi) of raw walk angles; a bound is None where the
    segment has no boundary on that side."""

    x: int
    y: int
    lo: int | None
    hi: int | None


def _degrees(mark: int | _Point, mirrored: bool) -> FixedDecimal:
    """A place on the walk as a canonical angle in degrees.

    The place is an exact raw walk angle (a boundary, or a cached angle) or
    a ``_Point``, whose angle is formed here, correctly rounded, and clamped
    into its open segment: a boundary belongs to the segment above it in
    either walk orientation, so an angle strictly inside keys the same
    segment from both tokens.
    """
    if isinstance(mark, _Point):
        raw = point_angle(FixedDecimal.from_raw(mark.x), FixedDecimal.from_raw(mark.y)).raw
        if mark.lo is not None:
            raw = max(raw, mark.lo + 1)
        if mark.hi is not None:
            raw = min(raw, mark.hi - 1)
        mark = raw
    return FixedDecimal.from_raw(_NINETY_RAW - mark if mirrored else mark)


@dataclass(frozen=True)
class SegmentFill:
    """One constant-liquidity stretch of a tick-crossing swap.

    ``start`` and ``end`` are the places on the walk where it starts and
    ends (see ``_degrees``); its angles are formed when read.
    """

    index: int
    liquidity: FixedDecimal
    delta_in: FixedDecimal
    delta_out: FixedDecimal
    start: int | _Point
    end: int | _Point
    mirrored: bool

    @property
    def angle_from_deg(self) -> FixedDecimal:
        return _degrees(self.start, self.mirrored)

    @property
    def angle_to_deg(self) -> FixedDecimal:
        return _degrees(self.end, self.mirrored)


@dataclass(frozen=True)
class TickSwapResult:
    """A tick swap's quote, segments and the circle it ends on.

    ``fills`` holds each segment as raw ``(liquidity, delta_in, delta_out,
    start, end)``; ``segments`` wraps them when first read. ``end`` is the
    place where the walk ends (see ``_degrees``): an exact angle where it
    lands on a boundary, ends at or below its last segment's start by either
    token's test or past its end by the other token's, or trades nothing
    from a cached angle, and otherwise its end point.
    """

    quote: SwapQuote
    final_liquidity: FixedDecimal
    fills: tuple[tuple[int, int, int, int | _Point, int | _Point], ...]
    end: int | _Point
    mirrored: bool

    @cached_property
    def segments(self) -> tuple[SegmentFill, ...]:
        # every value was range-checked in the walk, so no wrap here raises
        wrap = FixedDecimal.from_raw
        return tuple(
            SegmentFill(index=k, liquidity=wrap(liquidity), delta_in=wrap(step),
                        delta_out=wrap(out), start=start, end=end, mirrored=self.mirrored)
            for k, (liquidity, step, out, start, end) in enumerate(self.fills))

    @cached_property
    def final_angle_deg(self) -> FixedDecimal:
        """The angle where the walk ends, formed on first read."""
        return _degrees(self.end, self.mirrored)


def _boundary_point(params: CurveParams, scale: int, b: int) -> tuple[int, int, int]:
    """(L, round(L cos b), round(L sin b)), L = l * scale: where a walk on the
    two-token circle at raw ``scale`` lands on the raw walk angle ``b``."""
    offset = fp_mul(params.l, FixedDecimal.from_raw(scale)).raw
    cos_b, sin_b = boundary_cos_sin(b)
    return offset, _round_div(offset * cos_b.raw, WAD), _round_div(offset * sin_b.raw, WAD)


def swap_across_ticks(params: CurveParams, ledger: TickLedger, state: PoolState,
                      token_in: int, delta_in: FixedDecimal,
                      token_out: int | None = None) -> TickSwapResult:
    """Trade across tick segments, changing circle at each crossing.

    The pool's scale within a segment is the ledger's active liquidity
    there. Runs of the arc with zero liquidity, or the arc ends, stop the
    trade with an insufficient-liquidity error carrying the partial fill.
    Crossings are supported for two-token pools; n-token pools trade
    pairwise on uniform ledgers. A start must pass ``polar.circle_point``,
    and one off its segment's liquidity must stand on its first boundary.
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
    index = ledger.mirrored_index if mirrored else ledger.index
    raws, totals = index.raws, index.totals
    if params.n > 2 and any(raw not in (0, _NINETY_RAW) for raw in raws):
        raise ValidationError(
            "tick crossings are two-token only; n-dim pools need a uniform ledger"
        )

    # the point (x, y) = circle * (cos phi, sin phi) in walk orientation, in
    # raw units on the pair circle, which for two tokens is the pool's own
    # circle. A two-token state's cached angle keys its segment; any other
    # state's point is the key
    reserves, scale = state.reserves, state.liquidity_scale.raw
    circle_point(params, reserves, state.liquidity_scale)
    offset, radius_sq = _pair_circle(params, state, i, j)
    x, y = offset - reserves[i].raw, offset - reserves[j].raw
    circle = _nearest_isqrt(radius_sq)
    cached = state.angle_deg if params.n == 2 else None

    # the cursor: segment k - 1 holds the start and raws[k] is the next stop;
    # ``here`` is the place the current segment starts from
    if cached is None:
        k = index.point_segment(x, circle)
        here = _Point(x, y, raws[k - 1] if k else None, raws[k] if k < len(raws) else None)
        at_end = x <= 0
    else:
        here = (fp_sub(NINETY, cached) if mirrored else cached).raw
        # a state committed a hair before the start of the walk, where a
        # trade that exhausted the arc left it, trades on the first segment
        k = bisect_right(raws, max(here, 0))
        at_end = here >= _NINETY_RAW
    x_0, y_0 = x, y

    # a start off its segment's circle moves to it only from the segment's
    # first boundary b: a cached b, or a point that the other token's test
    # places on b too (its own test placed it at or above b)
    if k and 0 < totals[k - 1] != scale:
        lo = raws[k - 1]
        on_lo = (here == lo if cached is not None
                 else y * WAD <= circle * boundary_cos_sin(lo)[1].raw)
        if params.n > 2 or not on_lo:
            raise ValidationError("liquidity_scale disagrees with the ledger")
        # a zero trade is the zero quote, and stays where it is
        if delta_in.raw:
            scale, here = totals[k - 1], lo
            offset, x, y = _boundary_point(params, scale, lo)
            circle, radius_sq = offset, offset * offset

    remaining = delta_in.raw
    filled_out = 0
    fills = []
    # a zero trade is the zero quote: no segment, so no rounded root
    while remaining > 0:
        if at_end:
            raise InsufficientLiquidityError(
                "ran out of liquidity at the arc end",
                filled_in=FixedDecimal.from_raw(delta_in.raw - remaining),
                filled_out=FixedDecimal.from_raw(filled_out),
                boundary_angle_deg=_degrees(_NINETY_RAW, mirrored),
            )
        if (totals[k - 1] if k else 0) <= 0:
            raise InsufficientLiquidityError(
                "ran out of liquidity at a dead segment",
                filled_in=FixedDecimal.from_raw(delta_in.raw - remaining),
                filled_out=FixedDecimal.from_raw(filled_out),
                boundary_angle_deg=_degrees(here, mirrored),
            )

        # every position's deltas sum to zero, so no liquidity lies above
        # the last boundary and a live segment always has one above it
        stop = raws[k]
        cos_stop, sin_stop = boundary_cos_sin(stop)
        x_stop = _round_div(circle * cos_stop.raw, WAD)
        capacity = x - x_stop

        if remaining < capacity:
            # the trade ends inside the segment, where no angle is formed.
            # An end that either token's test places at or below the
            # segment's start, as a rounded table point or a loaded pool
            # file's point can be, ends on that start's exact angle; one
            # that the other token's test places past the stop would key the
            # segment above from that token, so it ends on its own angle
            step, x_end = remaining, x - remaining
            y_end = _nearest_isqrt(radius_sq - x_end * x_end)
            lo = raws[k - 1]
            cos_lo, sin_lo = boundary_cos_sin(lo)
            end = _Point(x_end, y_end, lo, stop)
            if x_end * WAD > circle * cos_lo.raw or y_end * WAD <= circle * sin_lo.raw:
                end = lo
            elif y_end * WAD > circle * sin_stop.raw:
                end = _degrees(end, False).raw
        else:
            # the segment fills: land on its boundary
            step, x_end, end = capacity, x_stop, stop
            y_end = _round_div(circle * sin_stop.raw, WAD)
            k += 1
            at_end = stop == _NINETY_RAW
        out = y_end - y
        remaining -= step
        filled_out += out
        # the values of this step whose wraps could overflow, for a state off
        # its arc or circles at the edge of the range, raise as they did
        if capacity < -MAX_RAW or out > MAX_RAW or remaining > MAX_RAW \
                or abs(filled_out) > MAX_RAW:
            raise _range_error()
        fills.append((scale, step, out, here, end))
        here, x, y = end, x_end, y_end
        # a landing goes on from the circle above the boundary, unless that
        # arc is empty: on it, the walk stands on the boundary's table point
        if end == stop and 0 < totals[k - 1] != scale:
            scale = totals[k - 1]
            offset, x, y = _boundary_point(params, scale, stop)
            circle, radius_sq = offset, offset * offset

    new_reserves = list(reserves)
    new_reserves[i] = FixedDecimal.from_raw(offset - x)
    new_reserves[j] = FixedDecimal.from_raw(offset - y)

    # prices are the scale-free cotangent of the trade angle
    if y == 0 or y_0 == 0:
        raise NumericError("price undefined at the arc endpoint")

    quote = SwapQuote(
        token_in=i,
        token_out=j,
        amount_in=FixedDecimal.from_raw(delta_in.raw - remaining),
        amount_out=FixedDecimal.from_raw(filled_out),
        price_before=FixedDecimal.from_raw(_div(x_0, y_0)),
        price_after=FixedDecimal.from_raw(_div(x, y)),
        new_reserves=tuple(new_reserves),
    )
    return TickSwapResult(
        quote=quote,
        final_liquidity=FixedDecimal.from_raw(scale),
        fills=tuple(fills),
        end=here,
        mirrored=mirrored,
    )


def commit_tick_swap(state: PoolState, result: TickSwapResult) -> PoolState:
    """Apply a tick swap: reserves, scale, and an exact end angle.

    A walk whose end is an exact angle (see ``TickSwapResult.end``) caches
    it, and one that ends at a point caches none. A zero trade commits
    nothing. The CLI saves a walk with its ``final_angle_deg`` instead.
    """
    if not result.fills:
        return state
    return PoolState(
        reserves=result.quote.new_reserves,
        liquidity_scale=result.final_liquidity,
        angle_deg=None if isinstance(result.end, _Point) else result.final_angle_deg,
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


def replay(params: CurveParams, ledger: TickLedger, state: PoolState, trades):
    """Apply ``(seq, token_in, token_out, amount)`` trades on the tick route.

    Returns ``(rows, state, max_residual, halted)``: a row ``(seq,
    token_in, token_out, amount, amount_out, |residual|)`` per filled
    trade, the state after the last of them, the largest of those
    residuals (zero for none), and the ``InsufficientLiquidityError``,
    with its partial fill, of the trade that stopped the replay, or None.
    That trade, ``trades[len(rows)]``, commits nothing. A trade that fails
    validation raises its ``ValidationError`` prefixed with ``trade {seq}:``.
    """
    rows = []
    max_residual = ZERO
    for seq, i, j, amount in trades:
        try:
            quote, state, _ = route_swap(params, ledger, state, "ticks", i, j, amount)
        except InsufficientLiquidityError as exc:
            return rows, state, max_residual, exc
        except ValidationError as exc:
            raise ValidationError(f"trade {seq}: {exc}") from None
        residual = abs(invariant_residual(params, state))
        max_residual = max(max_residual, residual)
        rows.append((seq, i, j, amount, quote.amount_out, residual))
    return rows, state, max_residual, None


def gen_trades(params: CurveParams, ledger: TickLedger, state: PoolState,
               count: int, seed: int) -> list[tuple[int, int, int, FixedDecimal]]:
    """A feasible random trade log of ``(seq, token_in, token_out, amount)`` rows.

    Each of ``count`` draws from ``random.Random(seed)`` sells an integer
    percentage (1 to 30) of the input room left on the arc, down to the
    90-degree end, and commits it on the tick route. A draw with no room
    left is skipped, so its seq is missing from the log.
    """
    rng = random.Random(seed)
    rows = []
    for seq in range(1, count + 1):
        i = rng.randrange(params.n)
        j = (i + 1 + rng.randrange(params.n - 1)) % params.n
        room = fp_sub(fp_mul(params.l, state.liquidity_scale), state.reserves[i])
        amount = fp_mul(room, FixedDecimal.from_fraction(rng.randrange(1, 31), 100))
        if amount <= ZERO:
            continue
        _, state, _ = route_swap(params, ledger, state, "ticks", i, j, amount)
        rows.append((seq, i, j, amount))
    return rows
