"""Closed-form Cartesian swap execution.

Every Cartesian trade is one call of :func:`pair_swap`: it moves one
reserve, solves its partner from :func:`other_reserve` (the pair circle,
the superellipse or the shifted ellipse), and holds every other reserve.
Quotes are pure: they report amounts and the post-trade reserve vector
without touching the pool, and a separate :func:`commit` applies them.
Sign convention throughout: a positive delta adds tokens to that reserve,
so the inner argument of every swap formula is the post-trade reserve.
Trades are fee-free and either fill entirely on the feasible arc or fail
with an insufficient-liquidity error; partial fills belong to the tick
layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomainError,
    InsufficientLiquidityError,
    NumericError,
)
from .fixed import (
    FixedDecimal,
    ONE,
    ZERO,
    fp_add,
    fp_div,
    fp_mul,
    fp_pow,
    fp_sqrt,
    fp_sqrt_diff_squares,
    fp_sub,
)
from .invariant import (
    CurveParams,
    ON_CURVE_TOLERANCE,
    PoolState,
    eta,
    invariant_residual,
    spot_price,
    token_pair,
)

F = FixedDecimal


@dataclass(frozen=True)
class SwapQuote:
    """Result of quoting one trade.

    ``amount_in`` is what the trader pays into the pool and ``amount_out``
    what they receive, both positive; prices are the spot price of the
    in-token denominated in the out-token at the old and new reserves.
    """

    token_in: int
    token_out: int
    amount_in: FixedDecimal
    amount_out: FixedDecimal
    price_before: FixedDecimal
    price_after: FixedDecimal
    new_reserves: tuple[FixedDecimal, ...]


def commit(state: PoolState, quote: SwapQuote) -> PoolState:
    """Apply a quote, returning the new pool state."""
    return state.with_reserves(quote.new_reserves)


def effective_pair_circle(params: CurveParams, reserves, scale: FixedDecimal,
                          token_in: int, token_out: int
                          ) -> tuple[FixedDecimal, FixedDecimal]:
    """Center offset and radius of the two-token reduction of an n-pool.

    Holding every other reserve fixed, the circular invariant at ``scale``
    restricts the traded pair to a circle centered at (L, L), L = l * scale,
    with squared radius L^2 - sum_k (x_k - L)^2 over the spectator tokens.
    """
    i, j = token_pair(params, token_in, token_out)
    offset = fp_mul(params.l, scale)
    if params.n == 2:
        return offset, offset
    r2 = fp_mul(offset, offset)
    for k, x in enumerate(reserves):
        if k in (i, j):
            continue
        d = fp_sub(x, offset)
        r2 = fp_sub(r2, fp_mul(d, d))
    if r2 <= ZERO:
        raise InsufficientLiquidityError(
            "insufficient liquidity: spectator reserves exhaust the sphere"
        )
    return offset, fp_sqrt(r2)


def other_reserve(params: CurveParams, state: PoolState, token: int, other: int,
                  value: FixedDecimal) -> FixedDecimal:
    """Reserve of ``other`` on the trading branch when ``token`` holds ``value``.

    Every reserve but the two named ones is taken from ``state``, as is the
    liquidity scale. Values off the trading branch raise DomainError.
    """
    s = state.liquidity_scale
    if params.mode == "ccmm":
        offset, radius = effective_pair_circle(params, state.reserves, s, token, other)
        d = fp_sub(offset, value)
        if value < ZERO or value > offset or d > radius:
            raise DomainError("reserve outside the circular arc")
        return fp_sub(offset, fp_sqrt_diff_squares(radius, d))
    if value < ZERO:
        raise DomainError("negative reserve")
    if params.mode == "csemm":
        a_k, a_o = params.alphas[token], params.alphas[other]
        unit = fp_div(value, s)
        if a_k > ONE and unit > a_k:
            raise DomainError("reserve beyond the trading arc (negative price region)")
        t = fp_pow(abs(fp_sub(fp_div(unit, a_k), ONE)), eta(a_k))
        inner = fp_sub(ONE, t)
        # the spectators' terms, in csemm_residual's form, stay fixed
        for k, (x, a) in enumerate(zip(state.reserves, params.alphas)):
            if k not in (token, other):
                u = fp_sub(fp_div(x, fp_mul(a, s)), ONE)
                inner = fp_sub(inner, fp_pow(abs(u), eta(a)))
        if inner < ZERO:
            raise DomainError("off-curve request: |x/alpha - 1|^eta exceeds 1")
        w = fp_pow(inner, fp_div(ONE, eta(a_o)))
        return fp_mul(fp_mul(-a_o, fp_sub(w, ONE)), s)
    # shifted ellipse: (l - x/s)^beta + (l - y/(c*s))^beta = l^beta
    l, beta = params.l, params.beta
    unit = fp_div(value, s) if token == 0 else fp_div(fp_div(value, params.c), s)
    if unit > l:
        raise DomainError("reserve beyond the lower-left branch of the ellipse")
    inner = fp_sub(fp_pow(l, beta), fp_pow(fp_sub(l, unit), beta))
    other_unit = fp_mul(fp_sub(l, fp_pow(inner, fp_div(ONE, beta))), s)
    return fp_mul(params.c, other_unit) if other == 1 else other_unit


def ccmm_y_of_x(params: CurveParams, x: FixedDecimal,
                scale: FixedDecimal = ONE) -> FixedDecimal:
    """Lower-arc solution y = L - sqrt(L^2 - (x - L)^2) with L = l * scale."""
    return other_reserve(params, PoolState((ZERO, ZERO), scale), 0, 1, x)


def csemm_y_of_x(params: CurveParams, x: FixedDecimal,
                 scale: FixedDecimal = ONE) -> FixedDecimal:
    """Superellipse lower branch: y from x on the trading arc."""
    return other_reserve(params, PoolState((ZERO, ZERO), scale), 0, 1, x)


def _verify_on_curve(params: CurveParams, state: PoolState):
    if abs(invariant_residual(params, state)) > ON_CURVE_TOLERANCE:
        raise NumericError("swap left the curve beyond tolerance")


def pair_swap(params: CurveParams, state: PoolState, token: int,
              delta: FixedDecimal, other: int | None = None) -> SwapQuote:
    """Trade one pair of reserves along the curve, all others held fixed.

    ``delta`` is the signed change of reserve ``token``: positive sells
    that token into the pool for ``other``, negative buys it out of the
    pool and solves what ``other`` must pay. ``other`` defaults to the
    second token of a two-token pool and is required when n > 2.
    """
    token, other = token_pair(params, token, other)
    token_in, token_out = (token, other) if delta >= ZERO else (other, token)
    if delta.is_zero():
        price = spot_price(params, state, token_in, token_out)
        return SwapQuote(
            token_in=token_in,
            token_out=token_out,
            amount_in=ZERO,
            amount_out=ZERO,
            price_before=price,
            price_after=price,
            new_reserves=state.reserves,
        )
    reserves = list(state.reserves)
    value = fp_add(reserves[token], delta)
    try:
        partner = other_reserve(params, state, token, other, value)
    except DomainError as exc:
        raise InsufficientLiquidityError(f"insufficient liquidity: {exc}") from None
    if delta > ZERO:
        amount_in, amount_out = delta, fp_sub(reserves[other], partner)
    else:
        amount_in, amount_out = fp_sub(partner, reserves[other]), -delta
    reserves[token], reserves[other] = value, partner
    new_state = state.with_reserves(reserves)
    _verify_on_curve(params, new_state)
    return SwapQuote(
        token_in=token_in,
        token_out=token_out,
        amount_in=amount_in,
        amount_out=amount_out,
        price_before=spot_price(params, state, token_in, token_out),
        price_after=spot_price(params, new_state, token_in, token_out),
        new_reserves=new_state.reserves,
    )
