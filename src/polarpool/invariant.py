"""Trading-function invariants and pool parameterization.

Three curve families share one parameter record:

* circular (``ccmm``): sum_i (x_i - l*s)^2 = (l*s)^2, the offset circle
  that pins liquidity to the axes (default offset l = 2 + sqrt(2));
* superelliptical (``csemm``): sum_i |x_i/alpha_i - 1|^eta(alpha_i) = 1,
  where eta(a) = ln 2 / ln(a/(a-1)) skews the tails per token;
* shifted ellipse (``shifted``): (x-l)^beta + (y/c - l)^beta = l^beta,
  concentrating liquidity around a price peak c.

``liquidity_scale`` multiplies the unit curve: reserves x lie on the scaled
curve iff x/s lies on the unit one. Pools are born on-curve by solving the
scale from the initial reserves. The records here know no file format;
``poolfile`` alone reads and writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .errors import DomainError, NumericError, ShapeError, ValidationError
from .fixed import (
    FixedDecimal,
    LN2,
    ONE,
    SQRT2,
    TWO,
    WAD,
    ZERO,
    fp_add,
    fp_div,
    fp_ln,
    fp_mul,
    fp_pow,
    fp_sqrt,
    fp_sub,
)

F = FixedDecimal

#: residual magnitude at or below this counts as "on-curve" everywhere
ON_CURVE_TOLERANCE = F("0.000000001")

MODES = ("ccmm", "csemm", "shifted")


def default_offset() -> FixedDecimal:
    """Offset parameter 2 + sqrt(2), the circular default."""
    return fp_add(TWO, SQRT2)


@lru_cache(maxsize=None)
def eta(alpha: FixedDecimal) -> FixedDecimal:
    """Tail-skew exponent ln(2) / ln(alpha / (alpha - 1)).

    Defined for alpha > 1 or alpha < 0; the band [0, 1] makes the log
    argument non-positive or the exponent singular. Memoized process-wide:
    a pool has one alpha per token, and every residual, price and swap
    reads their exponents.
    """
    if ZERO <= alpha <= ONE:
        raise DomainError("eta undefined for alpha in [0, 1]")
    ratio = fp_div(alpha, fp_sub(alpha, ONE))
    return fp_div(LN2, fp_ln(ratio))


@dataclass(frozen=True)
class CurveParams:
    """Full invariant parameterization for an n-token pool."""

    n: int = 2
    mode: str = "ccmm"
    l: FixedDecimal = field(default_factory=default_offset)
    alphas: tuple[FixedDecimal, ...] | None = None
    beta: FixedDecimal = field(default_factory=lambda: TWO)
    c: FixedDecimal = field(default_factory=lambda: ONE)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.n < 2:
            raise ValidationError("pool needs at least 2 tokens")
        if self.l <= ZERO:
            raise ValidationError("offset parameter l must be positive")
        if self.mode == "csemm":
            if self.alphas is None or len(self.alphas) != self.n:
                raise ValidationError("csemm mode needs one alpha per token")
            for a in self.alphas:
                if ZERO <= a <= ONE:
                    raise ValidationError(
                        "alpha must be > 1 or < 0 (eta undefined on [0, 1])"
                    )
        if self.mode == "shifted":
            if self.n != 2:
                raise ValidationError("shifted-ellipse mode is two-token only")
            if not (ONE < self.beta <= TWO):
                raise ValidationError("beta must lie in (1, 2]")
            if self.c <= ZERO:
                raise ValidationError("price peak c must be positive")


@dataclass(frozen=True)
class PoolState:
    """Reserve vector plus the active liquidity scale.

    ``angle_deg`` caches the polar angle of two-token circular states so
    tick traversal does not have to re-derive it. ``init`` sets it for
    two-token circular pools and a tick-route commit sets it; a Cartesian
    or polar commit clears it to None, and the angle is then derived from
    the reserves.
    """

    reserves: tuple[FixedDecimal, ...]
    liquidity_scale: FixedDecimal = field(default_factory=lambda: ONE)
    angle_deg: FixedDecimal | None = None

    def __post_init__(self):
        if any(r < ZERO for r in self.reserves):
            raise ValidationError("reserves must be non-negative")
        if self.liquidity_scale <= ZERO:
            raise ValidationError("liquidity scale must be positive")

    def with_reserves(self, reserves) -> "PoolState":
        return replace(self, reserves=tuple(reserves), angle_deg=None)


def token_pair(params: CurveParams, token: int, other: int | None = None
               ) -> tuple[int, int]:
    """Checked pair of distinct token indices of the pool.

    ``other`` defaults to the second token of a two-token pool and is
    required when n > 2.
    """
    if other is None:
        if params.n != 2:
            raise ValidationError("partner token required for pools with n > 2")
        other = 1 - token
    if not (0 <= token < params.n and 0 <= other < params.n) or token == other:
        raise ValidationError("bad token indices")
    return token, other


def ccmm_residual(params: CurveParams, reserves, scale: FixedDecimal = ONE) -> FixedDecimal:
    """sum_i (x_i - l*s)^2 - (l*s)^2; zero means on-curve."""
    reserves = tuple(reserves)
    if len(reserves) != params.n:
        raise ShapeError(f"expected {params.n} reserves, got {len(reserves)}")
    offset = fp_mul(params.l, scale)
    total = ZERO
    for x in reserves:
        d = fp_sub(x, offset)
        total = fp_add(total, fp_mul(d, d))
    return fp_sub(total, fp_mul(offset, offset))


def csemm_residual(params: CurveParams, reserves, scale: FixedDecimal = ONE) -> FixedDecimal:
    """sum_i |x_i/(alpha_i*s) - 1|^eta(alpha_i) - 1."""
    reserves = tuple(reserves)
    if len(reserves) != params.n:
        raise ShapeError(f"expected {params.n} reserves, got {len(reserves)}")
    total = ZERO
    for x, a in zip(reserves, params.alphas):
        u = fp_sub(fp_div(x, fp_mul(a, scale)), ONE)
        total = fp_add(total, fp_pow(abs(u), eta(a)))
    return fp_sub(total, ONE)


def shifted_ellipse_residual(
    params: CurveParams, x: FixedDecimal, y: FixedDecimal, scale: FixedDecimal = ONE
) -> FixedDecimal:
    """|x/s - l|^beta + |y/(c*s) - l|^beta - l^beta on the lower-left branch.

    Fractional beta admits only the branch where both bases are <= 0
    (x/s <= l and y/(c*s) <= l), the trading region; powers are taken on
    absolute values there. Points outside the branch are rejected.
    """
    xs = fp_div(x, scale)
    ys = fp_div(fp_div(y, params.c), scale)
    if xs > params.l or ys > params.l:
        raise DomainError("point outside the lower-left branch of the ellipse")
    bx = fp_sub(params.l, xs)
    by = fp_sub(params.l, ys)
    total = fp_add(fp_pow(bx, params.beta), fp_pow(by, params.beta))
    return fp_sub(total, fp_pow(params.l, params.beta))


def center_curve(x: FixedDecimal, beta: FixedDecimal) -> FixedDecimal:
    """Center locus C(x) = 1 / (1 - (1 - ((x-1)/x)^beta)^(1/beta)) for x > 1."""
    if x <= ONE:
        raise DomainError("center curve defined for x > 1 only")
    t = fp_div(fp_sub(x, ONE), x)
    inner = fp_sub(ONE, fp_pow(t, beta))
    denom = fp_sub(ONE, fp_pow(inner, fp_div(ONE, beta)))
    if denom.is_zero():
        raise NumericError("center curve diverges this close to x = 1")
    return fp_div(ONE, denom)


def price_peak_for_unit_crossing(l: FixedDecimal, beta: FixedDecimal) -> FixedDecimal:
    """Price peak c that makes the shifted ellipse pass through (1, 1).

    Derived from the center curve: c = C(l) / l, which degenerates to
    c = 1 in the circular case beta = 2, l = 2 + sqrt(2).
    """
    return fp_div(center_curve(l, beta), l)


def solve_ccmm_scale(params: CurveParams, reserves) -> FixedDecimal:
    """Liquidity scale putting the given reserves on the circular curve.

    Solves (n-1) B^2 - 2 (sum x) B + sum x^2 = 0 for B = l*s, taking the
    root with every reserve inside the trading region (x_i <= B).
    """
    reserves = tuple(reserves)
    if len(reserves) != params.n:
        raise ShapeError(f"expected {params.n} reserves, got {len(reserves)}")
    if any(r <= ZERO for r in reserves):
        raise ValidationError("on-curve construction needs positive reserves")
    s1 = ZERO
    s2 = ZERO
    for x in reserves:
        s1 = fp_add(s1, x)
        s2 = fp_add(s2, fp_mul(x, x))
    nm1 = F(params.n - 1)
    radicand = fp_sub(fp_mul(s1, s1), fp_mul(nm1, s2))
    if radicand < ZERO:
        raise ValidationError("no circle through these reserves")
    b = fp_div(fp_add(s1, fp_sqrt(radicand)), nm1)
    if any(x > b for x in reserves):
        raise ValidationError("reserves leave the trading region")
    return fp_div(b, params.l)


def _bisect_scale(residual_at, lo: FixedDecimal) -> FixedDecimal:
    """Largest grid scale whose residual is <= 0, searching up from ``lo``.

    The residual must increase with the scale on the trading branch:
    doubling brackets the root within 80 steps and a fixed 140-step
    bisection pins it to the grid.
    """
    if residual_at(lo) > ZERO:
        raise ValidationError("reserves below the trading branch for any scale")
    hi = fp_mul(max(lo, ONE), TWO)
    for _ in range(80):
        if residual_at(hi) > ZERO:
            break
        hi = fp_mul(hi, TWO)
    else:
        raise NumericError("scale bracket search failed")
    for _ in range(140):
        mid = FixedDecimal.from_raw((lo.raw + hi.raw) // 2)
        if mid == lo or mid == hi:
            break
        if residual_at(mid) > ZERO:
            hi = mid
        else:
            lo = mid
    return lo


def solve_csemm_scale(params: CurveParams, reserves) -> FixedDecimal:
    """Liquidity scale putting reserves on the superelliptical curve."""
    reserves = tuple(reserves)
    if params.alphas is None:
        raise ValidationError("csemm scale needs alphas")
    if len(reserves) != params.n:
        raise ShapeError(f"expected {params.n} reserves, got {len(reserves)}")
    lo = ZERO
    for x, a in zip(reserves, params.alphas):
        if a > ONE:
            lo = max(lo, fp_div(x, a))
    if lo.is_zero():
        lo = FixedDecimal.from_raw(1)
    return _bisect_scale(lambda s: csemm_residual(params, reserves, s), lo)


def _div_up(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """a / b rounded up to the grid, for b > 0."""
    return FixedDecimal.from_raw(-(-a.raw * WAD // b.raw))


def solve_shifted_scale(params: CurveParams, reserves) -> FixedDecimal:
    """Liquidity scale putting two reserves on the shifted ellipse."""
    x, y = reserves
    # round up, so that x/lo and y/(c*lo) stay within l exactly and the
    # residual accepts lo as a point on the trading branch
    lo = max(_div_up(x, params.l), _div_up(fp_div(y, params.c), params.l))
    if lo <= ZERO:
        raise ValidationError("on-curve construction needs positive reserves")
    return _bisect_scale(lambda s: shifted_ellipse_residual(params, x, y, s), lo)


def invariant_residual(params: CurveParams, state: PoolState) -> FixedDecimal:
    """Residual of the pool's own invariant at its current scale."""
    if params.mode == "ccmm":
        return ccmm_residual(params, state.reserves, state.liquidity_scale)
    if params.mode == "csemm":
        return csemm_residual(params, state.reserves, state.liquidity_scale)
    x, y = state.reserves
    return shifted_ellipse_residual(params, x, y, state.liquidity_scale)


def spot_price(params: CurveParams, state: PoolState, token_in: int = 0,
               token_out: int = 1) -> FixedDecimal:
    """Marginal price of token_in denominated in token_out.

    Ratio of invariant partial derivatives; positive throughout the
    trading region of every supported mode.
    """
    i, j = token_pair(params, token_in, token_out)
    xs = state.reserves
    s = state.liquidity_scale
    if params.mode == "ccmm":
        offset = fp_mul(params.l, s)
        num = fp_sub(offset, xs[i])
        den = fp_sub(offset, xs[j])
        if den.is_zero():
            raise DomainError("price undefined at the axis point")
        return fp_div(num, den)
    if params.mode == "csemm":
        def gradient(k: int) -> FixedDecimal:
            a = params.alphas[k]
            e = eta(a)
            u = fp_sub(fp_div(xs[k], fp_mul(a, s)), ONE)
            mag = fp_pow(abs(u), fp_sub(e, ONE))
            g = fp_div(fp_mul(e, mag), fp_mul(a, s))
            return g if u >= ZERO else -g

        den = gradient(j)
        if den.is_zero():
            raise DomainError("price undefined at the curve edge")
        return fp_div(gradient(i), den)
    # shifted ellipse, two tokens
    x, y = xs
    bx = fp_sub(params.l, fp_div(x, s))
    by = fp_sub(params.l, fp_div(fp_div(y, params.c), s))
    bm1 = fp_sub(params.beta, ONE)
    den = fp_pow(by, bm1)
    if den.is_zero():
        raise DomainError("price undefined at the curve edge")
    grad_ratio = fp_div(fp_pow(bx, bm1), den)
    price_xy = fp_mul(grad_ratio, params.c)
    return price_xy if (i, j) == (0, 1) else fp_div(ONE, price_xy)
