"""Float and mpmath reference models of what the engine computes.

Nothing here imports ``polarpool``. The benchmark sizes its inputs with
these models and checks every engine output against them, so both the
inputs and the oracle stay the same whichever engine version runs.

Angles are in degrees, as on the engine's command line. Tolerances are far
above float rounding (about 1e-15 here) and far below any real defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal

import mpmath

REL_TOL = 1e-9
ABS_TOL = 1e-12
RESIDUAL_LIMIT = 1e-9

_QUANTUM = Decimal(1).scaleb(-18)
DEFAULT_L = 2 + math.sqrt(2)
DEFAULT_L_TEXT = "3.414213562373095049"  # 2 + sqrt(2) on the 18-digit grid
HALF_PI_RAW = 1570796326794896619  # pi/2 on the 18-digit grid, in 10^-18 units


class OracleError(AssertionError):
    """An engine output disagrees with the reference model."""


def close(got: float, want: float, what: str, rel: float = REL_TOL,
          abs_tol: float = ABS_TOL) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        raise OracleError(f"{what}: engine {got!r}, model {want!r}")


def fixed_text(value) -> str:
    """An mpmath number as a plain decimal string with 18 fractional digits."""
    return format(Decimal(mpmath.nstr(value, 40, strip_zeros=False)).quantize(_QUANTUM), "f")


def amount_text(value: float) -> str:
    """A trade amount rounded to 12 decimals, as the bench writes inputs."""
    return f"{value:.12f}"


def sample_grid(lo: str, hi: str, n: int) -> list[Decimal]:
    """The CLI's sample grid: lo + floor(span * k / (n - 1)) on the 18-digit grid."""
    lo_raw = int(Decimal(lo).scaleb(18))
    span = int(Decimal(hi).scaleb(18)) - lo_raw
    return [Decimal(lo_raw + span * k // (n - 1)).scaleb(-18) for k in range(n)]


# -- pools -------------------------------------------------------------------


@dataclass
class Pool:
    """A pool as the reference model sees it: floats, plus ledger deltas."""

    n: int
    mode: str
    l: float
    reserves: list[float]
    scale: float
    angle: float | None = None  # canonical degrees, cached as the engine does
    alphas: tuple[float, ...] | None = None
    beta: float = 2.0
    c: float = 1.0
    deltas: list[tuple[float, float]] = field(default_factory=list)

    def copy(self) -> "Pool":
        return replace(self, reserves=list(self.reserves))

    @property
    def offset(self) -> float:
        return self.l * self.scale


def ledger_deltas(positions) -> list[tuple[float, float]]:
    """Sorted (boundary angle, liquidity change crossing upward) pairs.

    Sums are exact, as the engine's are, so a boundary where positions
    cancel is dropped here too rather than left with a float remainder.
    """
    deltas: dict[Decimal, Decimal] = {}
    for lower, upper, liquidity in positions:
        deltas[lower] = deltas.get(lower, Decimal(0)) + liquidity
        deltas[upper] = deltas.get(upper, Decimal(0)) - liquidity
    return sorted((float(a), float(d)) for a, d in deltas.items() if d != 0)


def pool_document(*, n, mode="ccmm", l=DEFAULT_L_TEXT, alphas=None, beta="2",
                  c="1", reserves, scale, angle=None, spacing="1",
                  positions=()) -> dict:
    """A format_version 1 pool file. Positions are (id, lower, upper, liquidity)."""
    return {
        "alphas": list(alphas) if alphas else None,
        "angle_deg": angle,
        "beta": beta,
        "c": c,
        "format_version": 1,
        "l": l,
        "liquidity_scale": scale,
        "mode": mode,
        "n": n,
        "positions": [
            {"id": pid, "liquidity": liq, "lower_deg": lo, "side": "long", "upper_deg": hi}
            for pid, lo, hi, liq in positions
        ],
        "reserves": list(reserves),
        "tick_spacing_deg": spacing,
    }


def pool_from_document(doc: dict) -> Pool:
    positions = [(Decimal(p["lower_deg"]), Decimal(p["upper_deg"]),
                  Decimal(p["liquidity"]) * (1 if p.get("side", "long") == "long" else -1))
                 for p in doc["positions"]]
    return Pool(
        n=int(doc["n"]),
        mode=doc["mode"],
        l=float(doc["l"]),
        reserves=[float(r) for r in doc["reserves"]],
        scale=float(doc["liquidity_scale"]),
        angle=float(doc["angle_deg"]) if doc.get("angle_deg") else None,
        alphas=tuple(float(a) for a in doc["alphas"]) if doc.get("alphas") else None,
        beta=float(doc["beta"]),
        c=float(doc["c"]),
        deltas=ledger_deltas(positions),
    )


def arc_reserves(l_text: str, scale_text: str, angle_deg) -> tuple[str, str]:
    """Exact-to-the-grid reserves of a two-token circle at an angle (mpmath)."""
    with mpmath.workdps(40):
        offset = mpmath.mpf(l_text) * mpmath.mpf(scale_text)
        rad = mpmath.mpf(angle_deg) * mpmath.pi / 180
        return (fixed_text(offset * (1 - mpmath.cos(rad))),
                fixed_text(offset * (1 - mpmath.sin(rad))))


def sphere_reserves(l_text: str, scale_text: str, x0, x1) -> tuple[str, str, str]:
    """Three-token circular reserves with the first two given (mpmath)."""
    with mpmath.workdps(40):
        offset = mpmath.mpf(l_text) * mpmath.mpf(scale_text)
        a, b = mpmath.mpf(x0), mpmath.mpf(x1)
        x2 = offset - mpmath.sqrt(offset ** 2 - (a - offset) ** 2 - (b - offset) ** 2)
        return fixed_text(a), fixed_text(b), fixed_text(x2)


def residual(pool: Pool) -> float:
    """The pool's own invariant residual, in float."""
    s = pool.scale
    if pool.mode == "ccmm":
        o = pool.offset
        return sum((x - o) ** 2 for x in pool.reserves) - o * o
    if pool.mode == "csemm":
        return sum(abs(x / (a * s) - 1) ** eta(a)
                   for x, a in zip(pool.reserves, pool.alphas)) - 1
    x, y = pool.reserves
    return ((pool.l - x / s) ** pool.beta + (pool.l - y / (pool.c * s)) ** pool.beta
            - pool.l ** pool.beta)


# -- closed-form swaps -------------------------------------------------------


@dataclass
class Quote:
    token_in: int
    token_out: int
    amount_in: float
    amount_out: float
    price_before: float
    price_after: float
    new_reserves: list[float]
    segments: int | None = None
    final_angle: float | None = None
    final_scale: float | None = None


def eta(alpha: float) -> float:
    return math.log(2) / math.log(alpha / (alpha - 1))


def pair_circle(pool: Pool, i: int, j: int, scale: float | None = None):
    """Center offset and radius of the traded pair's circle."""
    offset = pool.l * (pool.scale if scale is None else scale)
    r2 = offset * offset
    for k, x in enumerate(pool.reserves):
        if k not in (i, j):
            r2 -= (x - offset) ** 2
    return offset, math.sqrt(r2)


def _price_ratio(offset, xi, xj):
    return (offset - xi) / (offset - xj)


def circle_exact_in(pool: Pool, i: int, j: int, amount: float) -> Quote:
    """Cartesian or polar exact-in swap on a circular pool (any n)."""
    offset, radius = pair_circle(pool, i, j)
    xs = list(pool.reserves)
    x_new = xs[i] + amount
    y_new = offset - math.sqrt(radius * radius - (x_new - offset) ** 2)
    before = _price_ratio(offset, xs[i], xs[j])
    out = xs[j] - y_new
    xs[i], xs[j] = x_new, y_new
    return Quote(i, j, amount, out, before, _price_ratio(offset, x_new, y_new), xs)


def circle_exact_out(pool: Pool, i: int, j: int, amount: float) -> Quote:
    """Two-token circle: take ``amount`` of token j out, pay token i in."""
    offset = pool.offset
    xs = list(pool.reserves)
    y_new = xs[j] - amount
    x_new = offset - math.sqrt(offset * offset - (y_new - offset) ** 2)
    before = _price_ratio(offset, xs[i], xs[j])
    paid = x_new - xs[i]
    xs[i], xs[j] = x_new, y_new
    return Quote(i, j, paid, amount, before, _price_ratio(offset, x_new, y_new), xs)


def csemm_other(pool: Pool, known: int, value: float) -> float:
    """The other reserve on the superellipse's trading branch (true inverse).

    The engine solves x from y with the printed formula, which equals this
    only when the two alphas are equal.
    """
    s = pool.scale
    a_known, a_other = pool.alphas[known], pool.alphas[1 - known]
    t = abs(value / (a_known * s) - 1) ** eta(a_known)
    return a_other * s * (1 - (1 - t) ** (1 / eta(a_other)))


def csemm_price(pool: Pool, reserves, i: int, j: int) -> float:
    s = pool.scale

    def gradient(k):
        a = pool.alphas[k]
        e = eta(a)
        u = reserves[k] / (a * s) - 1
        g = e * abs(u) ** (e - 1) / (a * s)
        return g if u >= 0 else -g

    return gradient(i) / gradient(j)


def _pair_quote(pool, x_new, y_new, price) -> Quote:
    x_old, y_old = pool.reserves
    dx, dy = x_new - x_old, y_new - y_old
    if dx >= 0:
        i, j, paid, got = 0, 1, dx, -dy
    else:
        i, j, paid, got = 1, 0, dy, -dx
    new = [x_new, y_new]
    return Quote(i, j, paid, got, price(pool.reserves, i, j), price(new, i, j), new)


def csemm_swap(pool: Pool, token: int, delta: float) -> Quote:
    """Superellipse swap given the signed change of one reserve."""
    xs = list(pool.reserves)
    xs[token] += delta
    other = csemm_other(pool, token, xs[token])
    x_new, y_new = (xs[0], other) if token == 0 else (other, xs[1])
    return _pair_quote(pool, x_new, y_new, lambda r, i, j: csemm_price(pool, r, i, j))


def shifted_swap(pool: Pool, token: int, delta: float) -> Quote:
    """Shifted-ellipse swap given the signed change of one reserve."""
    s, l, b, c = pool.scale, pool.l, pool.beta, pool.c
    xs = list(pool.reserves)
    xs[token] += delta
    if token == 0:
        inner = l ** b - (l - xs[0] / s) ** b
        xs[1] = c * s * (l - inner ** (1 / b))
    else:
        inner = l ** b - (l - xs[1] / (c * s)) ** b
        xs[0] = s * (l - inner ** (1 / b))

    def price(r, i, j):
        bx = l - r[0] / s
        by = l - r[1] / (c * s)
        p = (bx / by) ** (b - 1) * c
        return p if (i, j) == (0, 1) else 1 / p

    return _pair_quote(pool, xs[0], xs[1], price)


def swap_quote(pool: Pool, route: str, i: int, j: int, amount: float,
               exact_out: bool = False) -> Quote:
    """What ``quote`` prints for one route, computed in float."""
    if route == "ticks":
        return tick_swap(pool, i, j, amount)
    if pool.mode == "ccmm":
        if exact_out:
            return circle_exact_out(pool, 1 - j, j, amount)
        return circle_exact_in(pool, i, j, amount)
    swap = csemm_swap if pool.mode == "csemm" else shifted_swap
    if exact_out:
        return swap(pool, j, -amount)
    return swap(pool, i, amount)


def apply(pool: Pool, route: str, quote: Quote) -> Pool:
    """The pool after ``swap`` commits a quote."""
    out = pool.copy()
    out.reserves = list(quote.new_reserves)
    if route == "ticks":
        out.scale = quote.final_scale
        out.angle = quote.final_angle
    else:
        out.angle = None
    return out


# -- tick traversal ----------------------------------------------------------


class Infeasible(Exception):
    pass


def _active(deltas, angle: float, below: bool) -> float:
    """Liquidity on [angle, next) or, with ``below``, on [previous, angle)."""
    total = 0.0
    for a, d in deltas:
        if a > angle or (below and a == angle):
            break
        total += d
    return total


def state_angle(pool: Pool) -> float:
    """Canonical polar angle of a two-token circular pool."""
    if pool.angle is not None:
        return pool.angle
    o = pool.offset
    x, y = pool.reserves
    return math.degrees(math.atan2(o - y, o - x))


def tick_swap(pool: Pool, i: int, j: int, amount: float) -> Quote:
    """Trade across tick segments, as ``--route ticks`` and ``replay`` do."""
    flip = pool.n == 2 and (i, j) == (1, 0)
    xs = list(pool.reserves)
    if pool.n == 2:
        canon = state_angle(pool)
        phi = 90.0 - canon if flip else canon
        stops = sorted(90.0 - a if flip else a for a, _ in pool.deltas)
    else:
        base = _active(pool.deltas, 0.0, False)
        offset, radius = pair_circle(pool, i, j, base)
        phi = math.degrees(math.acos((offset - xs[i]) / radius))
        stops = []

    def scale_at(trade_angle):
        if pool.n > 2:
            return base
        if flip:
            return _active(pool.deltas, 90.0 - trade_angle, True)
        return _active(pool.deltas, trade_angle, False)

    def circle(scale):
        if pool.n == 2:
            return pool.l * scale, pool.l * scale
        return offset, radius

    start = phi
    remaining, filled_in, filled_out, segments = amount, 0.0, 0.0, 0
    while True:
        scale = scale_at(phi)
        if scale <= 0:
            raise Infeasible("dead segment")
        _, r = circle(scale)
        stop = next((a for a in stops if a > phi), 90.0)
        cos_phi, sin_phi = math.cos(math.radians(phi)), math.sin(math.radians(phi))
        capacity = r * (cos_phi - math.cos(math.radians(stop)))
        segments += 1
        if remaining <= capacity:
            end = math.acos(cos_phi - remaining / r)
            filled_out += r * (math.sin(end) - sin_phi)
            filled_in += remaining
            phi = math.degrees(end)
            break
        filled_out += r * (math.sin(math.radians(stop)) - sin_phi)
        filled_in += capacity
        remaining -= capacity
        phi = stop
        if stop >= 90.0:
            raise Infeasible("arc end")
    final_scale = scale_at(phi) if phi < 90.0 else 0.0
    if final_scale <= 0:
        final_scale = scale
    o, r = circle(final_scale)
    rad = math.radians(phi)
    xs[i] = o - r * math.cos(rad)
    xs[j] = o - r * math.sin(rad)
    cot = lambda a: math.cos(math.radians(a)) / math.sin(math.radians(a))  # noqa: E731
    return Quote(i, j, filled_in, filled_out, cot(start), cot(phi), xs,
                 segments=segments, final_angle=90.0 - phi if flip else phi,
                 final_scale=final_scale)


def amount_to_angle(pool: Pool, target: float) -> tuple[int, int, float]:
    """Token pair and input that move a two-token ledger pool to ``target``.

    Selling token 0 raises the canonical angle and selling token 1 lowers
    it; the input is the sum of segment capacities on the way.
    """
    canon = state_angle(pool)
    i, j = (0, 1) if target > canon else (1, 0)
    flip = i == 1
    phi, goal = (90.0 - canon, 90.0 - target) if flip else (canon, target)
    stops = sorted(90.0 - a if flip else a for a, _ in pool.deltas)
    total = 0.0
    while phi < goal:
        scale = (_active(pool.deltas, 90.0 - phi, True) if flip
                 else _active(pool.deltas, phi, False))
        stop = min(next((a for a in stops if a > phi), 90.0), goal)
        total += pool.l * scale * (math.cos(math.radians(phi)) - math.cos(math.radians(stop)))
        phi = stop
    return i, j, total


# -- curves ------------------------------------------------------------------


def hedge_curve(strike: float, width: float, prices, l: float = DEFAULT_L) -> list[float]:
    """Normalized long-minus-short depeg spread, as ``hedge`` prints it."""
    angle = 90.0 / (strike + 1.0)
    strike_angle = math.floor(angle / width + 0.5) * width
    long_lo, long_hi = strike_angle, strike_angle + width
    short_lo, short_hi = strike_angle - width, strike_angle
    rad = math.radians

    def band(lo, hi):
        return math.cos(rad(lo)) - math.cos(rad(hi)), math.sin(rad(hi)) - math.sin(rad(lo))

    x_long, y_long = band(long_lo, long_hi)
    x_short_unit, y_short_unit = band(short_lo, short_hi)
    short_liq = x_long / x_short_unit  # long leg has liquidity 1, l cancels
    no_depeg = l * (y_long - short_liq * y_short_unit)
    scale = -no_depeg

    def value(liq, lo, hi, price, arb):
        at = min(max(arb, lo), hi)
        x = liq * l * (math.cos(rad(lo)) - math.cos(rad(at)))
        y = liq * l * (math.sin(rad(hi)) - math.sin(rad(at)))
        return price * x + y

    out = []
    for p in prices:
        arb = math.degrees(math.atan2(1.0, p))
        raw = value(1.0, long_lo, long_hi, p, arb) - value(short_liq, short_lo, short_hi, p, arb)
        out.append((raw - no_depeg) / scale)
    return out


def fingerprint(mode: str, t: float, *, l=DEFAULT_L, c=1.0, alpha=4.0, s_x=1.0,
                s_y=1.0) -> float:
    """Closed-form liquidity fingerprints (circle, ellipse, superellipse)."""
    if mode == "ccmm":
        return 2 * l * (math.exp(t) + math.exp(-t)) ** -1.5
    if mode == "cemm":
        c2 = c * c
        return 2 * c2 * l * (math.exp(t) + c2 * math.exp(-t)) ** -1.5
    e = eta(alpha)
    half_b = e / (2 * (e - 1))
    u = half_b * (t - math.log(s_y / s_x))
    return 2 * alpha / (e - 1) * (math.exp(u) + math.exp(-u)) ** (-(e + 1) / e)


def multimodal_radius(alpha: int, theta: float, big_l: float = 1.0) -> float:
    s = math.sin(alpha * theta)
    return big_l * (1 - s * s / 2) ** (-1.0 / (alpha * alpha))


def modality(values) -> int:
    """Strict interior local minima after merging runs of equal values."""
    runs = []
    for v in values:
        if not runs or runs[-1] != v:
            runs.append(v)
    return sum(1 for k in range(1, len(runs) - 1)
               if runs[k] < runs[k - 1] and runs[k] < runs[k + 1])


def lp_payoff(price: float, l: float = DEFAULT_L, c: float = 1.0) -> float:
    """min over the arc of (p x + y): l (p + c - sqrt(p^2 + c^2))."""
    return l * (price + c - math.hypot(price, c))
