"""The one exact reference of the tests: every reference quantity once.

Exact integers decide rounded square roots; mpmath, at the precision of
the autouse fixture in ``conftest.py`` or of a test's own ``workdps``
block, serves only where the answer is transcendental. Nothing here calls
the engine's arithmetic, except the hedge marks by wraps: they are the
``FixedDecimal`` operations the engine's raw marks replace, one wrap per
intermediate, which the raw marks must reproduce bit for bit.
"""

import math

import mpmath
from hypothesis import strategies as st

from polarpool.errors import DomainError, ValidationError
from polarpool.fixed import WAD, ZERO, FixedDecimal, fp_add, fp_div, fp_mul, fp_sub
from polarpool.polar import arbitrage_point, boundary_cos_sin


def to_mp(x):
    """A fixed-point value as an mpmath number at the working precision."""
    return mpmath.mpf(x.raw) / WAD


def assert_correctly_rounded(got, exact):
    """``got`` is the grid point nearest ``exact``: within 0.5 quanta, plus
    1e-6 quanta for the reference's own error."""
    err = abs(mpmath.mpf(got.raw) - exact * WAD)
    assert err <= mpmath.mpf("0.500001"), f"{got}: {mpmath.nstr(err, 8)} quanta off"


# raws of every length from lo to hi digits: log-uniform magnitudes, where
# plain st.integers favours small ones
def spread_raws(lo: int, hi: int):
    return st.integers(min_value=lo, max_value=hi).flatmap(
        lambda e: st.integers(min_value=10 ** (e - 1), max_value=10 ** e - 1))


def brute_force_active(ledger, angle):
    """Signed liquidity of every position of ``ledger`` that holds ``angle``,
    summed on raws over the half-open ranges lower <= angle < upper."""
    total = 0
    for p in ledger.positions:
        if p.lower_deg.raw <= angle.raw < p.upper_deg.raw:
            total += p.liquidity.raw if p.side == "long" else -p.liquidity.raw
    return FixedDecimal.from_raw(total)


def integrate_swap_oracle(positions, start_deg: float, delta_in: float,
                          step_deg: float = 1e-4):
    """Float integration of a token-0 sell along the arc.

    ``positions`` are (lower, upper, liquidity) ranges in degrees. Along the
    arc dx = l s(phi) sin(phi) dphi and dy = l s(phi) cos(phi) dphi, with s
    the liquidity of the ranges holding phi: midpoint steps, independent of
    the engine's segment closed forms.
    """
    l = 2 + math.sqrt(2)
    step_rad = math.radians(step_deg)
    phi, consumed, out = start_deg, 0.0, 0.0
    while True:
        assert phi < 90, "oracle hit the arc end"
        mid = phi + step_deg / 2
        s = sum(liq for lo, hi, liq in positions if lo <= mid < hi)
        assert s > 0, "oracle ran out of liquidity"
        dx = l * s * math.sin(math.radians(mid)) * step_rad
        dy = l * s * math.cos(math.radians(mid)) * step_rad
        if consumed + dx >= delta_in:
            return out + dy * ((delta_in - consumed) / dx)
        consumed += dx
        out += dy
        phi += step_deg


def root_within(root: int, n: int, halves: int = 1) -> bool:
    """Whether |root - sqrt(n)| <= halves / 2, decided on integers.

    The same as (2 root - halves)^2 <= 4n <= (2 root + halves)^2, where the
    left side holds outright once 2 root <= halves.
    """
    assert n >= 0
    lo, hi = 2 * root - halves, 2 * root + halves
    return (lo <= 0 or lo * lo <= 4 * n) and hi >= 0 and 4 * n <= hi * hi


def circle_step_within(centre: int, radius_sq: int, moved: int, out: int,
                       halves: int = 1) -> bool:
    """Whether ``out`` lies within halves / 2 quanta of the exact circle step.

    Raw integers: a circle about (centre, centre) of squared radius
    ``radius_sq`` whose in-reserve is ``moved`` puts its out-reserve at
    centre - sqrt(n), n = radius_sq - (centre - moved)^2, exactly.
    """
    return root_within(centre - out, radius_sq - (centre - moved) ** 2, halves)


def three_way_angle(params, ledger, state, result):
    """The angle under which a reload of ``state``, which ``result``
    committed, keys the segments the state keys in memory: the three-way
    rule, against which a nonzero walk's ``final_angle_deg`` is checked.

    A state committed with an angle, or on more than two tokens, keeps the
    final angle. Otherwise each token tests the point against every
    boundary on its own axis, on integers: token 0 places it at or above b
    when x 10^18 <= R cos b, token 1 at or below b when y 10^18 <= R sin b.
    When the tests agree on every boundary, the angle is the final angle;
    when both place the point on one boundary, that boundary; and when
    neither does, None: no angle keys both tokens' segments.
    """
    if params.n > 2 or state.angle_deg is not None:
        return result.final_angle_deg
    offset = fp_mul(params.l, state.liquidity_scale).raw
    x, y = (offset - v.raw for v in state.reserves)
    raws = ledger.index.raws
    table = [boundary_cos_sin(b) for b in raws]
    at_or_above = sum(x * WAD <= offset * cos_b.raw for cos_b, _ in table)
    at_or_below = sum(y * WAD <= offset * sin_b.raw for _, sin_b in table)
    overlap = at_or_above + at_or_below - len(raws)
    if overlap == 0:
        return result.final_angle_deg
    if overlap == 1:
        return FixedDecimal.from_raw(raws[at_or_above - 1])
    return None


class LegMarkByWraps:
    """A hedge band marked wrap by wrap: every intermediate a FixedDecimal."""

    def __init__(self, params, position):
        self.lam_l = fp_mul(position.liquidity, params.l)
        self.cos_lo, self.sin_lo = boundary_cos_sin(position.lower_deg.raw)
        self.cos_hi, self.sin_hi = boundary_cos_sin(position.upper_deg.raw)

    def full_amounts(self):
        return (fp_mul(self.lam_l, fp_sub(self.cos_lo, self.cos_hi)),
                fp_mul(self.lam_l, fp_sub(self.sin_hi, self.sin_lo)))

    def value(self, price, cos_at, sin_at):
        if cos_at >= self.cos_lo:
            cos_at, sin_at = self.cos_lo, self.sin_lo
        elif cos_at <= self.cos_hi:
            cos_at, sin_at = self.cos_hi, self.sin_hi
        x_pos = fp_mul(self.lam_l, fp_sub(self.cos_lo, cos_at))
        y_pos = fp_mul(self.lam_l, fp_sub(self.sin_hi, sin_at))
        return fp_add(fp_mul(price, x_pos), y_pos)


def hedge_payoff_by_wraps(params, long_leg, short_leg, prices):
    """The (price, normalized value) samples of a spread, wrap by wrap."""
    long_mark = LegMarkByWraps(params, long_leg)
    short_mark = LegMarkByWraps(params, short_leg)
    _, y_long = long_mark.full_amounts()
    _, y_short = short_mark.full_amounts()
    no_depeg_level = fp_sub(y_long, y_short)
    scale = -no_depeg_level
    if scale <= ZERO:
        raise ValidationError("degenerate hedge: bands too narrow for the grid")
    samples = []
    for price in prices:
        if price <= ZERO:
            raise DomainError("price must be positive")
        cos_at, sin_at = arbitrage_point(price)
        raw = fp_sub(long_mark.value(price, cos_at, sin_at),
                     short_mark.value(price, cos_at, sin_at))
        samples.append((price, fp_div(fp_sub(raw, no_depeg_level), scale)))
    return tuple(samples)
