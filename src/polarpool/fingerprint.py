"""Liquidity fingerprints and the LP payoff.

The fingerprint is the density of liquidity over log-price tick space
t = ln(price). Closed forms exist for the circular curve,

    L(t) = 2 l e^{3t/2} / (1 + e^{2t})^{3/2},

its elliptical shift by a price peak c, and the superelliptical family in
the equal-exponent case. Dividing by e^{3t/2} turns each into a power of
D = e^x + w e^{-x}, summed unrounded at ``fixed``'s working scale from one
exponential. D^{-3/2} is one correctly rounded integer root and D^{-g} is
exp(-g ln D); the multimodal radius's exact beta-th root is exp(-ln(inner) / beta).

The LP payoff V(p) = min over on-curve reserves of (p x + y) has the
closed form l (p + c - sqrt(p^2 + c^2)) at the arc point parallel to
(p, c); the liquidity density recovered from V via central finite
differences, (V' - u V'') / 2 with u = sqrt(price), reproduces the
fingerprint closed form without referencing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, ValidationError
from .fixed import (
    FixedDecimal,
    HALF_PI,
    ONE,
    TWO,
    WAD,
    ZERO,
    fp_add,
    fp_div,
    fp_exp,
    fp_hypot,
    fp_ln,
    fp_mul,
    fp_sin_cos,
    fp_sub,
)
from .fixed import _ONE, _exp, _from_scaled, _ln, _nearest_isqrt, _range_error, _round_div, _scaled
from .invariant import default_offset, eta

F = FixedDecimal

FINGERPRINT_MODES = ("ccmm", "cemm", "csemm", "multimodal")


@dataclass(frozen=True)
class FingerprintParams:
    """Inputs for the fingerprint family and the multimodal radius."""

    mode: str = "ccmm"
    l: FixedDecimal = field(default_factory=default_offset)
    c: FixedDecimal = field(default_factory=lambda: ONE)
    alpha: FixedDecimal = field(default_factory=default_offset)
    s_x: FixedDecimal = field(default_factory=lambda: ONE)
    s_y: FixedDecimal = field(default_factory=lambda: ONE)
    big_l: FixedDecimal = field(default_factory=lambda: ONE)
    alpha_mm: int = 4

    def __post_init__(self):
        if self.mode not in FINGERPRINT_MODES:
            raise ValidationError(f"unknown fingerprint mode {self.mode!r}")
        if self.l <= ZERO or self.c <= ZERO:
            raise ValidationError("l and c must be positive")
        if self.s_x <= ZERO or self.s_y <= ZERO:
            raise ValidationError("shift scales must be positive")
        if self.alpha_mm < 4 or self.alpha_mm % 2 != 0:
            raise ValidationError("multimodal alpha must be an even integer >= 4")

    @cached_property
    def _csemm_terms(self) -> tuple[FixedDecimal, FixedDecimal, int, FixedDecimal]:
        """ln(s_y / s_x), eta / (2 (eta - 1)), g = (eta + 1) / eta at the working
        scale, and 2 alpha / (eta - 1); a refusal is not cached, so each sample raises it."""
        e = eta(self.alpha)
        em1 = fp_sub(e, ONE)
        if em1.is_zero():
            raise DomainError("fingerprint undefined at eta = 1 (constant-sum limit)")
        return (fp_ln(fp_div(self.s_y, self.s_x)), fp_div(e, fp_mul(TWO, em1)),
                (e.raw + WAD) * _ONE // e.raw, fp_div(fp_mul(TWO, self.alpha), em1))


def _denominator(x: int, weight: FixedDecimal) -> int:
    """D = e^x + weight e^{-x}, unrounded at the working scale of x, with e^{-x} = _ONE^2 // e^x.

    Refused, as the grid values would be, where either term or their grid sum
    passes 1e20, and where that sum is 0 or its -3/2 power passes 1e20 (weight 0).
    """
    if x < -47 * _ONE:  # e^{-x} > 1e20, where e^x may be 0 at the working scale
        raise _range_error()
    e = _exp(x)
    inv = _ONE * _ONE // e
    grid = fp_add(_from_scaled(e), fp_mul(weight, _from_scaled(inv))).raw
    if not grid:
        raise DomainError("0 raised to a negative power")
    if grid ** 3 < 10 ** 14:  # (10^90 / grid^3)^{1/2} rounds past 10^38
        raise _range_error()
    return e + weight.raw * inv // WAD


def fingerprint_ccmm(params: FingerprintParams, t: FixedDecimal) -> FixedDecimal:
    """Circular fingerprint; peaks at t = 0 with value l / sqrt(2)."""
    core = _nearest_isqrt(10 ** 186, _denominator(_scaled(t), ONE) ** 3)  # raw D^{-3/2}
    return F.from_raw(_round_div(fp_mul(TWO, params.l).raw * core, WAD))


def fingerprint_cemm(params: FingerprintParams, t: FixedDecimal) -> FixedDecimal:
    """Elliptical fingerprint with price peak c; c = 1 recovers the circle."""
    c2 = fp_mul(params.c, params.c)
    core = _nearest_isqrt(10 ** 186, _denominator(_scaled(t), c2) ** 3)
    return F.from_raw(_round_div(fp_mul(TWO, fp_mul(c2, params.l)).raw * core, WAD))


def fingerprint_csemm(params: FingerprintParams, t: FixedDecimal) -> FixedDecimal:
    """Equal-exponent superelliptical fingerprint.

    The shift scales enter only through t' = t - ln(s_y / s_x); the
    constant-sum limit eta = 1 has no closed form and is rejected.
    """
    ln_ratio, half_b, g, coeff = params._csemm_terms
    d = _denominator(_scaled(fp_mul(half_b, fp_sub(t, ln_ratio))), ONE)
    return fp_mul(coeff, _from_scaled(_exp(-g * _ln(d) // _ONE)))


def multimodal_radius(params: FingerprintParams, theta: FixedDecimal) -> FixedDecimal:
    """Sinusoidally perturbed radius L / (1 - sin(alpha*theta)^2 / 2)^(1/beta)."""
    sin_a = fp_sin_cos(fp_mul(F(params.alpha_mm), theta))[0]
    inner = fp_sub(ONE, fp_div(fp_mul(sin_a, sin_a), TWO))
    beta = F(params.alpha_mm ** 2).raw // WAD  # the wrap refuses a beta past 1e20
    return fp_mul(params.big_l, _from_scaled(_exp(-_ln(_scaled(inner)) // beta)))


def modality_count(params: FingerprintParams, samples: int = 10_000) -> int:
    """Number of liquidity-density peaks over the price quadrant.

    Density peaks sit where the perturbed radius dips back to its base
    value (the curve is locally closest to the unperturbed circle), so
    the count is the number of strict local minima of the radius on the
    open interval (0, pi/2), with plateaus of equal values merged.
    """
    values = []
    for k in range(1, samples + 1):
        theta = FixedDecimal.from_raw(HALF_PI.raw * k // (samples + 1))
        values.append(multimodal_radius(params, theta).raw)
    # merge runs of equal values, then test strict minima
    runs = []
    for v in values:
        if not runs or runs[-1] != v:
            runs.append(v)
    count = 0
    for idx in range(1, len(runs) - 1):
        if runs[idx] < runs[idx - 1] and runs[idx] < runs[idx + 1]:
            count += 1
    return count


def lp_payoff(params: FingerprintParams, price: FixedDecimal) -> FixedDecimal:
    """LP value V(p) = min over the arc of (p x + y), in closed form.

    On the arc x = l (1 - cos phi), y = c l (1 - sin phi), with c = 1 for
    the circle, p x + y = l (p + c) - l (p cos phi + c sin phi), least where
    (cos phi, sin phi) is parallel to (p, c): V = l (p + c - sqrt(p^2 + c^2)).
    """
    if params.mode not in ("ccmm", "cemm"):
        raise ValidationError("payoff is defined for circular and elliptical modes")
    if price <= ZERO:
        raise DomainError("price must be positive")
    c = params.c if params.mode == "cemm" else ONE
    # l enters each term before the root, not as a factor of its rounding
    lp, lc = fp_mul(params.l, price), fp_mul(params.l, c)
    return fp_sub(fp_add(lp, lc), fp_hypot(lp, lc))


def payoff_fingerprint(params: FingerprintParams, t: FixedDecimal,
                       h: FixedDecimal = F("0.0001")) -> FixedDecimal:
    """Liquidity density recovered numerically from the payoff alone.

    Central finite differences of V on the sqrt-price axis u = e^{t/2}
    give V' and V''; the density at u is (V' - u V'') / 2. Matches the
    closed-form fingerprint up to finite-difference truncation.
    """
    u = fp_exp(fp_div(t, TWO))
    um, up = fp_sub(u, h), fp_add(u, h)
    v_minus = lp_payoff(params, fp_mul(um, um))
    v_0 = lp_payoff(params, fp_mul(u, u))
    v_plus = lp_payoff(params, fp_mul(up, up))
    d1 = fp_div(fp_sub(v_plus, v_minus), fp_mul(TWO, h))
    d2 = fp_div(fp_add(fp_sub(v_plus, fp_mul(TWO, v_0)), v_minus), fp_mul(h, h))
    return fp_div(fp_sub(d1, fp_mul(u, d2)), TWO)
