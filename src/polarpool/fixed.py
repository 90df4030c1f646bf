"""Deterministic fixed-point decimal arithmetic.

All public math in this package flows through :class:`FixedDecimal`, a
signed integer count of 10^-18 units (18 fractional digits, the WAD
convention used by on-chain math libraries). Floating point is banned from
the engine because float transcendentals are not bit-reproducible across
hardware and libm versions; everything here is integer arithmetic plus the
stdlib ``decimal`` module, which is a software implementation with
platform-independent results.

Rounding is round-half-even at the 18th fractional digit everywhere, which
keeps bias from accumulating over long swap sequences. Addition and
subtraction are exact; multiplication and division round once.

Transcendentals (sqrt, pow, ln, exp, sin, cos, atan2) are evaluated in a
42-digit decimal working context and quantized once to the 18-digit grid,
so the public results carry at most one final rounding. Relative accuracy
against a high-precision reference is better than 1e-15 whenever the
result is large enough for the 10^-18 grid to resolve it; tiny results are
correct to the representation floor of one quantum.
"""

from __future__ import annotations

from decimal import Context, Decimal, InvalidOperation, Overflow, ROUND_HALF_EVEN
from functools import lru_cache
from math import isqrt

from .errors import DomainError, RangeError

__all__ = [
    "FixedDecimal",
    "DECIMALS",
    "WAD",
    "ZERO",
    "ONE",
    "TWO",
    "PI",
    "HALF_PI",
    "SQRT2",
    "LN2",
    "fp_add",
    "fp_sub",
    "fp_mul",
    "fp_div",
    "fp_sqrt",
    "fp_sqrt_diff_squares",
    "fp_hypot",
    "fp_unit",
    "fp_pow",
    "fp_ln",
    "fp_exp",
    "fp_sin",
    "fp_cos",
    "fp_sin_cos",
    "fp_asin",
    "fp_acos",
    "fp_atan2",
]

# Single scale constant; change here to compile an alternate grid.
DECIMALS = 18
WAD = 10 ** DECIMALS

# Representable range: |value| <= 1e20, i.e. |raw| <= 1e38. Anything beyond
# is reported as overflow, never wrapped.
MAX_RAW = 10 ** (DECIMALS + 20)

# Working context for transcendental evaluation. 42 significant digits keep
# intermediate error at least 20 digits below the output grid.
_PREC = 42
_CTX = Context(prec=_PREC, rounding=ROUND_HALF_EVEN, Emin=-425, Emax=425)
# Working context of the inverse trigonometric functions.
_TRIG_CTX = Context(prec=_PREC + 10, rounding=ROUND_HALF_EVEN, Emin=-999, Emax=999)
_QUANTUM = Decimal(1).scaleb(-DECIMALS)

# pi to 111 digits; enough guard digits to reduce any in-range angle.
_PI_STR = (
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798214808651"
)


def _round_div(n: int, d: int) -> int:
    """Divide integers rounding half to even. Requires d > 0."""
    q, r = divmod(n, d)
    twice = 2 * r
    if twice > d or (twice == d and q & 1):
        q += 1
    return q


def _check_raw(raw: int) -> int:
    if raw > MAX_RAW or raw < -MAX_RAW:
        raise RangeError("fixed-point overflow: |value| exceeds 1e20")
    return raw


class FixedDecimal:
    """Immutable signed decimal with 18 fractional digits.

    Construct from an ``int`` (whole units), a decimal string with at most
    18 fractional digits, or another :class:`FixedDecimal`. Strings with
    exponent notation or excess digits are rejected rather than silently
    rounded; use :meth:`from_fraction` for a correctly rounded ratio.
    """

    __slots__ = ("raw",)

    def __init__(self, value: "int | str | FixedDecimal" = 0):
        if isinstance(value, FixedDecimal):
            raw = value.raw
        elif isinstance(value, int):
            raw = value * WAD
        elif isinstance(value, str):
            raw = _parse_decimal_string(value)
        else:
            raise TypeError(
                f"FixedDecimal accepts int, str, or FixedDecimal, not {type(value).__name__}"
            )
        object.__setattr__(self, "raw", _check_raw(raw))

    @classmethod
    def from_raw(cls, raw: int) -> "FixedDecimal":
        """Wrap a raw 10^-18 unit count without scaling."""
        out = object.__new__(cls)
        object.__setattr__(out, "raw", _check_raw(raw))
        return out

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int) -> "FixedDecimal":
        """Correctly rounded value of numerator/denominator."""
        if denominator == 0:
            raise DomainError("division by zero")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        return cls.from_raw(_round_div(numerator * WAD, denominator))

    # -- conversions ------------------------------------------------------

    def __str__(self) -> str:
        sign = "-" if self.raw < 0 else ""
        units, frac = divmod(abs(self.raw), WAD)
        if frac == 0:
            return f"{sign}{units}"
        digits = f"{frac:018d}".rstrip("0")
        return f"{sign}{units}.{digits}"

    def __repr__(self) -> str:
        return f"FixedDecimal('{self}')"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "FixedDecimal") -> "FixedDecimal":
        return fp_add(self, other)

    def __sub__(self, other: "FixedDecimal") -> "FixedDecimal":
        return fp_sub(self, other)

    def __mul__(self, other: "FixedDecimal") -> "FixedDecimal":
        return fp_mul(self, other)

    def __truediv__(self, other: "FixedDecimal") -> "FixedDecimal":
        return fp_div(self, other)

    def __neg__(self) -> "FixedDecimal":
        return FixedDecimal.from_raw(-self.raw)

    def __abs__(self) -> "FixedDecimal":
        return FixedDecimal.from_raw(abs(self.raw))

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FixedDecimal) and self.raw == other.raw

    def __lt__(self, other: "FixedDecimal") -> bool:
        return self.raw < other.raw

    def __le__(self, other: "FixedDecimal") -> bool:
        return self.raw <= other.raw

    def __gt__(self, other: "FixedDecimal") -> bool:
        return self.raw > other.raw

    def __ge__(self, other: "FixedDecimal") -> bool:
        return self.raw >= other.raw

    def __hash__(self) -> int:
        return hash(("FixedDecimal", self.raw))

    def __setattr__(self, name, value):
        raise AttributeError("FixedDecimal is immutable")

    def is_zero(self) -> bool:
        return self.raw == 0

    def is_integer(self) -> bool:
        return self.raw % WAD == 0


def _parse_decimal_string(text: str) -> int:
    s = text.strip()
    if not s:
        raise DomainError("empty decimal string")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:]
    if "e" in s or "E" in s:
        raise DomainError(f"exponent notation not accepted: {text!r}")
    units, _, frac = s.partition(".")
    if not units and not frac:
        raise DomainError(f"not a decimal string: {text!r}")
    units = units or "0"
    if not units.isdigit() or (frac and not frac.isdigit()):
        raise DomainError(f"not a decimal string: {text!r}")
    if len(frac) > DECIMALS:
        raise DomainError(
            f"more than {DECIMALS} fractional digits in {text!r}; "
            "use FixedDecimal.from_fraction for rounded construction"
        )
    frac_raw = int(frac) * 10 ** (DECIMALS - len(frac)) if frac else 0
    return sign * (int(units) * WAD + frac_raw)


# -- basic operations -----------------------------------------------------


def fp_add(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """Exact sum; raises RangeError on overflow."""
    return FixedDecimal.from_raw(a.raw + b.raw)


def fp_sub(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """Exact difference; raises RangeError on overflow."""
    return FixedDecimal.from_raw(a.raw - b.raw)


def fp_mul(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """Product rounded half-even at the 18th fractional digit."""
    return FixedDecimal.from_raw(_round_div(a.raw * b.raw, WAD))


def fp_div(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """Quotient rounded half-even at the 18th fractional digit."""
    if b.raw == 0:
        raise DomainError("division by zero")
    n, d = a.raw * WAD, b.raw
    if d < 0:
        n, d = -n, -d
    return FixedDecimal.from_raw(_round_div(n, d))


def fp_sqrt(a: FixedDecimal) -> FixedDecimal:
    """Square root, correctly rounded to the nearest representable value.

    Uses exact integer arithmetic (isqrt of raw * 10^18), so the result is
    the closest grid point to the true root; monotone by construction.
    """
    if a.raw < 0:
        raise DomainError("sqrt of negative value")
    return FixedDecimal.from_raw(_nearest_isqrt(a.raw * WAD))


def fp_sqrt_diff_squares(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """sqrt(a^2 - b^2) for |b| <= |a|, correctly rounded.

    The radicand is exact in squared raw units, so the result carries one
    rounding. fp_sqrt of a rounded a^2 - b^2 would carry two, the first
    amplified by 1 / (2 sqrt(a^2 - b^2)) as |b| nears |a|.
    """
    n = a.raw * a.raw - b.raw * b.raw
    if n < 0:
        raise DomainError("sqrt(a^2 - b^2) needs |b| <= |a|")
    return FixedDecimal.from_raw(_nearest_isqrt(n))


def fp_hypot(a: FixedDecimal, b: FixedDecimal) -> FixedDecimal:
    """sqrt(a^2 + b^2), correctly rounded from the exact radicand."""
    return FixedDecimal.from_raw(_nearest_isqrt(a.raw * a.raw + b.raw * b.raw))


def fp_unit(a: FixedDecimal, b: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """(a, b) / sqrt(a^2 + b^2) for a, b >= 0, not both 0.

    Each component is correctly rounded from the exact ratio of squares;
    dividing by a rounded norm would add the norm's rounding to both.
    """
    n = a.raw * a.raw + b.raw * b.raw
    if a.raw < 0 or b.raw < 0 or n == 0:
        raise DomainError("unit vector needs a, b >= 0, not both 0")
    return (FixedDecimal.from_raw(_nearest_isqrt(a.raw * a.raw * WAD * WAD, n)),
            FixedDecimal.from_raw(_nearest_isqrt(b.raw * b.raw * WAD * WAD, n)))


def _nearest_isqrt(n: int, d: int = 1) -> int:
    """The integer nearest sqrt(n / d), for n >= 0 and d > 0."""
    s = isqrt(n // d)
    # sqrt(n / d) > s + 1/2 exactly when 4 n > (2 s + 1)^2 d; at d = 1 there
    # is no tie, since the root of an integer is never halfway between two
    if 4 * n > (2 * s + 1) ** 2 * d:
        s += 1
    return s


# -- decimal bridge -------------------------------------------------------


def _to_dec(a: FixedDecimal) -> Decimal:
    return Decimal(a.raw).scaleb(-DECIMALS)


def _from_dec(d: Decimal) -> FixedDecimal:
    try:
        q = d.quantize(_QUANTUM, rounding=ROUND_HALF_EVEN, context=_CTX)
    except InvalidOperation:
        raise RangeError("fixed-point overflow: |value| exceeds 1e20") from None
    sign, digits, exp = q.as_tuple()
    raw = int("".join(map(str, digits))) * 10 ** (exp + DECIMALS)
    return FixedDecimal.from_raw(-raw if sign else raw)


def fp_ln(a: FixedDecimal) -> FixedDecimal:
    """Natural logarithm; positive arguments only."""
    if a.raw <= 0:
        raise DomainError("ln of non-positive value")
    return _from_dec(_to_dec(a).ln(context=_CTX))


def fp_exp(a: FixedDecimal) -> FixedDecimal:
    """Exponential; overflows for arguments above ~46.05 (result > 1e20)."""
    try:
        d = _to_dec(a).exp(context=_CTX)
    except Overflow:
        raise RangeError("exp overflow") from None
    return _from_dec(d)


def fp_pow(base: FixedDecimal, exponent: FixedDecimal) -> FixedDecimal:
    """base ** exponent.

    Integer exponents use repeated squaring on the grid (exact within
    rounding) and accept any sign of base. Fractional exponents require
    base > 0 and evaluate exp(exponent * ln(base)) in the working context.
    """
    if exponent.is_integer():
        n = exponent.raw // WAD
        if n == 0:
            return ONE
        if base.raw == 0:
            if n < 0:
                raise DomainError("0 raised to a negative power")
            return ZERO
        result = ONE
        acc = base
        m = abs(n)
        while m:
            if m & 1:
                result = fp_mul(result, acc)
            m >>= 1
            if m:
                acc = fp_mul(acc, acc)
        return fp_div(ONE, result) if n < 0 else result
    if base.raw < 0:
        raise DomainError("negative base with fractional exponent")
    if base.raw == 0:
        if exponent.raw < 0:
            raise DomainError("0 raised to a negative power")
        return ZERO
    try:
        d = _CTX.exp(_CTX.multiply(_to_dec(exponent), _CTX.ln(_to_dec(base))))
    except Overflow:
        raise RangeError("pow overflow") from None
    return _from_dec(d)


# -- trigonometry ---------------------------------------------------------


@lru_cache(maxsize=None)
def _pi(prec: int) -> Decimal:
    return Context(prec=prec).plus(Decimal(_PI_STR))


def _sin_cos_taylor(r: Decimal, ctx: Context) -> tuple[Decimal, Decimal]:
    """sin and cos of |r| <= pi/4 by Taylor series in the given context."""
    eps = Decimal(1).scaleb(-(ctx.prec + 4))
    r2 = ctx.multiply(r, r)
    # sin
    s = r
    term = r
    k = 1
    while True:
        term = ctx.divide(ctx.multiply(term, -r2), Decimal((k + 1) * (k + 2)))
        if abs(term) < eps:
            break
        s = ctx.add(s, term)
        k += 2
    # cos
    c = Decimal(1)
    term = Decimal(1)
    k = 0
    while True:
        term = ctx.divide(ctx.multiply(term, -r2), Decimal((k + 1) * (k + 2)))
        if abs(term) < eps:
            break
        c = ctx.add(c, term)
        k += 2
    return s, c


def _sin_cos(a: FixedDecimal) -> tuple[Decimal, Decimal]:
    d = _to_dec(a)
    # boost precision by the integer magnitude so argument reduction keeps
    # ~40 accurate digits even for large angles
    extra = max(0, d.adjusted() + 1)
    ctx = Context(prec=_PREC + extra + 10, rounding=ROUND_HALF_EVEN,
                  Emin=-999, Emax=999)
    half_pi = ctx.divide(_pi(ctx.prec), Decimal(2))
    n = int(ctx.divide(d, half_pi).to_integral_value(rounding=ROUND_HALF_EVEN))
    r = ctx.subtract(d, ctx.multiply(Decimal(n), half_pi))
    s, c = _sin_cos_taylor(r, ctx)
    quadrant = n & 3
    if quadrant == 0:
        return s, c
    if quadrant == 1:
        return c, -s
    if quadrant == 2:
        return -s, -c
    return -c, s


def fp_sin(a: FixedDecimal) -> FixedDecimal:
    """Sine of an angle in radians."""
    return _from_dec(_sin_cos(a)[0])


def fp_cos(a: FixedDecimal) -> FixedDecimal:
    """Cosine of an angle in radians."""
    return _from_dec(_sin_cos(a)[1])


def fp_sin_cos(a: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """Sine and cosine together, sharing one argument reduction."""
    s, c = _sin_cos(a)
    return _from_dec(s), _from_dec(c)


def _atan_dec(t: Decimal) -> Decimal:
    """arctan for a Decimal, any magnitude, in the inverse-trig context."""
    ctx = _TRIG_CTX
    sign = -1 if t < 0 else 1
    t = abs(t)
    half_pi = ctx.divide(_pi(ctx.prec), Decimal(2))
    invert = t > 1
    if invert:
        t = ctx.divide(Decimal(1), t)
    # halve the argument until small enough for fast Taylor convergence
    halvings = 0
    while t > Decimal("0.1"):
        t = ctx.divide(
            t, ctx.add(Decimal(1), ctx.sqrt(ctx.add(Decimal(1), ctx.multiply(t, t))))
        )
        halvings += 1
    eps = Decimal(1).scaleb(-(ctx.prec + 4))
    t2 = ctx.multiply(t, t)
    total = t
    term = t
    k = 1
    while True:
        term = ctx.multiply(term, -t2)
        k += 2
        contrib = ctx.divide(term, Decimal(k))
        if abs(contrib) < eps:
            break
        total = ctx.add(total, contrib)
    result = ctx.multiply(total, Decimal(2 ** halvings))
    if invert:
        result = ctx.subtract(half_pi, result)
    return -result if sign < 0 else result


def fp_atan2(y: FixedDecimal, x: FixedDecimal) -> FixedDecimal:
    """Two-argument arctangent in radians, standard quadrant convention."""
    ctx = _TRIG_CTX
    pi_d = _pi(ctx.prec)
    if x.raw == 0 and y.raw == 0:
        raise DomainError("atan2(0, 0) is undefined")
    if x.raw == 0:
        half = ctx.divide(pi_d, Decimal(2))
        return _from_dec(half if y.raw > 0 else -half)
    base = _atan_dec(ctx.divide(_to_dec(y), _to_dec(x)))
    if x.raw > 0:
        return _from_dec(base)
    if y.raw >= 0:
        return _from_dec(ctx.add(base, pi_d))
    return _from_dec(ctx.subtract(base, pi_d))


def fp_asin(a: FixedDecimal) -> FixedDecimal:
    """Inverse sine in radians for |a| <= 1."""
    if abs(a.raw) > WAD:
        raise DomainError("asin argument outside [-1, 1]")
    ctx = _TRIG_CTX
    d = _to_dec(a)
    if abs(a.raw) == WAD:
        half = ctx.divide(_pi(ctx.prec), Decimal(2))
        return _from_dec(half if a.raw > 0 else -half)
    root = ctx.sqrt(ctx.subtract(Decimal(1), ctx.multiply(d, d)))
    return _from_dec(_atan_dec(ctx.divide(d, root)))


def fp_acos(a: FixedDecimal) -> FixedDecimal:
    """Inverse cosine in radians for |a| <= 1."""
    if abs(a.raw) > WAD:
        raise DomainError("acos argument outside [-1, 1]")
    ctx = _TRIG_CTX
    d = _to_dec(a)
    pi_d = _pi(ctx.prec)
    if a.raw == WAD:
        return ZERO
    if a.raw == -WAD:
        return _from_dec(pi_d)
    if a.raw == 0:
        return _from_dec(ctx.divide(pi_d, Decimal(2)))
    root = ctx.sqrt(ctx.subtract(Decimal(1), ctx.multiply(d, d)))
    base = _atan_dec(ctx.divide(root, d))
    if a.raw < 0:
        base = ctx.add(base, pi_d)
    return _from_dec(base)


# -- constants ------------------------------------------------------------

ZERO = FixedDecimal(0)
ONE = FixedDecimal(1)
TWO = FixedDecimal(2)
PI = _from_dec(Decimal(_PI_STR))
HALF_PI = _from_dec(_CTX.divide(Decimal(_PI_STR), Decimal(2)))
SQRT2 = fp_sqrt(TWO)
LN2 = fp_ln(TWO)
