"""Deterministic fixed-point decimal arithmetic.

All public math in this package flows through :class:`FixedDecimal`, a
signed integer count of 10^-18 units (18 fractional digits, the WAD
convention used by on-chain math libraries). Floating point is banned from
the engine because float transcendentals are not bit-reproducible across
hardware and libm versions; everything here is Python integer arithmetic,
which reads no process-wide state (no rounding mode, precision or context),
so identical inputs give identical outputs on any platform.

Rounding is round-half-even at the 18th fractional digit everywhere, which
keeps bias from accumulating over long swap sequences. Addition and
subtraction are exact; multiplication and division round once.

Square roots are exact integer roots, correctly rounded. The other
transcendentals (pow at every exponent, ln, exp, sin, cos, atan2) sum
integer series at a working scale of 10^-50 and round once to the 18-digit
grid, so each result is the nearest grid point to the exact value unless
that value lies within about 1e-30 quanta of a rounding boundary. There is
no acos or asin: the engine forms an angle only from a point's two
coordinates, with atan2, which returns degrees, converted at the working
scale and rounded once.

Code that computes on raw unit counts, such as the tick walk, uses the
integer cores directly: ``_round_div`` for a product or quotient,
``_div`` for a quotient of raws, ``_nearest_isqrt`` for a root of an
exact radicand or ratio, ``_taylor_sin_cos`` for sin and cos of a
working-scale angle in [0, pi/4], and ``MAX_RAW`` with ``_range_error``
for the overflow a wrap would raise.
They keep their underscores so that span tracers, which wrap public
functions, leave them alone.
"""

from __future__ import annotations

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
    "fp_hypot",
    "fp_unit",
    "fp_pow",
    "fp_ln",
    "fp_exp",
    "fp_sin_cos",
    "fp_atan2",
]

# The one scale constant, fixed at 18 (the WAD): the pinned golden raws and
# every pool file and trade log hold values on this grid, so another scale
# would change every output and refuse the 18-digit decimals they hold.
DECIMALS = 18
WAD = 10 ** DECIMALS

# Representable range: |value| <= 1e20, i.e. |raw| <= 1e38. Anything beyond
# is reported as overflow, never wrapped.
MAX_RAW = 10 ** (DECIMALS + 20)

# Working scale of the transcendental series: 10^-50 units.
_DIGITS = 50
_ONE = 10 ** _DIGITS
_UP = 10 ** (_DIGITS - DECIMALS)

# pi to 110 fractional digits, as the integer pi * 10^110; enough guard
# digits to reduce any in-range angle.
_PI_DIGITS = 110
_PI_RAW = int(
    "314159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798214808651"
)


def _range_error() -> RangeError:
    """The overflow of a value past MAX_RAW, which no wrap lets through."""
    return RangeError("fixed-point overflow: |value| exceeds 1e20")


def _round_div(n: int, d: int) -> int:
    """Divide integers rounding half to even. Requires d > 0."""
    q, r = divmod(n, d)
    twice = 2 * r
    if twice > d or (twice == d and q & 1):
        q += 1
    return q


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
        if raw > MAX_RAW or raw < -MAX_RAW:
            raise _range_error()
        _set_raw(self, raw)

    @classmethod
    def from_raw(cls, raw: int) -> "FixedDecimal":
        """Wrap a raw 10^-18 unit count without scaling."""
        if raw > MAX_RAW or raw < -MAX_RAW:
            raise _range_error()
        out = object.__new__(cls)
        _set_raw(out, raw)
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
        digits = f"{frac:0{DECIMALS}d}".rstrip("0")
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


# The slot's own setter: construction writes ``raw`` past the __setattr__
# that keeps instances immutable, without a call to object.__setattr__.
_set_raw = FixedDecimal.raw.__set__


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
    # isdecimal, not isdigit: superscripts are digits that int() refuses
    if not (units + frac).isdecimal():
        raise DomainError(f"not a decimal string: {text!r}")
    if len(frac) > DECIMALS:
        raise DomainError(
            f"more than {DECIMALS} fractional digits in {text!r}; "
            "use FixedDecimal.from_fraction for rounded construction"
        )
    # past 21 whole digits a value exceeds 1e20, and long digit strings
    # exceed what int() parses
    units = units.lstrip("0")
    if len(units) > 21:
        raise _range_error()
    return sign * int(units + frac + "0" * (DECIMALS - len(frac)))


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
    return FixedDecimal.from_raw(_div(a.raw, b.raw))


def _div(a: int, b: int) -> int:
    """The raw quotient of raws a / b, rounded half-even."""
    if b == 0:
        raise DomainError("division by zero")
    n, d = a * WAD, b
    if d < 0:
        n, d = -n, -d
    return _round_div(n, d)


def fp_sqrt(a: FixedDecimal) -> FixedDecimal:
    """Square root, correctly rounded to the nearest representable value.

    Uses exact integer arithmetic (isqrt of raw * 10^18), so the result is
    the closest grid point to the true root; monotone by construction.
    """
    if a.raw < 0:
        raise DomainError("sqrt of negative value")
    return FixedDecimal.from_raw(_nearest_isqrt(a.raw * WAD))


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


# -- transcendentals ------------------------------------------------------
#
# Integer series at one working scale, _ONE = 10^50 units per 1: 32 digits
# below the output grid, so the truncations of a series (a few dozen units of
# 10^-50) never reach the final half-even rounding to 18 digits except when
# the exact value lies within about 1e-30 quanta of a rounding boundary.


def _scaled(a: FixedDecimal) -> int:
    return a.raw * _UP


def _from_scaled(v: int) -> FixedDecimal:
    return FixedDecimal.from_raw(_round_div(v, _UP))


def _odd_series(x: int, sign: int) -> int:
    """Sum of sign^j x^(2j+1) / (2j+1) for 0 <= x < _ONE, at scale _ONE.

    With sign -1 that is atan x, with sign +1 atanh x.
    """
    x2 = x * x // _ONE
    total, power, k, s = 0, x, 1, 1
    while power:
        total += s * (power // k)
        power = power * x2 // _ONE
        k += 2
        s *= sign
    return total


_PI = _round_div(_PI_RAW, 10 ** (_PI_DIGITS - _DIGITS))
_HALF_PI = _round_div(_PI_RAW, 2 * 10 ** (_PI_DIGITS - _DIGITS))
_LN2 = 2 * _odd_series(_ONE // 3, 1)  # ln 2 = 2 atanh(1/3)


def _ln(a: int) -> int:
    """ln(a / _ONE) for an integer a > 0, at scale _ONE."""
    # a = m / p * 2^k with m / p in [1/sqrt 2, sqrt 2]; bit lengths put the
    # ratio in (1/2, 2) and one doubling folds it into that interval
    k = a.bit_length() - _ONE.bit_length()
    m, p = (a, _ONE << k) if k >= 0 else (a << -k, _ONE)
    if 2 * m * m < p * p:
        m, k = 2 * m, k - 1
    elif m * m > 2 * p * p:
        p, k = 2 * p, k + 1
    # ln(m / p) = 2 atanh((m - p) / (m + p)), with |(m - p) / (m + p)| < 0.18
    z = 2 * _odd_series(abs(m - p) * _ONE // (m + p), 1)
    return k * _LN2 + (z if m >= p else -z)


def _exp(x: int) -> int:
    """exp(x / _ONE) at scale _ONE; RangeError above the representable range."""
    # e^47 > 1e20: checked before the shift, so no huge 2^k is ever built
    if x > 47 * _ONE:
        raise _range_error()
    k, r = divmod(x, _LN2)  # x = k ln 2 + r, 0 <= r < ln 2
    total, term, n = 0, _ONE, 0
    while term:
        total += term
        n += 1
        term = term * r // (n * _ONE)
    return total << k if k >= 0 else total >> -k


def fp_ln(a: FixedDecimal) -> FixedDecimal:
    """Natural logarithm; positive arguments only."""
    if a.raw <= 0:
        raise DomainError("ln of non-positive value")
    return _from_scaled(_ln(_scaled(a)))


def fp_exp(a: FixedDecimal) -> FixedDecimal:
    """Exponential; overflows for arguments above ~46.05 (result > 1e20)."""
    return _from_scaled(_exp(_scaled(a)))


def fp_pow(base: FixedDecimal, exponent: FixedDecimal) -> FixedDecimal:
    """base ** exponent for base > 0, and 0 ** exponent for exponent >= 0.

    Every exponent, integer or not, takes exp(exponent * ln(base)) at the
    working scale with one final rounding; 0 ** 0 is 1.
    """
    if base.raw < 0:
        raise DomainError("pow of a negative base")
    if base.raw == 0:
        if exponent.raw < 0:
            raise DomainError("0 raised to a negative power")
        return ONE if exponent.raw == 0 else ZERO
    return _from_scaled(_exp(_scaled(exponent) * _ln(_scaled(base)) // _ONE))


# -- trigonometry ---------------------------------------------------------


def _taylor_sin_cos(x: int) -> tuple[int, int]:
    """sin and cos of x / _ONE at scale _ONE, for 0 <= x <= pi/4 * _ONE."""
    # one Taylor loop over x^k / k!: even powers build cos, odd powers sin
    parts = [0, 0]
    term, k = _ONE, 0
    while term:
        parts[k & 1] += -term if k & 2 else term
        k += 1
        term = term * x // (k * _ONE)
    return parts[1], parts[0]


def _sin_cos(a: FixedDecimal) -> tuple[int, int]:
    """sin a and cos a at scale _ONE."""
    # a = n pi/2 + r with |r| <= pi/4, reduced at pi's full 110 digits so
    # that n pi/2 stays exact to far below the working scale up to |a| = 1e20
    twice = a.raw * 2 * 10 ** (_PI_DIGITS - DECIMALS)
    n = _round_div(twice, _PI_RAW)
    r = _round_div(twice - n * _PI_RAW, 2 * 10 ** (_PI_DIGITS - _DIGITS))
    s, c = _taylor_sin_cos(abs(r))
    if r < 0:
        s = -s
    quadrant = n & 3
    if quadrant == 0:
        return s, c
    if quadrant == 1:
        return c, -s
    if quadrant == 2:
        return -s, -c
    return -c, s


def fp_sin_cos(a: FixedDecimal) -> tuple[FixedDecimal, FixedDecimal]:
    """Sine and cosine together, sharing one argument reduction."""
    s, c = _sin_cos(a)
    return _from_scaled(s), _from_scaled(c)


def _angle(y: int, x: int) -> int:
    """atan2(y, x) at scale _ONE, for integers at one common scale, not both 0."""
    ay, ax = abs(y), abs(x)
    # atan of a ratio t in [0, 1]; t > 1 reads pi/2 - atan(1 / t)
    t = min(ay, ax) * _ONE // max(ay, ax)
    # halve the angle, tan(b / 2) = t / (1 + sqrt(1 + t^2)), until the series
    # converges fast
    halvings = 0
    while t > _ONE // 10:
        t = t * _ONE // (_ONE + isqrt(_ONE * _ONE + t * t))
        halvings += 1
    angle = _odd_series(t, -1) << halvings
    if ay > ax:
        angle = _HALF_PI - angle
    if x < 0:
        angle = _PI - angle
    return -angle if y < 0 else angle


def fp_atan2(y: FixedDecimal, x: FixedDecimal) -> FixedDecimal:
    """Two-argument arctangent in degrees, standard quadrant convention.

    The working-scale angle times 180 over pi at pi's full 110 digits,
    rounded once to the grid.
    """
    if x.raw == 0 and y.raw == 0:
        raise DomainError("atan2(0, 0) is undefined")
    return FixedDecimal.from_raw(_round_div(
        180 * _angle(y.raw, x.raw) * 10 ** (_PI_DIGITS - _DIGITS + DECIMALS), _PI_RAW))


# -- constants ------------------------------------------------------------

ZERO = FixedDecimal(0)
ONE = FixedDecimal(1)
TWO = FixedDecimal(2)
PI = _from_scaled(_PI)
HALF_PI = _from_scaled(_HALF_PI)
SQRT2 = fp_sqrt(TWO)
LN2 = _from_scaled(_LN2)
