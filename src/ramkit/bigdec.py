"""Fixed-point arbitrary-precision decimals on top of Python integers.

A BigDecimal is sign * mantissa * 10^(-scale). All series code in this
package computes on raw scaled integers and wraps the result here;
rounding (half-even) happens once, on final output.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import DomainError


# Python caps int <-> str conversion at 4300 digits by default; longer
# numbers go through divide-and-conquer on 10^(_BLOCK * 2^i), whose
# pieces stay far below the cap.
_DIRECT_DIGITS = 4000
_DIRECT_LIMIT = 10**_DIRECT_DIGITS
_BLOCK = 1024


def _int_to_str(n: int) -> str:
    """Decimal digits of an integer of any length (sign included)."""
    if n < 0:
        return "-" + _int_to_str(-n)
    if n < _DIRECT_LIMIT:
        return str(n)
    pows = [10**_BLOCK]  # pows[i] = 10^(_BLOCK * 2^i)
    while 2 * pows[-1].bit_length() - 1 <= n.bit_length():
        pows.append(pows[-1] * pows[-1])

    def digits(x: int, i: int, pad: bool) -> str:
        # x < pows[i]^2; padded output has exactly _BLOCK * 2^(i+1) digits
        if i < 0:
            return str(x).zfill(_BLOCK) if pad else str(x)
        hi, lo = divmod(x, pows[i])
        if hi == 0 and not pad:
            return digits(lo, i - 1, False)
        return digits(hi, i - 1, pad) + digits(lo, i - 1, True)

    return digits(n, len(pows) - 1, False)


def _str_to_int(text: str) -> int:
    """Integer value of a string of decimal digits of any length."""
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    half = len(text) // 2
    return _str_to_int(text[:-half]) * 10**half + _str_to_int(text[-half:])


def _decimal_length(n: int) -> int:
    """Number of decimal digits of n >= 1, without converting it to text."""
    d = int((n.bit_length() - 1) * math.log10(2))  # estimate of floor(log10 n)
    while d > 0 and 10**d > n:
        d -= 1
    while 10 ** (d + 1) <= n:
        d += 1
    return d + 1


def round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den, ties to even. den > 0."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def isqrt_scaled(n: int, scale: int) -> int:
    """floor(sqrt(n) * 10^scale) for integer n >= 0."""
    return math.isqrt(n * 10 ** (2 * scale))


def iroot(n: int, k: int) -> int:
    """Integer floor k-th root by Newton iteration.

    Iterates x <- ((k-1)x + n // x^(k-1)) // k from a power-of-two seed;
    stops when the step no longer decreases, the integer analogue of
    |x_{j+1} - x_j| < ulp.
    """
    if n < 0:
        raise DomainError("iroot of negative value")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        nxt = ((k - 1) * x + n // x ** (k - 1)) // k
        if nxt >= x:
            break
        x = nxt
    while x**k > n:
        x -= 1
    return x


@dataclass(frozen=True, eq=False)
class BigDecimal:
    """Signed fixed-point decimal: value = mantissa * 10^(-scale).

    mantissa carries the sign; scale counts digits after the point.
    Instances are immutable.
    """

    mantissa: int
    scale: int

    def __post_init__(self):
        if self.scale < 0:
            raise DomainError("scale must be nonnegative")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "BigDecimal":
        return cls(n, 0)

    @classmethod
    def from_fraction(cls, fr, scale: int) -> "BigDecimal":
        """Round a rational to the given scale (half-even)."""
        fr = Fraction(fr)
        m = round_half_even(fr.numerator * 10**scale, fr.denominator)
        return cls(m, scale)

    @classmethod
    def parse(cls, text: str) -> "BigDecimal":
        text = text.strip()
        sign = 1
        if text.startswith(("+", "-")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        if "." in text:
            intpart, fracpart = text.split(".", 1)
        else:
            intpart, fracpart = text, ""
        digits = intpart + fracpart
        if not (digits.isascii() and digits.isdigit()):
            raise DomainError(f"not a decimal literal: {text!r}")
        mantissa = _str_to_int(digits)
        return cls(sign * mantissa, len(fracpart))

    # -- accessors ---------------------------------------------------

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.scale)

    def __float__(self) -> float:
        return self.mantissa / 10**self.scale

    def ulp(self) -> Fraction:
        return Fraction(1, 10**self.scale)

    # -- comparisons (numeric, scale-independent) ----------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigDecimal):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a == b

    def __lt__(self, other: "BigDecimal") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other: "BigDecimal") -> bool:
        a, b, _ = self._aligned(other)
        return a <= b

    def __gt__(self, other: "BigDecimal") -> bool:
        return not self <= other

    def __ge__(self, other: "BigDecimal") -> bool:
        return not self < other

    def __hash__(self):
        return hash(self.as_fraction())

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "BigDecimal") -> tuple[int, int, int]:
        s = max(self.scale, other.scale)
        return (
            self.mantissa * 10 ** (s - self.scale),
            other.mantissa * 10 ** (s - other.scale),
            s,
        )

    def __add__(self, other: "BigDecimal") -> "BigDecimal":
        a, b, s = self._aligned(other)
        return BigDecimal(a + b, s)

    def __sub__(self, other: "BigDecimal") -> "BigDecimal":
        a, b, s = self._aligned(other)
        return BigDecimal(a - b, s)

    def __neg__(self) -> "BigDecimal":
        return BigDecimal(-self.mantissa, self.scale)

    def __abs__(self) -> "BigDecimal":
        return BigDecimal(abs(self.mantissa), self.scale)

    def __mul__(self, other: "BigDecimal") -> "BigDecimal":
        # exact: scales add; callers re-round when they care
        return BigDecimal(self.mantissa * other.mantissa, self.scale + other.scale)

    def divide(self, other: "BigDecimal", scale: int) -> "BigDecimal":
        """self/other rounded half-even at the requested scale."""
        if other.mantissa == 0:
            raise ZeroDivisionError("BigDecimal division by zero")
        num = self.mantissa * 10 ** (scale + other.scale)
        den = other.mantissa * 10**self.scale
        if den < 0:
            num, den = -num, -den
        return BigDecimal(round_half_even(num, den), scale)

    def at_scale(self, scale: int) -> "BigDecimal":
        """Re-round (half-even) to a new scale; exact when widening."""
        if scale >= self.scale:
            return BigDecimal(self.mantissa * 10 ** (scale - self.scale), scale)
        m = round_half_even(self.mantissa, 10 ** (self.scale - scale))
        return BigDecimal(m, scale)

    def sqrt(self, scale: int) -> "BigDecimal":
        if self.mantissa < 0:
            raise DomainError("sqrt of negative value")
        extra = 2 * scale - self.scale
        if extra >= 0:
            m = math.isqrt(self.mantissa * 10**extra)
        else:
            m = math.isqrt(self.mantissa // 10**-extra)
        return BigDecimal(m, scale)

    def floor(self) -> int:
        return self.mantissa // 10**self.scale

    # -- text ----------------------------------------------------------

    def __str__(self) -> str:
        body = _int_to_str(abs(self.mantissa)).rjust(self.scale + 1, "0")
        if self.scale:
            body = body[: -self.scale] + "." + body[-self.scale :]
        return ("-" if self.mantissa < 0 else "") + body

    def __repr__(self) -> str:
        return f"BigDecimal({str(self)!r})"


# -- transcendental helpers on scaled integers --------------------------
#
# _exp_int / _ln_int work on mantissas at an explicit scale so the series
# loops stay in pure integer arithmetic.


def _exp_int(m: int, s: int) -> int:
    """round(exp(m/10^s) * 10^s), accurate to ~10 ulp at scale s."""
    neg = m < 0
    m = abs(m)
    # halve until the argument drops below 1/2, square back afterwards;
    # each squaring doubles relative error, hence one guard digit each
    halvings = 0
    v = m
    while v * 2 > 10**s:
        v //= 2
        halvings += 1
    g = 12 + halvings
    w = s + g
    unit = 10**w
    x = m * 10**g >> halvings
    term = unit
    total = unit
    k = 1
    while term:
        term = term * x // (k * unit)
        total += term
        k += 1
    for _ in range(halvings):
        total = total * total // unit
    if neg:
        total = unit * unit // total
    return round_half_even(total, 10**g)


def _atanh_int(u: int, w: int) -> int:
    """atanh(u/10^w) * 10^w for |u/10^w| < 0.2, by the odd Taylor series."""
    unit = 10**w
    u2 = u * u // unit
    term = u
    total = u
    k = 3
    while True:
        term = term * u2 // unit
        if term == 0:
            break
        total += term // k
        k += 2
    return total


def _ln_small_int(m: int, s: int, w: int) -> int:
    """ln(m/10^s) * 10^w for arguments in roughly [0.1, 16]."""
    if m <= 0:
        raise DomainError("log of nonpositive value")
    g = w + 10
    unit = 10**g
    v = m * 10 ** (g - s) if g >= s else m // 10 ** (s - g)
    # repeated square roots pull v toward 1 so atanh converges fast
    pulls = 0
    while abs(v - unit) > unit // 10:
        v = math.isqrt(v * unit)
        pulls += 1
    u = (v - unit) * unit // (v + unit)
    ln_v = 2 * _atanh_int(u, g)
    return round_half_even(ln_v << pulls, 10 ** (g - w))


def _ln_int(m: int, s: int) -> int:
    """ln(m/10^s) * 10^s for any positive argument."""
    if m <= 0:
        raise DomainError("log of nonpositive value")
    w = s + 10
    digits_before_point = _decimal_length(m) - s
    e = digits_before_point - 1  # m/10^s = v * 10^e with v in [1, 10)
    total = _ln_small_int(m, s + e, w)
    if e:
        total += e * _ln_small_int(10, 0, w)
    return round_half_even(total, 10 ** (w - s))


def exp_bd(x: BigDecimal, scale: int) -> BigDecimal:
    """exp(x) rounded to the given scale."""
    w = scale + 10
    return BigDecimal(_exp_int(x.at_scale(w).mantissa, w), w).at_scale(scale)


def ln_bd(x: BigDecimal, scale: int) -> BigDecimal:
    """Natural log of a positive value, rounded to the given scale."""
    w = scale + 10
    return BigDecimal(_ln_int(x.at_scale(w).mantissa, w), w).at_scale(scale)
