"""Fixed-point decimal arithmetic: rounding, parsing, sqrt, exp, ln."""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramkit import DomainError
from ramkit.bigdec import (
    BigDecimal,
    _decimal_length,
    exp_bd,
    iroot,
    isqrt_scaled,
    ln_bd,
    round_half_even,
)

SQRT2_50 = "1.41421356237309504880168872420969807856967187537694"
E_30 = "2.718281828459045235360287471353"
LN2_30 = "0.693147180559945309417232121458"


def test_round_half_even():
    assert round_half_even(5, 2) == 2  # 2.5 -> 2
    assert round_half_even(7, 2) == 4  # 3.5 -> 4
    assert round_half_even(-5, 2) == -2
    assert round_half_even(9, 4) == 2  # 2.25 -> 2
    assert round_half_even(11, 4) == 3  # 2.75 -> 3
    assert round_half_even(10, 5) == 2


def test_parse_and_str_round_trip():
    for text in ("0", "3.14", "-0.001", "12345.000067", "2"):
        assert str(BigDecimal.parse(text)) == text
    assert BigDecimal.parse("+4.5").as_fraction() == Fraction(9, 2)
    for text in ("1e5", "1²", "٣.5", "", ".", "1_000"):  # ASCII digits only
        with pytest.raises(DomainError):
            BigDecimal.parse(text)


def test_from_fraction_rounds_half_even():
    assert str(BigDecimal.from_fraction(Fraction(1, 8), 2)) == "0.12"
    assert str(BigDecimal.from_fraction(Fraction(3, 8), 2)) == "0.38"
    assert str(BigDecimal.from_fraction(Fraction(-1, 3), 4)) == "-0.3333"


def test_arithmetic_and_comparison():
    a = BigDecimal.parse("1.25")
    b = BigDecimal.parse("0.375")
    assert str(a + b) == "1.625"
    assert str(a - b) == "0.875"
    assert str(a * b) == "0.46875"
    assert (a + (-a)).sign == 0
    assert b < a <= a
    assert abs(BigDecimal.parse("-2.5")) == BigDecimal.parse("2.50")
    assert float(b) == 0.375
    assert a.floor() == 1 and BigDecimal.parse("-0.5").floor() == -1


def test_divide_and_at_scale():
    one = BigDecimal.from_int(1)
    third = one.divide(BigDecimal.from_int(3), 10)
    assert str(third) == "0.3333333333"
    assert str(BigDecimal.parse("2.675").at_scale(2)) == "2.68"
    assert str(BigDecimal.parse("2.665").at_scale(2)) == "2.66"  # ties to even
    assert BigDecimal.parse("1.5").ulp() == Fraction(1, 10)
    with pytest.raises(ZeroDivisionError):
        one.divide(BigDecimal.from_int(0), 5)


def test_sqrt_known_digits():
    assert str(BigDecimal.from_int(2).sqrt(50)) == SQRT2_50
    # sqrt floors at the target scale: value^2 <= 2 < (value + ulp)^2
    v = BigDecimal.from_int(2).sqrt(30).as_fraction()
    assert v * v <= 2 < (v + Fraction(1, 10**30)) ** 2


def test_isqrt_scaled_and_iroot():
    assert isqrt_scaled(2, 5) == 141421
    assert iroot(10**30, 5) == 10**6
    assert iroot(2**40 - 1, 4) == 2**10 - 1
    assert iroot(0, 7) == 0
    for n in (1, 31, 32, 33, 10**12):
        r = iroot(n, 5)
        assert r**5 <= n < (r + 1) ** 5


def test_exp_and_ln_digits():
    one = BigDecimal.from_int(1)
    assert str(exp_bd(one, 30)) == E_30
    assert str(ln_bd(BigDecimal.from_int(2), 30)) == LN2_30
    # round trip: ln(exp(x)) = x to working precision
    x = BigDecimal.parse("0.731")
    back = ln_bd(exp_bd(x, 40), 35)
    assert abs(back.as_fraction() - x.as_fraction()) < Fraction(1, 10**30)


def test_exp_scale_counts_fraction_digits():
    e20 = exp_bd(BigDecimal.from_int(1), 20)
    assert e20.scale == 20
    assert len(str(e20).split(".")[1]) == 20


def test_negative_scale_rejected():
    with pytest.raises(DomainError):
        BigDecimal(1, -1)


def _decimal_text(mantissa: int, scale: int) -> str:
    """Reference rendering through the stdlib decimal module, which has
    no int/str digit cap."""
    body = str(decimal.Decimal(abs(mantissa))).rjust(scale + 1, "0")
    if scale:
        body = body[:-scale] + "." + body[-scale:]
    return ("-" if mantissa < 0 else "") + body


@given(
    digits=st.integers(4300, 20000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(0, 25000),
    negative=st.booleans(),
)
@settings(max_examples=30)
def test_str_parse_round_trip_past_digit_cap(digits, seed, scale, negative):
    rng = random.Random(seed)
    mantissa = rng.randrange(10 ** (digits - 1), 10**digits)
    if negative:
        mantissa = -mantissa
    x = BigDecimal(mantissa, scale)
    text = str(x)
    assert text == _decimal_text(mantissa, scale)
    back = BigDecimal.parse(text)
    assert (back.mantissa, back.scale) == (mantissa, scale)


def test_ln_of_argument_past_digit_cap():
    # ln(10^5000) = 5000 ln 10
    big = BigDecimal.parse("1" + "0" * 5000)
    ln10 = ln_bd(BigDecimal.from_int(10), 30).as_fraction()
    assert abs(ln_bd(big, 20).as_fraction() - 5000 * ln10) < Fraction(1, 10**19)


def test_decimal_length_at_powers_of_ten():
    for k in (1, 2, 17, 300, 4299, 4300, 4301, 10**4):
        assert _decimal_length(10**k - 1) == k
        assert _decimal_length(10**k) == k + 1


def test_ln_against_mpmath_at_several_scales():
    mpmath = pytest.importorskip("mpmath")
    args = ("2", "10", "0.5", "0.000123", "7.389", "98765.4321", "1" + "0" * 60, "3" + "0" * 400)
    for scale in (0, 5, 30, 120, 450):
        with mpmath.workdps(scale + 30):
            ulp = mpmath.mpf(10) ** -scale
            for text in args:
                ours = mpmath.mpf(str(ln_bd(BigDecimal.parse(text), scale)))
                # rounded to the scale: within half a unit in the last place
                assert abs(ours - mpmath.log(mpmath.mpf(text))) <= ulp / 2, (text, scale)


def decimal_half_even(num: int, den: int, scale: int) -> int:
    """Oracle: the mantissa of num/den rounded half-even to `scale`
    fractional digits by the decimal module. The quotient carries more
    digits than num and den together, so its own rounding cannot move
    it across a half-ulp boundary before quantize rounds it."""
    ctx = decimal.Context(prec=len(str(num)) + len(str(den)) + scale + 10,
                          rounding=decimal.ROUND_HALF_EVEN)
    q = ctx.divide(decimal.Decimal(num), decimal.Decimal(den))
    return int(ctx.scaleb(ctx.quantize(q, decimal.Decimal(1).scaleb(-scale)), scale))


@st.composite
def _ratios(draw):
    """(num, den, scale) with scale <= 200; half of them put num/den
    exactly halfway between two mantissas."""
    scale = draw(st.integers(0, 200))
    if draw(st.booleans()):
        return draw(st.integers(-(10**200), 10**200)), draw(st.integers(1, 10**60)), scale
    half = draw(st.integers(1, 10**60))
    odd = 2 * draw(st.integers(-(10**60), 10**60)) + 1
    return odd * half, 2 * half * 10**scale, scale


@given(_ratios())
@settings(max_examples=300)
def test_round_half_even_agrees_with_decimal(ratio):
    num, den, scale = ratio
    assert round_half_even(num * 10**scale, den) == decimal_half_even(num, den, scale)
    assert BigDecimal.from_fraction(Fraction(num, den), scale).mantissa == decimal_half_even(num, den, scale)


@given(
    mantissa=st.integers(-(10**200), 10**200),
    scale=st.integers(0, 200),
    target=st.integers(0, 200),
    tie=st.booleans(),
)
@settings(max_examples=300)
def test_at_scale_agrees_with_decimal(mantissa, scale, target, tie):
    if tie and target < scale:
        # a trailing 5 followed by zeros lands exactly halfway
        mantissa = (mantissa * 10 + 5) * 10 ** (scale - target - 1)
    x = BigDecimal(mantissa, scale)
    assert x.at_scale(target).mantissa == decimal_half_even(mantissa, 10**scale, target)
