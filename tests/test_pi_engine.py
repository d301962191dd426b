"""pi series: digit strings, convergence rates, recurrence integrality."""

import math
from fractions import Fraction

import pytest

from ramkit import DomainError
from ramkit.bigdec import BigDecimal
from ramkit.pi_engine import (
    CHUDNOVSKY_INITIAL,
    _ramanujan_leaf,
    _ramanujan_terms,
    atan_terms,
    binsplit,
    chudnovsky_step,
    chudnovsky_terms,
    digits_per_term,
    guard_digits,
    pi_chudnovsky,
    pi_machin,
    pi_madhava,
    pi_ramanujan,
)

PI_42 = "3.141592653589793238462643383279502884197169"

# digits_per_term("chudnovsky", t) for t = 2..20, as the term-by-term
# recurrence (with its own recurrence reference) computed them
CHUDNOVSKY_RATES = (
    14.282742565843591, 14.26770941763698, 14.256985452846266, 14.24897354304386,
    14.24273669957638, 14.237723111408172, 14.23359025418735, 14.230114477280637,
    14.227143330885383, 14.22456910219878, 14.22231336563978, 14.220317550712101,
    14.21853695593705, 14.21693682016155, 14.21548966784597, 14.214173468896405,
    14.212970334174262, 14.211865572181093, 14.210846994723852,
)


# digits_per_term("ramanujan", t) for t = 2..20, as the term-by-term loop
# with a per-term exact-division check computed them
RAMANUJAN_RATES = (
    8.077361819459156, 8.064346707449317, 8.054662397862103, 8.047283013681806,
    8.041471192120843, 8.036762721903983, 8.032859498118244, 8.029562776835263,
    8.026735149986735, 8.024278523076351, 8.02212090653988, 8.020208198666845,
    8.018498897553487, 8.016960593002036, 8.015567575587982, 8.014299167663296,
    8.013138533255828, 8.012071813182452, 8.011087485711702,
)


def recurrence_pi(digits: int) -> BigDecimal:
    """Oracle: pi_chudnovsky's term count and working scale, with the
    series summed term by term over chudnovsky_step."""
    terms = chudnovsky_terms(digits)
    s = digits + guard_digits(terms)
    unit = 10**s
    state = CHUDNOVSKY_INITIAL
    total = 0
    for _ in range(terms):
        total += state.M * state.L * unit // state.X
        state = chudnovsky_step(state)
    scaled = 426880 * math.isqrt(10005 * 10 ** (2 * s)) * unit // total
    return BigDecimal(scaled, s).at_scale(digits)


def loop_madhava(terms: int, digits: int) -> BigDecimal:
    """Oracle: pi_madhava's working scale, with each term floored to it."""
    s = digits + guard_digits(terms)
    unit = 10**s
    total = 0
    power = 1  # 3^k
    for k in range(terms):
        term = unit // ((2 * k + 1) * power)
        total += -term if k & 1 else term
        power *= 3
    scaled = total * math.isqrt(12 * 10 ** (2 * s)) // unit
    return BigDecimal(scaled, s).at_scale(digits)


def loop_arctan_inv(x: int, s: int) -> int:
    """arctan(1/x) * 10^s, summed until a floored term underflows."""
    power = 10**s // x  # 10^s / x^(2k+1)
    total = power
    k = 1
    while power:
        power //= x * x
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        k += 1
    return total


def loop_machin(digits: int) -> BigDecimal:
    """Oracle: pi_machin's working scale, arctangents summed term by term."""
    s = digits + guard_digits(digits)
    scaled = 4 * (4 * loop_arctan_inv(5, s) - loop_arctan_inv(239, s))
    return BigDecimal(scaled, s).at_scale(digits)


def loop_ramanujan(digits: int) -> BigDecimal:
    """Oracle: pi_ramanujan's working scale, with the series summed term
    by term until a floored term underflows."""
    s = digits + guard_digits(digits // 8 + 2)
    unit = 10**s
    total = 0
    N = 1  # (4k)!/(k!)^4
    denom = 1  # 396^(4k)
    k = 0
    while True:
        term = N * (26390 * k + 1103) * unit // denom
        if term == 0:
            break
        total += term
        k += 1
        N = N * (4 * k - 3) * (4 * k - 2) * (4 * k - 1) * (4 * k) // k**4
        denom *= 396**4
    scaled = 9801 * 10 ** (3 * s) // (2 * math.isqrt(2 * 10 ** (2 * s)) * total)
    return BigDecimal(scaled, s).at_scale(digits)


def test_42_digit_string_all_methods():
    assert str(pi_machin(42)) == PI_42
    assert str(pi_ramanujan(42)) == PI_42
    assert str(pi_chudnovsky(42)) == PI_42
    assert str(pi_madhava(100, 42)) == PI_42


def test_guard_digits():
    assert guard_digits(1) == 10
    assert guard_digits(10) == 11
    assert guard_digits(1000) == 13


def test_cross_method_500_digits():
    assert str(pi_chudnovsky(500)) == str(pi_machin(500))
    assert str(pi_ramanujan(200)) == str(pi_chudnovsky(200))


def test_madhava_21_terms_known_error():
    # the 21-term value is correct to 11 decimal places, no further
    v = pi_madhava(21, 25).as_fraction()
    ref = pi_chudnovsky(35).as_fraction()
    err = abs(v - ref)
    assert Fraction(5, 10**12) < err < Fraction(6, 10**12)


def test_chudnovsky_state_exact():
    state = CHUDNOVSKY_INITIAL
    assert state.q == 0 and state.M == 1
    for _ in range(30):
        state = chudnovsky_step(state)
        q = state.q
        assert state.M == math.factorial(6 * q) // (
            math.factorial(3 * q) * math.factorial(q) ** 3
        )
        assert state.L == 13591409 + 545140134 * q
        assert state.X == (-262537412640768000) ** q


def test_binary_splitting_matches_recurrence():
    for digits in [*range(1, 301), 4400, 10000]:
        assert str(pi_chudnovsky(digits)) == str(recurrence_pi(digits)), digits


def test_machin_and_ramanujan_match_term_by_term_loops():
    for digits in [*range(1, 301), 4400, 10000]:
        assert str(pi_machin(digits)) == str(loop_machin(digits)), digits
        assert str(pi_ramanujan(digits)) == str(loop_ramanujan(digits)), digits


def test_madhava_matches_term_by_term_loop():
    for terms in range(1, 61):
        for digits in (10, 30, 100):
            assert str(pi_madhava(terms, digits)) == str(loop_madhava(terms, digits)), terms


def test_atan_terms_cover_every_nonzero_term():
    # the fixed count reaches the first term a floored loop sees vanish
    for x in (3, 5, 239):
        for s in range(1, 601):
            power, nonzero = 10**s // x, 0  # 10^s / x^(2k+1)
            while power:
                nonzero += 1
                power //= x * x
            assert atan_terms(x * x, s) >= nonzero, (x, s)


def test_ramanujan_terms_cover_every_nonzero_term():
    # k ends at the first term a floored loop sees vanish
    for s in range(1, 601):
        k, multinomial = 0, 1  # (4k)!/(k!)^4
        while multinomial * (26390 * k + 1103) * 10**s // 396 ** (4 * k):
            k += 1
            multinomial = multinomial * (4 * k - 3) * (4 * k - 2) * (4 * k - 1) * (4 * k) // k**4
        assert _ramanujan_terms(s) >= k, s


def test_ramanujan_partial_sums_exact():
    # binary splitting never divides; the partial sums are exactly the
    # multinomial series, the check the term-by-term loop made by division
    expected = Fraction(0)
    for n in range(1, 31):
        k = n - 1
        expected += Fraction(
            math.factorial(4 * k) * (1103 + 26390 * k),
            math.factorial(k) ** 4 * 396 ** (4 * k),
        )
        t, q = binsplit(n, _ramanujan_leaf)
        assert Fraction(t, q) == expected, n


def test_digits_per_term_ramanujan_exact_floats():
    assert tuple(digits_per_term("ramanujan", t) for t in range(2, 21)) == RAMANUJAN_RATES


def test_digits_per_term_chudnovsky_exact_floats():
    assert tuple(digits_per_term("chudnovsky", t) for t in range(2, 21)) == CHUDNOVSKY_RATES


def test_digits_per_term_rates():
    assert abs(digits_per_term("chudnovsky", 12) - 14.18) < 0.3
    assert abs(digits_per_term("ramanujan", 12) - 7.98) < 0.3
    with pytest.raises(DomainError):
        digits_per_term("madhava", 12)


def test_rejects_bad_arguments():
    with pytest.raises(DomainError):
        pi_chudnovsky(0)
    with pytest.raises(DomainError):
        pi_madhava(0, 10)
    with pytest.raises(DomainError):
        pi_machin(-3)


def test_scale_matches_requested_digits():
    for digits in (1, 7, 42, 100):
        v = pi_chudnovsky(digits)
        assert v.scale == digits
        assert abs(v.as_fraction() - pi_chudnovsky(digits + 10).as_fraction()) <= Fraction(
            1, 10**digits
        )
