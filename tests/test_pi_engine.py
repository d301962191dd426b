"""pi series: digit strings, convergence rates, recurrence integrality."""

import math
from fractions import Fraction

import pytest

from ramkit import DomainError
from ramkit.bigdec import BigDecimal
from ramkit.pi_engine import (
    CHUDNOVSKY_INITIAL,
    chudnovsky_step,
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


def recurrence_pi(digits: int) -> BigDecimal:
    """Oracle: pi_chudnovsky's term count and working scale, with the
    series summed term by term over chudnovsky_step."""
    terms = -(-digits // 14) + 1
    s = digits + guard_digits(terms)
    unit = 10**s
    state = CHUDNOVSKY_INITIAL
    total = 0
    for _ in range(terms):
        total += state.M * state.L * unit // state.X
        state = chudnovsky_step(state)
    scaled = 426880 * math.isqrt(10005 * 10 ** (2 * s)) * unit // total
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
