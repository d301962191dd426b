"""Arbitrary-precision pi by four historical series.

All series run on scaled integers (value * 10^working_scale) with guard
digits, and round half-even once at the end. Series constants follow
the classical forms:

    madhava     pi = sqrt(12) * sum_k (-3)^(-k) / (2k+1)
    machin      pi/4 = 4 arctan(1/5) - arctan(1/239)
    ramanujan   1/pi = (2 sqrt(2)/99^2) * sum_k (4k)!/(k!)^4 * (26390k+1103)/396^(4k)
    chudnovsky  426880 sqrt(10005)/pi = sum_q M_q L_q / X_q
"""

import math
from dataclasses import dataclass

from . import DomainError
from .bigdec import BigDecimal

_CHUD_A = 13591409
_CHUD_B = 545140134
_CHUD_X = -262537412640768000  # (-640320)^3


def _ceil_log10(n: int) -> int:
    """ceil(log10(n)) for n >= 1, exactly."""
    return len(str(n - 1)) if n > 1 else 0


def guard_digits(terms: int) -> int:
    """Working-precision margin: 10 plus ceil(log10(terms))."""
    return 10 + _ceil_log10(max(terms, 1))


def _wrap(scaled: int, working_scale: int, digits: int) -> BigDecimal:
    return BigDecimal(scaled, working_scale).at_scale(digits)


# -- Madhava -----------------------------------------------------------


def _madhava_scaled(terms: int, s: int) -> int:
    unit = 10**s
    total = 0
    power = 1  # 3^k
    for k in range(terms):
        term = unit // ((2 * k + 1) * power)
        total += -term if k & 1 else term
        power *= 3
    return total * math.isqrt(12 * 10 ** (2 * s)) // unit


def pi_madhava(terms: int, digits: int) -> BigDecimal:
    """Partial sum of the Madhava series times sqrt(12)."""
    if terms < 1 or digits < 1:
        raise DomainError("terms and digits must be >= 1")
    s = digits + guard_digits(terms)
    return _wrap(_madhava_scaled(terms, s), s, digits)


# -- Machin ------------------------------------------------------------


def _arctan_inv_scaled(x: int, s: int) -> int:
    """arctan(1/x) * 10^s by the Maclaurin series, truncated when a term
    underflows the working scale."""
    power = 10**s // x  # 10^s / x^(2k+1)
    total = power
    x2 = x * x
    k = 1
    while power:
        power //= x2
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        k += 1
    return total


def pi_machin(digits: int) -> BigDecimal:
    """pi to the requested digits via Machin's arctangent identity."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    s = digits + guard_digits(digits)
    scaled = 4 * (4 * _arctan_inv_scaled(5, s) - _arctan_inv_scaled(239, s))
    return _wrap(scaled, s, digits)


# -- Ramanujan 1/pi series ----------------------------------------------


def _ramanujan_partial_scaled(terms: int | None, s: int) -> int:
    """pi * 10^s from the first `terms` series terms (all terms above
    the working scale when terms is None)."""
    unit = 10**s
    total = 0
    N = 1  # (4k)!/(k!)^4
    denom = 1  # 396^(4k)
    k = 0
    while True:
        term = N * (26390 * k + 1103) * unit // denom
        total += term
        k += 1
        if terms is not None and k >= terms:
            break
        if terms is None and term == 0:
            break
        step_num = N * (4 * k - 3) * (4 * k - 2) * (4 * k - 1) * (4 * k)
        N, rem = divmod(step_num, k**4)
        if rem:
            raise DomainError("multinomial recurrence failed to divide exactly")
        denom *= 396**4
    sqrt2 = math.isqrt(2 * 10 ** (2 * s))
    return 9801 * 10 ** (3 * s) // (2 * sqrt2 * total)


def pi_ramanujan(digits: int) -> BigDecimal:
    """pi via the 1914 reciprocal series; roughly 8 digits per term."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    s = digits + guard_digits(digits // 8 + 2)
    return _wrap(_ramanujan_partial_scaled(None, s), s, digits)


# -- Chudnovsky ----------------------------------------------------------


@dataclass(frozen=True)
class ChudnovskyState:
    """Term state (q, L, X, M, K) of the Chudnovsky recurrence."""

    q: int
    L: int
    X: int
    M: int
    K: int


CHUDNOVSKY_INITIAL = ChudnovskyState(q=0, L=_CHUD_A, X=1, M=1, K=6)


def chudnovsky_step(state: ChudnovskyState) -> ChudnovskyState:
    """Advance all four sequences by one index.

    M must stay an exact integer: (6q)!/((3q)!(q!)^3). The division in
    the K-form update is checked and any remainder is an error, which
    catches recurrence bugs immediately instead of corrupting digits.
    """
    num = state.M * (state.K**3 - 16 * state.K)
    M_next, rem = divmod(num, (state.q + 1) ** 3)
    if rem:
        raise DomainError(f"Chudnovsky M recurrence not integral at q={state.q}")
    return ChudnovskyState(
        q=state.q + 1,
        L=state.L + _CHUD_B,
        X=state.X * _CHUD_X,
        M=M_next,
        K=state.K + 12,
    )


def _chudnovsky_binsplit(terms: int, s: int) -> int:
    """pi * 10^s from the first `terms` series terms, summed exactly by
    binary splitting (Haible and Papanikolaou): each half of the index
    range returns the products P, Q and the numerator T of its partial
    sum over Q, and halves combine as (P1 P2, Q1 Q2, Q2 T1 + P1 T2)."""

    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            if a == 0:
                p = q = 1
            else:
                p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
                q = 10939058860032000 * a**3  # 640320^3 / 24 * a^3
            t = p * (_CHUD_A + _CHUD_B * a)
            return p, q, -t if a & 1 else t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, terms)
    c = 426880 * math.isqrt(10005 * 10 ** (2 * s))
    return c * q // t


def pi_chudnovsky(digits: int) -> BigDecimal:
    """pi to the requested digits from ceil(digits/14)+1 series terms,
    summed by binary splitting at every size.

    ChudnovskyState and chudnovsky_step keep the term-by-term recurrence
    as the integrality oracle that the selftest and the tests check
    binary splitting against.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    terms = -(-digits // 14) + 1
    s = digits + guard_digits(terms)
    return _wrap(_chudnovsky_binsplit(terms, s), s, digits)


# -- convergence reporter -------------------------------------------------

_REFERENCE_DIGITS = 2000


def _correct_digits(approx: int, reference: int, s: int) -> float:
    """-log10 of the absolute error between two scale-s integers."""
    err = abs(approx - reference)
    if err == 0:
        raise DomainError("term count exhausts the reference precision")
    text = str(err)
    head = text[:15]
    return s - (math.log10(int(head)) + (len(text) - len(head)))


def digits_per_term(method: str, terms: int) -> float:
    """Measured digit gain per added series term against a 2000-digit
    reference: (correct_digits(terms) - correct_digits(1)) / (terms-1)."""
    if terms < 2:
        raise DomainError("digits_per_term needs terms >= 2")
    partial = {
        "ramanujan": _ramanujan_partial_scaled,
        "chudnovsky": _chudnovsky_binsplit,
    }.get(method)
    if partial is None:
        raise DomainError(f"unknown method {method!r}")
    s = _REFERENCE_DIGITS
    ref = _chudnovsky_binsplit(-(-s // 14) + 2, s)
    d_many = _correct_digits(partial(terms, s), ref, s)
    d_one = _correct_digits(partial(1, s), ref, s)
    return (d_many - d_one) / (terms - 1)
