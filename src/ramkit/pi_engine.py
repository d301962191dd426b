"""Arbitrary-precision pi by four historical series and one
binary-splitting kernel.

Each series sums terms with a rational term ratio,
S(n) = sum_{k<n} a(k) prod_{j<=k} p(j)/q(j), so `binsplit` sums every
one exactly from its leaf k -> (p(k), q(k), a(k) p(k)) (Haible and
Papanikolaou, "Fast multiprecision evaluation of series of rational
numbers", ANTS 1998). The pi series take p(0) = q(0) = 1:

    madhava     pi = sqrt(12) * sum_k (-1)^k / ((2k+1) 3^k)
    machin      pi/4 = 4 arctan(1/5) - arctan(1/239)
                both: arctan-type leaf p = -(2k-1), q = (2k+1) x^2
    ramanujan   1/pi = (2 sqrt(2)/99^2) * sum_k (4k)!/(k!)^4 * (26390k+1103)/396^(4k)
                p = (4k-3)(4k-2)(4k-1)(4k), q = 396^4 k^4, a = 1103 + 26390k
    chudnovsky  426880 sqrt(10005)/pi = sum_k M_k L_k / X_k
                p = (6k-5)(2k-1)(6k-1), q = 640320^3/24 k^3, a = (-1)^k L_k

With p = +(2k-1) the arctan-type leaf sums atanh, for the log 2
reference in contfrac. Two more leaves in contfrac sum its zeta3 and
Catalan references, each gaining log10(4), about 0.60 digits, per
term; their first term is p(0)/q(0) times a(0):

    Apery       zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 C(2n,n))
                p = -k^3, q = 2 (k+1)^2 (2k+1), a = 1; p(0)/q(0) = 1/2
    Lupas       G = (1/64) sum_{n>=1} c_n (40n^2 - 24n + 3), c_1 = 32/9
                p = -32 k^3 (2k-1), q = (4k+1)^2 (4k+3)^2,
                a = 40k^2 + 56k + 19; p(0)/q(0) = 32/9

Term counts are fixed before the sum starts. The
exact T/Q becomes value * 10^working_scale, with guard digits, once,
and rounds half-even once at the end.
"""

import math
from dataclasses import dataclass

from . import DomainError
from .bigdec import BigDecimal, isqrt_scaled

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


# -- the kernel and its leaves -------------------------------------------


def binsplit(terms: int, leaf) -> tuple[int, int]:
    """(T, Q) with T/Q = sum_{k<terms} a(k) prod_{j<=k} p(j)/q(j) for
    terms >= 1, where leaf(k) = (p(k), q(k), a(k) p(k)); exact, and no
    step divides."""

    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            return leaf(a)
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, terms)
    return t, q


def atan_leaf(x2: int, sign: int = -1):
    """Leaf of sum_k sign^k / ((2k+1) x2^k), which is x arctan(1/x)
    (sign -1) or x atanh(1/x) (sign +1) for x2 = x^2."""

    def leaf(k: int) -> tuple[int, int, int]:
        if k == 0:
            return 1, 1, 1
        p = sign * (2 * k - 1)
        return p, (2 * k + 1) * x2, p

    return leaf


def atan_terms(x2: int, s: int) -> int:
    """Terms of the arctan-type sum that cover every k with
    x^(2k+1) <= 10^s, the terms still nonzero at scale s."""
    return int(s / math.log10(x2)) + 1


def madhava_terms(digits: int) -> int:
    """Default Madhava term count: the series gains log10(3), about
    0.477 digits, per term."""
    return math.ceil(digits / 0.47) + 10


def _ramanujan_leaf(k: int) -> tuple[int, int, int]:
    if k == 0:
        return 1, 1, 1103
    p = (4 * k - 3) * (4 * k - 2) * (4 * k - 1) * (4 * k)
    return p, 24591257856 * k**4, p * (1103 + 26390 * k)  # 396^4 k^4


def _ramanujan_terms(s: int) -> int:
    """Terms of the Ramanujan series past which every term lies below
    10^-s: (4k)!/(k!)^4 (26390k + 1103) < 10^3.6 256^k, and
    396^4/256 > 10^7.98."""
    return int(s / 7.98) + 2


def _chudnovsky_leaf(k: int) -> tuple[int, int, int]:
    if k == 0:
        return 1, 1, _CHUD_A
    p = (6 * k - 5) * (2 * k - 1) * (6 * k - 1)
    t = p * (_CHUD_A + _CHUD_B * k)
    return p, 10939058860032000 * k**3, -t if k & 1 else t  # 640320^3 / 24 k^3


def chudnovsky_terms(digits: int) -> int:
    """Chudnovsky term count: ceil(digits/14) + 1, at about 14.18
    digits per term."""
    return -(-digits // 14) + 1


def _pi_scaled(method: str, terms: int, s: int) -> int:
    """pi * 10^s from the first `terms` terms of the Ramanujan or the
    Chudnovsky series."""
    if method == "ramanujan":
        t, q = binsplit(terms, _ramanujan_leaf)
        return 9801 * q * 10 ** (2 * s) // (2 * isqrt_scaled(2, s) * t)
    t, q = binsplit(terms, _chudnovsky_leaf)
    return 426880 * isqrt_scaled(10005, s) * q // t


# -- the four series ------------------------------------------------------


def pi_madhava(terms: int, digits: int) -> BigDecimal:
    """Partial sum of the Madhava series times sqrt(12)."""
    if terms < 1 or digits < 1:
        raise DomainError("terms and digits must be >= 1")
    s = digits + guard_digits(terms)
    t, q = binsplit(terms, atan_leaf(3))
    return _wrap(isqrt_scaled(12, s) * t // q, s, digits)


def pi_machin(digits: int) -> BigDecimal:
    """pi to the requested digits via Machin's arctangent identity."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    s = digits + guard_digits(digits)
    unit = 10**s
    t5, q5 = binsplit(atan_terms(25, s), atan_leaf(25))
    t239, q239 = binsplit(atan_terms(239**2, s), atan_leaf(239**2))
    scaled = 4 * (4 * (unit * t5 // (5 * q5)) - unit * t239 // (239 * q239))
    return _wrap(scaled, s, digits)


def pi_ramanujan(digits: int) -> BigDecimal:
    """pi via the 1914 reciprocal series; roughly 8 digits per term."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    s = digits + guard_digits(digits // 8 + 2)
    return _wrap(_pi_scaled("ramanujan", _ramanujan_terms(s), s), s, digits)


def pi_chudnovsky(digits: int) -> BigDecimal:
    """pi to the requested digits from chudnovsky_terms(digits) terms."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    terms = chudnovsky_terms(digits)
    s = digits + guard_digits(terms)
    return _wrap(_pi_scaled("chudnovsky", terms, s), s, digits)


# -- Chudnovsky recurrence oracle ------------------------------------------
#
# ChudnovskyState and chudnovsky_step keep the term-by-term recurrence as
# the integrality oracle that the selftest and the tests check binary
# splitting against.


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
    if method not in ("ramanujan", "chudnovsky"):
        raise DomainError(f"unknown method {method!r}")
    s = _REFERENCE_DIGITS
    ref = _pi_scaled("chudnovsky", chudnovsky_terms(s) + 1, s)
    d_many = _correct_digits(_pi_scaled(method, terms, s), ref, s)
    d_one = _correct_digits(_pi_scaled(method, 1, s), ref, s)
    return (d_many - d_one) / (terms - 1)
