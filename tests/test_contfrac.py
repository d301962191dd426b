"""Continued fractions: evaluation, expansion, registry, special values."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramkit import DomainError
from ramkit.bigdec import BigDecimal, exp_bd
from ramkit.contfrac import (
    CFSpec,
    _apery_terms,
    _e_terms,
    _lupas_terms,
    eval_cf,
    gamma_bd,
    gamma_ratio_cf_check,
    load_registry,
    reference_constant,
    rogers_ramanujan_R,
    rr_series_quotient,
    simple_cf_expand,
    verify_conjecture,
)
from ramkit.bigdec import ln_bd
from ramkit.pi_engine import guard_digits, pi_chudnovsky

REFERENCE_20 = {
    "pi": "3.14159265358979323846",
    "e": "2.71828182845904523536",
    "log2": "0.69314718055994530942",
    "catalan": "0.91596559417721901505",
    "zeta3": "1.20205690315959428540",
}


def fold_back(coeffs) -> Fraction:
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def test_cfspec_validation():
    with pytest.raises(DomainError):
        CFSpec(a0=1, depth=-1, a_poly=(1,), b_poly=(1,))
    with pytest.raises(DomainError):
        CFSpec(a0=1, depth=5, a_poly=(1,) * 8, b_poly=(1,))  # degree 7
    with pytest.raises(DomainError):
        CFSpec(a0=1, depth=5, a_poly=(1,), b_poly=(0.5,))
    spec = CFSpec(a0=1, depth=3, a_poly=(1, 1), b_poly=(1,))
    assert spec.term_a(2) == 3 and spec.term_b(3) == 1


def test_eval_rational_cf_exact():
    # a_n = n + 1, b_n = 1: the simple fraction [39; 2, 3, 4, 5, 6, 7]
    spec = CFSpec(a0=39, depth=6, a_poly=(1, 1), b_poly=(1,))
    result = eval_cf(spec, 20)
    assert result.exact == fold_back([39, 2, 3, 4, 5, 6, 7])
    assert result.value == BigDecimal.from_fraction(result.exact, 20)


def test_eval_golden_ratio():
    spec = CFSpec(a0=1, depth=80, a_poly=(1,), b_poly=(1,))
    result = eval_cf(spec, 30)
    phi = (BigDecimal.from_int(5).sqrt(40).as_fraction() + 1) / 2
    assert abs(result.value.as_fraction() - phi) < Fraction(1, 10**29)


def test_eval_pi_arctan_like_cf():
    # pi = 3 + 1^2/(6 + 3^2/(6 + 5^2/(6 + ...))), error ~ 1/depth^2
    spec = CFSpec(a0=3, depth=10**4, a_poly=(6,), b_poly=(4, -4, 1))
    result = eval_cf(spec, 20)
    err = abs(result.value.as_fraction() - pi_chudnovsky(30).as_fraction())
    assert err < Fraction(5, 10**4)
    assert result.error is not None


def test_simple_cf_expand_rational():
    res = simple_cf_expand(Fraction(5000, 127), 50)
    assert list(res.coeffs) == [39, 2, 1, 2, 2, 1, 4]
    assert not res.truncated
    # canonical form never ends in 1 (except the single-term expansion)
    res2 = simple_cf_expand(Fraction(7, 2), 50)
    assert list(res2.coeffs) == [3, 2]


@given(
    num=st.integers(-10**30, 10**30),
    den=st.integers(1, 10**30),
)
@settings(max_examples=300)
def test_simple_cf_expand_folds_back_to_the_fraction(num, den):
    x = Fraction(num, den)
    res = simple_cf_expand(x, 1000)  # a denominator below 10^30 needs at most 146 terms
    assert not res.truncated
    assert all(a >= 1 for a in res.coeffs[1:])
    assert len(res.coeffs) == 1 or res.coeffs[-1] >= 2  # canonical
    value = Fraction(res.coeffs[-1])
    for a in reversed(res.coeffs[:-1]):
        value = a + 1 / value
    assert value == x


def test_simple_cf_expand_pi_and_e():
    pi40 = reference_constant("pi", 40)
    assert list(simple_cf_expand(pi40, 5).coeffs) == [3, 7, 15, 1, 292]
    e40 = reference_constant("e", 40)
    assert list(simple_cf_expand(e40, 12).coeffs) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_simple_cf_expand_certifies_precision():
    # at 6 digits the +/- 1 ulp interval certifies exactly two terms:
    # 3.141593 continues [3; 7, 16, ...] while pi has [3; 7, 15, ...],
    # and the interval straddles that split
    res = simple_cf_expand(pi_chudnovsky(6), 30)
    assert res.truncated
    assert res.coeffs == (3, 7)


def test_round_trip_random_rationals():
    rng = random.Random(20260816)
    for _ in range(200):
        fr = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        res = simple_cf_expand(fr, 200)
        assert not res.truncated
        assert fold_back(res.coeffs) == fr


def test_reference_constants_20_digits():
    for name, expected in REFERENCE_20.items():
        assert str(reference_constant(name, 20)) == expected
    with pytest.raises(DomainError):
        reference_constant("gamma", 20)


def loop_e(digits: int) -> BigDecimal:
    """Oracle: the e reference's working scale, sum 1/k! term by term
    until a floored term underflows."""
    w = digits + 15
    term = total = 10**w
    k = 1
    while term:
        term //= k
        total += term
        k += 1
    return BigDecimal(total, w).at_scale(digits)


def loop_log2(digits: int) -> BigDecimal:
    """Oracle: the log2 reference's working scale, 2 atanh(1/3) summed
    term by term until a floored term underflows."""
    w = digits + 15
    p = 10**w // 3  # 10^w / 3^(2k+1)
    total, k = 0, 0
    while p:
        total += p // (2 * k + 1)
        p //= 9
        k += 1
    return BigDecimal(2 * total, w).at_scale(digits)


def test_e_terms_cover_every_nonzero_term():
    # the fixed count reaches the first term a floored loop sees vanish
    for w in range(1, 601):
        term, nonzero = 10**w, 0  # 10^w / k!
        while term:
            nonzero += 1
            term //= nonzero
        assert _e_terms(w) >= nonzero, w


def test_e_and_log2_references_match_term_by_term_loops():
    for digits in range(1, 501):
        assert str(reference_constant("e", digits)) == str(loop_e(digits)), digits
        assert str(reference_constant("log2", digits)) == str(loop_log2(digits)), digits


def test_reference_constants_10_digit_rounding():
    assert str(reference_constant("catalan", 10)) == "0.9159655942"
    assert str(reference_constant("zeta3", 10)) == "1.2020569032"


def test_apery_terms_cover_every_nonzero_term():
    # the fixed count reaches the first term a floored loop sees vanish
    for w in range(1, 601):
        term, n = 10**w // 2, 1  # 10^w / (n^3 C(2n,n))
        while term:
            term = term * n**3 // (2 * (n + 1) ** 2 * (2 * n + 1))
            n += 1
        assert _apery_terms(w) >= n - 1, w


def test_lupas_terms_cover_every_nonzero_term():
    # the fixed count reaches the first term a floored loop sees vanish
    def a(n):
        return 40 * n * n - 24 * n + 3

    for w in range(1, 601):
        term, n = 10**w * 32 * a(1) // (9 * 64), 1  # 10^w |c_n| a(n) / 64
        while term:
            term = term * 32 * n**3 * (2 * n - 1) * a(n + 1) // (
                (4 * n + 1) ** 2 * (4 * n + 3) ** 2 * a(n))
            n += 1
        assert _lupas_terms(w) >= n - 1, w


def alternating_accel(a_den, digits: int) -> Fraction:
    """Oracle: Chebyshev acceleration of sum_k (-1)^k / a_den(k) for
    positive increasing a_den; error falls like (3+sqrt 8)^-n with n
    terms."""
    n = int(1.35 * (digits + 8)) + 4
    dprev, d = 1, 3  # d_n = ((3+2sqrt2)^n + (3-2sqrt2)^n)/2, Pell recurrence
    for _ in range(n - 1):
        dprev, d = d, 6 * d - dprev
    unit = 10 ** (digits + 12)
    b, c, s = -1, -d, 0
    for k in range(n):
        c = b - c
        s += c * unit // a_den(k)
        b, r = divmod(2 * b * (k + n) * (k - n), (2 * k + 1) * (k + 1))
        assert r == 0
    return Fraction(s, d * unit)


def catalan_via_binomial(digits: int) -> BigDecimal:
    """Oracle: G = (pi/8) ln(2+sqrt3) + (3/8) sum_{n>=0}
    1/(binom(2n,n)(2n+1)^2)."""
    w = digits + 12
    unit = 10 ** w
    t, total, n = unit, unit, 1
    while t:
        t = t * n * (2 * n - 1) // (2 * (2 * n + 1) ** 2)
        total += t
        n += 1
    s = BigDecimal(3 * total, w)
    root3 = BigDecimal.from_int(3).sqrt(w + 4).at_scale(w)
    lnpart = ln_bd(root3 + BigDecimal.from_int(2).at_scale(w), w)
    value = pi_chudnovsky(w) * lnpart + s
    return value.divide(BigDecimal.from_int(8), digits)


def zeta3_via_binomial(digits: int) -> BigDecimal:
    """Oracle: Apery's series zeta(3) = (5/2) sum (-1)^(n-1) /
    (n^3 binom(2n,n)), summed term by term."""
    w = digits + 12
    unit = 10 ** w
    t = unit // 2  # n = 1
    total, sign, n = t, 1, 2
    while t:
        t = t * (n - 1) ** 3 // (2 * n * n * (2 * n - 1))
        sign = -sign
        total += sign * t
        n += 1
    return BigDecimal.from_fraction(Fraction(5 * total, 2 * unit), digits)


def test_accelerated_sums_cross_checked():
    # the accelerated alternating sums for G and (4/3) eta(3) sum in a
    # structurally different way from the Lupas and Apery leaves
    for digits in range(1, 501):
        catalan = alternating_accel(lambda k: (2 * k + 1) ** 2, digits)
        eta3 = alternating_accel(lambda k: (k + 1) ** 3, digits)
        assert str(reference_constant("catalan", digits)) == str(
            BigDecimal.from_fraction(catalan, digits)), digits
        assert str(reference_constant("zeta3", digits)) == str(
            BigDecimal.from_fraction(Fraction(4, 3) * eta3, digits)), digits
    # and so do the binomial series
    assert str(catalan_via_binomial(120)) == str(reference_constant("catalan", 120))
    assert str(zeta3_via_binomial(120)) == str(reference_constant("zeta3", 120))


def test_registry_loads_and_validates():
    registry = load_registry()
    assert set(registry) == {"pi", "e", "log2", "catalan", "zeta3"}
    assert registry["pi"].status == "proved"
    assert all(registry[n].status == "unproved" for n in ("e", "log2", "catalan", "zeta3"))


def test_verify_fast_records():
    for name, digits, max_depth in (
        ("pi", 50, 200),
        ("e", 50, 50),
        ("log2", 30, 200),
        ("catalan", 30, 200),
    ):
        res = verify_conjecture(name, digits)
        assert res.match and res.converged, name
        assert res.depth_used <= max_depth
        assert res.abs_error.as_fraction() < Fraction(1, 10**digits)


def test_verify_zeta3_low_precision():
    res = verify_conjecture("zeta3", 10)
    assert res.match and res.converged
    assert res.depth_used > 10**4  # noticeably slower than the others


@pytest.mark.xfail(
    strict=True,
    reason="the zeta3 fraction gains digits like 0.35/depth^2; 30 digits "
    "needs depth near 10^15, far past the 10^6 evaluation cap",
)
def test_verify_zeta3_30_digits():
    res = verify_conjecture("zeta3", 30)
    assert res.match


def test_rogers_ramanujan_values():
    q = BigDecimal.parse("0.1")
    r = rogers_ramanujan_R(q, 25, 120)
    assert str(r) == "0.5741138289319195966310740"
    s = rr_series_quotient(q, 25, 60)
    assert r.as_fraction() == s.as_fraction()
    # R(q) / q^(1/5) -> 1 as q -> 0; q = 10^-5 has fifth root exactly 0.1
    tiny = BigDecimal.parse("0.00001")
    ratio = rogers_ramanujan_R(tiny, 20, 60).divide(
        BigDecimal.from_fraction(Fraction(1, 10), 20), 20
    )
    assert abs(ratio.as_fraction() - 1) < Fraction(1, 10**4)


def test_rogers_ramanujan_closed_form():
    digits = 30
    w = digits + 10
    pi_w = pi_chudnovsky(w)
    q = exp_bd(BigDecimal(-2 * pi_w.mantissa, pi_w.scale), w)
    r = rogers_ramanujan_R(q, digits, 80)
    s5 = BigDecimal.from_int(5).sqrt(w).as_fraction()
    closed = BigDecimal.from_fraction((5 + s5) / 2, 2 * w).sqrt(w).as_fraction() - (
        s5 + 1
    ) / 2
    assert abs(r.as_fraction() - closed) < Fraction(1, 10**digits)


def test_gamma_known_values():
    assert str(gamma_bd(5, 6)) == "24.000000"
    assert str(gamma_bd(1, 10)) == "1.0000000000"
    # Gamma(1/2) = sqrt(pi)
    g = gamma_bd(Fraction(1, 2), 40)
    assert str(g) == "1.7724538509055160272981674833411451827975"
    # functional equation Gamma(z+1) = z Gamma(z)
    z = Fraction(7, 4)
    lhs = gamma_bd(z + 1, 30).as_fraction()
    rhs = z * gamma_bd(z, 32).as_fraction()
    assert abs(lhs - rhs) < Fraction(1, 10**28)
    with pytest.raises(DomainError):
        gamma_bd(0, 10)
    with pytest.raises(DomainError):
        gamma_bd(25, 10)


def test_gamma_ratio_cf_error_law():
    # tail error decays like depth^(-x): slow at x=1, fast at x=3
    c1 = gamma_ratio_cf_check(1, digits=20, depth=10**4)
    assert float(c1.abs_error) < 1e-3
    c3 = gamma_ratio_cf_check(3, digits=25, depth=10**4)
    assert float(c3.abs_error) < 1e-11
    c3b = gamma_ratio_cf_check(3, digits=25, depth=2 * 10**4)
    assert float(c3b.abs_error) < float(c3.abs_error)
    # rational argument goes through the integerized recurrence
    c52 = gamma_ratio_cf_check(Fraction(5, 2), digits=25, depth=2 * 10**4)
    assert float(c52.abs_error) < 1e-10


def test_verify_runtime_budget():
    start = time.monotonic()
    verify_conjecture("pi", 50)
    verify_conjecture("e", 50)
    verify_conjecture("log2", 30)
    verify_conjecture("catalan", 30)
    assert time.monotonic() - start < 20.0


def test_reference_constants_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    targets = {
        "pi": mpmath.pi,
        "e": mpmath.e,
        "log2": mpmath.log(2),
        "catalan": mpmath.catalan,
        "zeta3": mpmath.zeta(3),
    }
    for name, target in targets.items():
        ours = mpmath.mpf(str(reference_constant(name, 40)))
        assert abs(ours - mpmath.mpf(target)) < mpmath.mpf(10) ** -39, name


def test_gamma_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for num, den in ((1, 2), (7, 3), (5, 1), (19, 4), (1, 10)):
        ours = mpmath.mpf(str(gamma_bd(Fraction(num, den), 40)))
        target = mpmath.gamma(mpmath.mpf(num) / den)
        assert abs(ours - target) < mpmath.mpf(10) ** -36, (num, den)


def test_simple_cf_convergents_alternate():
    pi_v = reference_constant("pi", 60)
    e_v = reference_constant("e", 60)
    phi = (1 + reference_constant("sqrt5", 60).as_fraction()) / 2
    cases = [
        (simple_cf_expand(pi_v, 20).coeffs, pi_v.as_fraction()),
        (simple_cf_expand(e_v, 20).coeffs, e_v.as_fraction()),
        ((1,) * 25, phi),
    ]
    for coeffs, target in cases:
        diffs = [
            fold_back(coeffs[: i + 1]) - target for i in range(len(coeffs))
        ]
        assert all(a * b < 0 for a, b in zip(diffs, diffs[1:]))


def test_registry_error_monotone_in_depth():
    for name, rec in load_registry().items():
        target = rec.lhs_value(35).as_fraction()
        errs = []
        for depth in (10, 20, 40, 80, 160):
            got = eval_cf(rec.cf_spec(depth), 35).value.as_fraction()
            errs.append(abs(got - target))
        assert all(b <= a for a, b in zip(errs, errs[1:])), (name, errs)


# -- the streaming kernel against the restart-per-rung ladder ---------------


def _decimal_rescale_recurrence(a0, pairs, w):
    """The convergent recurrence with floor division by a fresh power of
    ten whenever a track outgrows w+60 digits (reference form)."""
    hp, h, kp, k = 1, a0, 0, 1
    cap_bits = int((w + 60) * math.log2(10))
    for an, bn in pairs:
        h, hp = an * h + bn * hp, h
        k, kp = an * k + bn * kp, k
        m = max(h.bit_length(), k.bit_length(), hp.bit_length(), kp.bit_length())
        if m > cap_bits:
            drop = 10 ** (int(m * math.log10(2)) - (w + 10))
            h, hp, k, kp = h // drop, hp // drop, k // drop, kp // drop
    return h, k, hp, kp


def _ladder_verify(rec, digits):
    """Depth ladder 50*2^j (capped at 10^6) that restarts the recurrence
    at n = 1 on every rung, evaluating terms by Horner."""
    w = digits + 15
    lhs = rec.lhs_value(w)
    depth = 50
    while True:
        spec = rec.cf_spec(depth)
        pairs = ((spec.term_a(n), spec.term_b(n)) for n in range(1, depth + 1))
        h, k, hp, kp = _decimal_rescale_recurrence(rec.a0, pairs, w + guard_digits(depth + 2))
        value = BigDecimal.from_fraction(Fraction(h, k), w)
        step = BigDecimal.from_fraction(abs(Fraction(h, k) - Fraction(hp, kp)), w + 10)
        converged = step.as_fraction() < Fraction(1, 10 ** (digits + 5))
        if converged or depth >= 10**6:
            break
        depth = min(2 * depth, 10**6)
    err = abs(value - lhs).as_fraction()
    return depth, converged, err < Fraction(1, 10**digits), err


@pytest.mark.parametrize(
    "name,digits",
    [(name, d) for name in ("pi", "e", "log2", "catalan") for d in (10, 20, 45, 80, 120)]
    + [("zeta3", d) for d in (6, 7, 8, 9, 10, 11)],
)
def test_verify_matches_restarting_ladder(name, digits):
    rec = load_registry()[name]
    res = verify_conjecture(rec, digits)
    depth, converged, match, err = _ladder_verify(rec, digits)
    assert (res.depth_used, res.converged, res.match) == (depth, converged, match)
    assert abs(res.abs_error.as_fraction() - err) < Fraction(1, 10 ** (digits + 14))


def test_verify_zeta3_abs_error_against_euler_closed_form():
    # the zeta3 record's depth-n convergent is exactly 1/sum_{k<=n+1} k^-3
    mpmath = pytest.importorskip("mpmath")
    for digits in (6, 9, 11, 12):
        res = verify_conjecture("zeta3", digits)
        with mpmath.workdps(digits + 40):
            conv = 1 / (mpmath.zeta(3) - mpmath.zeta(3, res.depth_used + 2))
            true = abs(conv - 1 / mpmath.zeta(3))
            got = mpmath.mpf(res.abs_error.mantissa) / mpmath.mpf(10) ** res.abs_error.scale
            assert abs(got - true) < mpmath.mpf(10) ** -(digits + 14), digits


def test_eval_cf_at_depth_one_million_is_correctly_rounded():
    # 10^6 steps rescale over 10^5 times; floored rescales drifted the
    # 20-digit value 2 ulp high (...350260 for ...350258)
    mpmath = pytest.importorskip("mpmath")
    depth, digits = 10**6, 20
    res = eval_cf(load_registry()["zeta3"].cf_spec(depth), digits)
    with mpmath.workdps(digits + 40):
        conv = 1 / (mpmath.zeta(3) - mpmath.zeta(3, depth + 2))
        want = int(mpmath.nint(conv * mpmath.mpf(10) ** digits))
    assert res.value == BigDecimal(want, digits)
    assert str(res.value) == "0.83190737258105350258"


def _positive_poly(max_degree):
    # nonnegative coefficients with a positive constant term, so every
    # term is positive for n >= 1
    return st.tuples(
        st.lists(st.integers(0, 9), max_size=max_degree), st.integers(1, 9)
    ).map(lambda t: tuple(t[0]) + (t[1],))


@given(
    a0=st.integers(0, 9),
    a_poly=_positive_poly(3),
    b_poly=_positive_poly(4),
    depth=st.integers(1, 5000),
    digits=st.integers(10, 60),
)
@settings(max_examples=25)
def test_eval_cf_matches_mpmath_backward_evaluation(a0, a_poly, b_poly, depth, digits):
    mpmath = pytest.importorskip("mpmath")
    spec = CFSpec(a0=a0, depth=depth, a_poly=a_poly, b_poly=b_poly)
    res = eval_cf(spec, digits)
    with mpmath.workdps(digits + 30):
        t = mpmath.mpf(spec.term_a(depth))
        for n in range(depth - 1, 0, -1):
            t = spec.term_a(n) + spec.term_b(n + 1) / t
        ref = a0 + spec.term_b(1) / t
        got = mpmath.mpf(res.value.mantissa) / mpmath.mpf(10) ** res.value.scale
        assert abs(got - ref) <= mpmath.mpf(10) ** -digits


@given(
    a0=st.integers(-9, 9),
    a_poly=_positive_poly(2),
    b_poly=_positive_poly(2),
    depth=st.integers(0, 12),
    digits=st.integers(1, 40),
)
@settings(max_examples=60)
def test_eval_cf_exact_without_rescale(a0, a_poly, b_poly, depth, digits):
    # terms stay below 10^4, so twelve steps never reach the rescale cap
    spec = CFSpec(a0=a0, depth=depth, a_poly=a_poly, b_poly=b_poly)
    tail = Fraction(0)
    for n in range(depth, 0, -1):
        tail = spec.term_b(n) / (spec.term_a(n) + tail)
    res = eval_cf(spec, digits)
    assert res.exact is not None
    assert res.exact == a0 + tail
    assert res.value == BigDecimal.from_fraction(a0 + tail, digits)


def test_eval_cf_rescaled_result_is_not_exact():
    spec = load_registry()["zeta3"].cf_spec(2000)
    assert eval_cf(spec, 20).exact is None
