"""Ramanujan sums, tau, subspace bases, decomposition, period ranking."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramkit import DomainError
from ramkit.numtheory import divisors, gcd, mobius, totient
from ramkit.ram_signal import (
    Signal,
    check_sum_properties,
    check_tau_bound,
    estimate_periods,
    fir_decompose,
    parse_samples,
    ramanujan_basis,
    ramanujan_sum,
    ramanujan_sum_trig,
    rf_partial_sum,
    tau_coefficients,
)

C6_ROW = [2, 1, -1, -2, -1, 1, 2, 1, -1, -2, -1, 1]


def divisor_sum(q: int, n: int) -> int:
    """Oracle: c_q(n) = sum_{d | gcd(q, n)} mu(q/d) d."""
    return sum(mobius(q // d) * d for d in divisors(gcd(q, abs(n))))


def minimal_period(samples) -> int:
    """Oracle: smallest divisor d of len(samples) with
    samples[i] == samples[i mod d]."""
    n = len(samples)
    return next(d for d in divisors(n) if all(samples[i] == samples[i % d] for i in range(n)))


def test_c6_table():
    assert [ramanujan_sum(6, n) for n in range(12)] == C6_ROW


def test_c_q_basics():
    for q in range(1, 101):
        assert ramanujan_sum(q, 0) == totient(q)
    assert all(ramanujan_sum(1, n) == 1 for n in range(20))
    # even and periodic in n
    assert ramanujan_sum(9, -4) == ramanujan_sum(9, 4)
    assert ramanujan_sum(9, 13) == ramanujan_sum(9, 4)
    with pytest.raises(DomainError):
        ramanujan_sum(0, 3)


def test_closed_form_matches_divisor_sum():
    for q in range(1, 201):
        for n in range(-3, 2 * q + 3):
            assert ramanujan_sum(q, n) == divisor_sum(q, n), (q, n)


def test_closed_form_needs_no_divisors_of_q():
    # the divisor sum trial-divides gcd(q, 0) = q up to sqrt(q) = 10^10
    assert ramanujan_sum(10**20, 0) == 4 * 10**19
    assert ramanujan_sum(10**20, 1) == 0
    assert ramanujan_sum(10**12 + 39, 5) == -1  # a prime q


def test_trig_definition_agrees():
    for q in range(1, 101):
        for n in range(q):
            assert abs(ramanujan_sum_trig(q, n) - ramanujan_sum(q, n)) < 1e-9


def test_property_report_clean():
    report = check_sum_properties(30, 60)
    assert report.ok
    assert report.violations == ()
    assert report.orthogonal_pairs == 435
    assert report.coprime_pairs == 44
    assert report.diagonal_sums[6] == 12  # q * phi(q) observed, not asserted
    assert all(v > 0 for v in report.diagonal_sums.values())
    with pytest.raises(DomainError):
        check_sum_properties(0, 10)
    with pytest.raises(DomainError):
        check_sum_properties(201, 10)


def test_multiplicativity_exhaustive():
    for q1 in range(1, 31):
        for q2 in range(1, 31):
            if gcd(q1, q2) != 1:
                continue
            for n in range(q1 * q2):
                assert ramanujan_sum(q1 * q2, n) == ramanujan_sum(q1, n) * ramanujan_sum(
                    q2, n
                )


def test_orthogonality_over_lcm_period():
    for q1 in range(1, 21):
        for q2 in range(q1 + 1, 21):
            l = q1 * q2 // gcd(q1, q2)
            assert sum(ramanujan_sum(q1, n) * ramanujan_sum(q2, n) for n in range(l)) == 0


def shifted_correlation_trend(r: int, s: int, h: int = 0, xs=(1000, 10000)):
    """Oracle: the limit of (1/x) sum_{n<=x} c_r(n) c_s(n+h), which is 0
    for r != s and c_r(h) for r = s, with the averages at the cutoffs
    xs. No finite x witnesses the limit, so only the trend is checked."""
    target = ramanujan_sum(r, h) if r == s else 0
    cr = [ramanujan_sum(r, n) for n in range(r)]
    cs = [ramanujan_sum(s, n) for n in range(s)]
    averages = [sum(cr[n % r] * cs[(n + h) % s] for n in range(1, x + 1)) / x for x in xs]
    return target, averages


def test_correlation_trend():
    for r, s, h, limit in ((6, 6, 0, 2), (6, 6, 2, -1), (2, 3, 0, 0)):
        target, averages = shifted_correlation_trend(r, s, h)
        errs = [abs(a - target) for a in averages]
        assert target == limit, (r, s, h)
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])), (r, s, h)


def test_rf_partial_sum_sigma():
    assert abs(rf_partial_sum("sigma", 6, 10**4) - 12) / 12 < 0.01
    assert abs(rf_partial_sum("sigma", 7, 10**4) - 8) / 8 < 0.01


def test_rf_partial_sum_divisor_trend():
    # the log-weighted series oscillates while closing in on d(6) = 4
    errs = {Q: abs(rf_partial_sum("divisor_d", 6, Q) - 4) for Q in (100, 10**4, 10**5)}
    assert errs[10**4] < errs[100]
    assert errs[10**5] < errs[100] / 3
    assert errs[10**5] < 0.05
    with pytest.raises(DomainError):
        rf_partial_sum("sigma_squared", 6, 100)


def test_tau_initial_coefficients():
    assert tau_coefficients(5) == [1, -24, 252, -1472, 4830]
    taus = tau_coefficients(10)
    assert taus[5] == -6048  # tau(6) = tau(2) tau(3)
    assert taus[3] == taus[1] ** 2 - 2**11 * taus[0]


def pentagonal_tau(n_max: int) -> list[int]:
    """Oracle: tau(1..n_max) from Euler's pentagonal series for
    prod (1-q^k), multiplied into a dense array 24 times."""
    pent = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 < n_max:
        sign = -1 if k % 2 else 1
        pent += [(d, sign) for d in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if d < n_max]
        k += 1
    arr = [1] + [0] * (n_max - 1)
    for _ in range(24):
        out = [0] * n_max
        for off, sign in pent:
            for i in range(n_max - off):
                out[i + off] += sign * arr[i]
        arr = out
    return arr


def test_tau_matches_pentagonal_product():
    for n in range(1, 61):
        assert tau_coefficients(n) == pentagonal_tau(n), n
    assert tau_coefficients(2000) == pentagonal_tau(2000)


def test_tau_multiplicative():
    taus = tau_coefficients(4900)
    for m in range(1, 71):
        for n in range(m + 1, 71):
            if gcd(m, n) == 1:
                assert taus[m * n - 1] == taus[m - 1] * taus[n - 1]


def test_tau_prime_power_recurrence():
    taus = tau_coefficients(3200)
    for p in (2, 3, 5):
        for j in range(1, 5):
            if p ** (j + 1) <= 3200:
                assert (
                    taus[p ** (j + 1) - 1]
                    == taus[p - 1] * taus[p**j - 1] - p**11 * taus[p ** (j - 1) - 1]
                )


def test_tau_bound():
    report = check_tau_bound(1000)
    assert report.holds
    assert report.primes_checked == 168
    assert report.worst_prime == 103
    assert abs(report.max_ratio - 0.959407) < 1e-5
    with pytest.raises(DomainError):
        check_tau_bound(1)
    with pytest.raises(DomainError):
        tau_coefficients(5001)


def test_ramanujan_basis_b6():
    basis = ramanujan_basis(6)
    assert basis.matrix[0] == (2, 1, -1, -2, -1, 1)
    assert basis.rank == 2
    assert len(basis.basis_cols) == 2
    # circulant and symmetric
    for j in range(6):
        for k in range(6):
            assert basis.matrix[j][k] == basis.matrix[k][j]
            assert basis.matrix[j][k] == basis.matrix[(j + 1) % 6][(k + 1) % 6]


def test_ramanujan_basis_rank_is_totient():
    for q in range(1, 51):
        assert ramanujan_basis(q).rank == totient(q)
    assert ramanujan_basis(1).matrix == ((1,),)


def test_fir_decompose_isolates_c6():
    x = Signal(tuple(C6_ROW))
    dec = fir_decompose(x)
    assert dec.exact and dec.residual_norm == 0.0
    assert list(dec.components[6]) == C6_ROW
    for q, comp in dec.components.items():
        if q != 6:
            assert all(v == 0 for v in comp)


def test_fir_decompose_constant_signal():
    dec = fir_decompose(Signal((5,) * 12))
    assert all(v == 5 for v in dec.components[1])
    assert all(
        all(v == 0 for v in comp) for q, comp in dec.components.items() if q != 1
    )


def test_fir_decompose_c3_plus_c7():
    x = tuple(ramanujan_sum(3, n) + ramanujan_sum(7, n) for n in range(21))
    dec = fir_decompose(Signal(x))
    nonzero = sorted(q for q, comp in dec.components.items() if any(comp))
    assert nonzero == [3, 7]
    assert dec.reconstruction() == x
    assert minimal_period(dec.reconstruction()) == 21


def _direct_projection(samples, q, indices):
    """x_q[i] = (1/N) sum_j x[j] c_q((i - j) mod q), by direct convolution."""
    n = len(samples)
    row = [ramanujan_sum(q, m) for m in range(q)]
    return [
        sum(x * row[(i - j) % q] for j, x in enumerate(samples)) / Fraction(n)
        for i in indices
    ]


def test_fir_exact_reconstruction_small_lengths():
    rng = random.Random(123)
    for n in [*range(1, 37), 180, 240, 2520]:
        samples = tuple(rng.randrange(-9, 10) for _ in range(n))
        dec = fir_decompose(Signal(samples))
        assert dec.exact
        assert dec.reconstruction() == samples
        for q, comp in dec.components.items():
            assert comp == comp[:q] * (n // q)
            # the direct convolution is O(N) per sample; spot-check N = 2520
            indices = range(q) if n <= 240 else sorted({0, q // 2, q - 1})
            assert [comp[i] for i in indices] == _direct_projection(
                samples, q, indices
            )
            assert all(
                type(v) is int for v in comp if Fraction(v).denominator == 1
            )


def test_fir_float_residual_small():
    rng = random.Random(5)
    samples = tuple(float(rng.randrange(-9, 10)) for _ in range(24))
    dec = fir_decompose(Signal(samples))
    assert not dec.exact
    recon = dec.reconstruction()
    assert max(abs(a - b) for a, b in zip(recon, samples)) < 1e-9
    assert dec.residual_norm < 1e-9


def test_fir_complex_and_float_components():
    rng = random.Random(9)
    n = 24
    re = [rng.uniform(-3, 3) for _ in range(n)]
    im = [rng.uniform(-3, 3) for _ in range(n)]
    for samples, kind in (
        (tuple(complex(a, b) for a, b in zip(re, im)), complex),
        (tuple(complex(a, 0) for a in re), float),
        (parse_samples("".join(f"{i},0\n" for i in range(n))).samples, float),
    ):
        dec = fir_decompose(Signal(samples))
        assert not dec.exact
        assert dec.residual_norm < 1e-12
        for q, comp in dec.components.items():
            assert all(type(v) is kind for v in comp)
            want = [complex(v) for v in _direct_projection(samples, q, range(n))]
            tol = 1e-12 * (1 + max(abs(v) for v in samples))
            assert max(abs(a - b) for a, b in zip(comp, want)) < tol


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 300).flatmap(
        lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    )
)
def test_fir_exact_projection_properties(samples):
    samples = tuple(samples)
    n = len(samples)
    dec = fir_decompose(Signal(samples))
    assert dec.exact and dec.residual_norm == 0.0
    assert dec.reconstruction() == samples
    scaled = {}
    for q, comp in dec.components.items():
        assert all(comp[i] == comp[i % q] for i in range(n))
        scaled[q] = [int(v * n) for v in comp]  # N * x_q is integral
    for q, r in combinations(scaled, 2):
        assert sum(a * b for a, b in zip(scaled[q], scaled[r])) == 0


def test_estimate_periods_clean_and_noisy():
    x = tuple(ramanujan_sum(3, n) + ramanujan_sum(7, n) for n in range(21))
    ranked = estimate_periods(Signal(x), 3)
    assert ranked[0] == (7, 0.75)
    assert ranked[1] == (3, 0.25)
    rng = random.Random(7)
    noisy = tuple(v + rng.uniform(-1e-6, 1e-6) for v in x)
    top = estimate_periods(Signal(noisy), 2)
    assert {q for q, _ in top} == {3, 7}
    assert sum(f for _, f in top) >= 0.98


def test_estimate_periods_zero_signal():
    assert estimate_periods(Signal((0,) * 12), 4) == [
        (1, 0.0),
        (2, 0.0),
        (3, 0.0),
        (4, 0.0),
    ]
    with pytest.raises(DomainError):
        estimate_periods(Signal((1, 2)), 0)


def test_sum_of_subspace_samples_has_lcm_period():
    rng = random.Random(11)
    pairs = [(2, 3), (3, 4), (4, 6), (3, 7), (2, 9), (5, 3), (8, 3), (6, 4)]
    done = 0
    while done < 20:
        q1, q2 = pairs[done % len(pairs)]
        n = q1 * q2 // math.gcd(q1, q2)
        cols1 = ramanujan_basis(q1).basis_cols
        cols2 = ramanujan_basis(q2).basis_cols
        co1 = [rng.randrange(-5, 6) for _ in cols1]
        co2 = [rng.randrange(-5, 6) for _ in cols2]
        if not (any(co1) and any(co2)):
            continue
        x1 = [sum(c * col[i % q1] for c, col in zip(co1, cols1)) for i in range(n)]
        x2 = [sum(c * col[i % q2] for c, col in zip(co2, cols2)) for i in range(n)]
        assert minimal_period(x1) == q1
        assert minimal_period(x2) == q2
        assert minimal_period([a + b for a, b in zip(x1, x2)]) == n
        done += 1


def test_parse_samples_formats():
    assert parse_samples("1\n2.5\n-3\n").samples == (1, 2.5, -3)
    assert parse_samples("1,2\n0,-1\n").samples == (1 + 2j, -1j)
    assert parse_samples("1, 2, 3\n4, 5", csv=True).samples == (1, 2, 3, 4, 5)
    with pytest.raises(DomainError):
        parse_samples("")
    with pytest.raises(DomainError):
        parse_samples("abc\n")


def test_signal_requires_samples():
    with pytest.raises(DomainError):
        Signal(())
    assert Signal((1,)).n == 1
    assert minimal_period((4, 4, 4, 4)) == 1
