"""Acceptance gate: one test per shipped criterion, each printing a
single PASS/FAIL line with the measured quantities.

Two criteria are known-red and left red on purpose; their assertion
messages carry the measured numbers and the reason the stated gate
cannot be met by any correct implementation:

* criterion 2: the 21-term Madhava partial sum differs from pi by
  5.84e-12, above the 5e-12 gate (the first omitted term is already
  7.7e-12, so no 21-term evaluation can land under the gate);
* criterion 8: the zeta3 registry record gains digits like 0.35/depth^2,
  so 30 digits needs depth near 10^15, far past the 10^6 evaluation cap.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from ramkit import contfrac, lps_graphs, pi_engine, ram_signal
from ramkit.bigdec import BigDecimal, exp_bd
from ramkit.numtheory import gcd, mod_inverse, sqrt_mod, totient

PI_42 = "3.141592653589793238462643383279502884197169"

# the two normalizations of the degree-6 generator table for X^(5,29)
S_TABLE = (
    (25, 0, 0, 6),
    (6, 0, 0, 25),
    (1, 2, 27, 1),
    (1, 27, 2, 1),
    (1, 24, 24, 1),
    (1, 5, 5, 1),
)
S_TABLE_UNIT_DET = (
    (26, 0, 0, 19),
    (19, 0, 0, 26),
    (8, 16, 13, 8),
    (8, 13, 16, 8),
    (8, 18, 18, 8),
    (8, 11, 11, 8),
)


def _emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_pi_digit_strings(capsys):
    values = {
        "madhava": pi_engine.pi_madhava(100, 42),
        "machin": pi_engine.pi_machin(42),
        "ramanujan": pi_engine.pi_ramanujan(42),
        "chudnovsky": pi_engine.pi_chudnovsky(42),
    }
    bad = {name for name, v in values.items() if str(v) != PI_42}
    t0 = time.perf_counter()
    agree = str(pi_engine.pi_chudnovsky(1000)) == str(pi_engine.pi_machin(1000))
    elapsed = time.perf_counter() - t0
    ok = not bad and agree and elapsed < 5.0
    _emit(capsys, 1, ok,
          f"four methods at 42 digits (mismatches: {sorted(bad) or 'none'}); "
          f"chudnovsky == machin at 1000 digits: {agree} in {elapsed:.2f}s")
    assert ok, f"mismatching methods {bad}, 1000-digit agree={agree}, {elapsed:.2f}s"


def test_criterion_02_madhava_21_terms(capsys):
    value = pi_engine.pi_madhava(21, 30)
    reference = pi_engine.pi_chudnovsky(40)
    err = abs(value.as_fraction() - reference.as_fraction())
    ok = err < Fraction(5, 10**12)
    _emit(capsys, 2, ok, f"|21-term Madhava - pi| = {float(err):.4e} vs gate 5e-12")
    assert ok, (
        f"21-term Madhava error is {float(err):.6e}, above the 5e-12 gate. "
        "Exact rational arithmetic: the first omitted term is "
        "sqrt(12)/(3^21 * 43) ~ 7.7e-12, so the alternating tail after 21 "
        "terms cannot fall under 5e-12 for any rounding of the partial sum. "
        "The value is still correct to 11 decimal places (err < 1e-11), and "
        "one more term (22) brings the error to ~1.9e-12, under the gate."
    )


def test_criterion_03_chudnovsky_integer_terms(capsys):
    state = pi_engine.CHUDNOVSKY_INITIAL
    bad = []
    for _ in range(30):
        state = pi_engine.chudnovsky_step(state)
        q = state.q
        oracle = math.factorial(6 * q) // (
            math.factorial(3 * q) * math.factorial(q) ** 3
        )
        if state.M != oracle:
            bad.append(q)
    ok = not bad
    _emit(capsys, 3, ok,
          f"M_q == (6q)!/((3q)!(q!)^3) exactly for q <= 30 "
          f"(failures: {bad or 'none'})")
    assert ok, f"M_q mismatch at q in {bad}"


def test_criterion_04_lps_spectral_gates(capsys):
    gate = 2.0 * math.sqrt(6.0) + 1e-6
    t0 = time.perf_counter()
    g29, _, meta29 = lps_graphs.build_lps(5, 29)
    rep29 = lps_graphs.spectral_report(g29, 6)
    t29 = time.perf_counter() - t0
    t0 = time.perf_counter()
    g13, _, meta13 = lps_graphs.build_lps(5, 13)
    rep13 = lps_graphs.spectral_report(g13, 6)
    t13 = time.perf_counter() - t0
    checks = [
        meta29["branch"] == lps_graphs.PSL,
        g29.n == 12180,
        g29.degree_set() == {6},
        lps_graphs.is_connected(g29),
        rep29.lambda_nontrivial <= gate,
        t29 < 120.0,
        meta13["branch"] == lps_graphs.PGL,
        g13.n == 2184,
        g13.degree_set() == {6},
        lps_graphs.is_connected(g13),
        rep13.lambda_nontrivial <= gate,
        t13 < 10.0,
    ]
    ok = all(checks)
    _emit(capsys, 4, ok,
          f"X^(5,29): PSL, n=12180, lambda={rep29.lambda_nontrivial:.6f} "
          f"<= {gate:.6f} in {t29:.1f}s; X^(5,13): PGL, n=2184, "
          f"lambda={rep13.lambda_nontrivial:.6f} in {t13:.1f}s")
    assert ok, f"failed checks at positions {[i for i, c in enumerate(checks) if not c]}"


def test_criterion_05_generating_set_tables(capsys):
    built = {g.entries() for g in lps_graphs.generating_set(5, 29)}

    def canon_unit(entries):
        a, b, c, d = entries
        return lps_graphs.ProjMatrix.canonical(a, b, c, d, 29, lps_graphs.PSL).entries()

    def canon_rescaled(entries):
        a, b, c, d = entries
        det = (a * d - b * c) % 29
        t = sqrt_mod(mod_inverse(det, 29), 29)
        return canon_unit(tuple(v * t % 29 for v in entries))

    from_unit_det = {canon_unit(e) for e in S_TABLE_UNIT_DET}
    from_raw = {canon_rescaled(e) for e in S_TABLE}
    ok = built == from_unit_det == from_raw
    _emit(capsys, 5, ok,
          f"generating_set(5,29) == both reference tables after "
          f"canonicalization ({len(built)} matrices)")
    assert ok, f"built={sorted(built)} unit={sorted(from_unit_det)} raw={sorted(from_raw)}"


def test_criterion_06_expansion_constants(capsys):
    k4 = lps_graphs.Graph(n=4, adjacency=[[j for j in range(4) if j != i]
                                          for i in range(4)])
    c6 = lps_graphs.Graph(n=6, adjacency=[sorted(((i - 1) % 6, (i + 1) % 6))
                                          for i in range(6)])
    h_k4 = lps_graphs.expansion_constant(k4)
    h_c6 = lps_graphs.expansion_constant(c6)
    ok = (
        h_k4 == Fraction(2)
        and h_c6 == Fraction(2, 3)
        and h_k4 == Fraction(4, 2)      # K_n trend n/2
        and h_c6 <= Fraction(4, 6)      # C_n trend <= 4/n
    )
    _emit(capsys, 6, ok, f"h(K_4) = {h_k4}, h(C_6) = {h_c6}, both exact")
    assert ok, f"h(K_4)={h_k4}, h(C_6)={h_c6}"


def test_criterion_07_simple_cf_roundtrip(capsys):
    def fold(coeffs):
        value = Fraction(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            value = a + 1 / value
        return value

    sample = contfrac.simple_cf_expand(Fraction(5000, 127), 20)
    pi_prefix = contfrac.simple_cf_expand(contfrac.reference_constant("pi", 40), 5)
    rng = random.Random(20260816)
    failures = 0
    for _ in range(500):
        num = rng.randrange(-10**9, 10**9)
        den = rng.randrange(1, 10**9)
        x = Fraction(num, den)
        expansion = contfrac.simple_cf_expand(x, 64)
        if expansion.truncated or fold(expansion.coeffs) != x:
            failures += 1
    ok = (
        sample.coeffs == (39, 2, 1, 2, 2, 1, 4)
        and pi_prefix.coeffs == (3, 7, 15, 1, 292)
        and failures == 0
    )
    _emit(capsys, 7, ok,
          f"5000/127 -> {list(sample.coeffs)}; pi -> {list(pi_prefix.coeffs)}; "
          f"500 random rationals round-trip ({failures} failures)")
    assert ok, f"sample={sample.coeffs} pi={pi_prefix.coeffs} failures={failures}"


def test_criterion_08_registry_verification(capsys):
    t0 = time.perf_counter()
    results = {
        name: contfrac.verify_conjecture(name, digits)
        for name, digits in (
            ("pi", 50), ("e", 50), ("log2", 30), ("catalan", 30), ("zeta3", 30)
        )
    }
    elapsed = time.perf_counter() - t0
    failing = {
        name: r for name, r in results.items()
        if not r.match or r.abs_error.as_fraction() >= Fraction(1, 10**30)
    }
    ok = not failing and elapsed < 60.0
    summary = ", ".join(
        f"{name}@{r.digits}:{'ok' if r.match else f'err={float(r.abs_error):.2e}'}"
        for name, r in results.items()
    )
    _emit(capsys, 8, ok, f"{summary}; total {elapsed:.1f}s")
    z = results["zeta3"]
    assert ok, (
        f"records failing the 1e-30 gate: {sorted(failing)}; "
        f"zeta3 stops at abs_error {float(z.abs_error):.3e} with depth "
        f"{z.depth_used} (ladder capped at 10^6). Its convergents gain "
        "digits like 0.35/depth^2, so abs_error < 1e-30 needs depth near "
        "6e14, about nine orders of magnitude past the cap; the record is "
        "real but only ~13 digits are reachable at this evaluation budget "
        "(it does verify at 10 digits). The other four records pass."
    )


def test_criterion_09_rogers_ramanujan_values(capsys):
    digits = 25
    w = digits + 10
    pi_w = pi_engine.pi_chudnovsky(w)
    q = exp_bd(BigDecimal(-2 * pi_w.mantissa, pi_w.scale), w)
    r = contfrac.rogers_ramanujan_R(q, digits, 60)
    s5 = BigDecimal.from_int(5).sqrt(w).as_fraction()
    closed = (
        BigDecimal.from_fraction((5 + s5) / 2, 2 * w).sqrt(w).as_fraction()
        - (s5 + 1) / 2
    )
    surd_err = abs(r.as_fraction() - closed)
    tenth = BigDecimal.parse("0.1")
    cf_value = contfrac.rogers_ramanujan_R(tenth, 25, 60)
    series_value = contfrac.rr_series_quotient(tenth, 25, 60)
    quotient_err = abs(cf_value.as_fraction() - series_value.as_fraction())
    ok = surd_err < Fraction(1, 10**25) and quotient_err < Fraction(1, 10**20)
    _emit(capsys, 9, ok,
          f"R(e^(-2pi)) vs surd: {float(surd_err):.1e} (< 1e-25); "
          f"R(0.1) vs series quotient: {float(quotient_err):.1e} (< 1e-20)")
    assert ok, f"surd_err={float(surd_err)}, quotient_err={float(quotient_err)}"


def test_criterion_10_ramanujan_sum_suites(capsys):
    row_ok = [ram_signal.ramanujan_sum(6, n) for n in range(12)] == [
        2, 1, -1, -2, -1, 1, 2, 1, -1, -2, -1, 1,
    ]
    trig_ok = all(
        abs(ram_signal.ramanujan_sum_trig(q, n) - ram_signal.ramanujan_sum(q, n))
        < 1e-9
        for q in range(1, 101)
        for n in range(q)
    )
    mult_ok = all(
        ram_signal.ramanujan_sum(q1 * q2, n)
        == ram_signal.ramanujan_sum(q1, n) * ram_signal.ramanujan_sum(q2, n)
        for q1 in range(1, 31)
        for q2 in range(1, 31)
        if gcd(q1, q2) == 1
        for n in range(q1 * q2)
    )
    orth_ok = all(
        sum(
            ram_signal.ramanujan_sum(q1, n) * ram_signal.ramanujan_sum(q2, n)
            for n in range(q1 * q2 // gcd(q1, q2))
        )
        == 0
        for q1 in range(1, 21)
        for q2 in range(q1 + 1, 21)
    )
    report = ram_signal.check_sum_properties(30, 60)
    ok = row_ok and trig_ok and mult_ok and orth_ok and report.ok
    _emit(capsys, 10, ok,
          f"c_6 row exact: {row_ok}; trig q<=100: {trig_ok}; "
          f"multiplicativity: {mult_ok}; orthogonality: {orth_ok}; "
          f"property report: {report.ok}")
    assert ok, f"violations: {report.violations[:3]}"


def test_criterion_11_tau_function(capsys):
    taus = ram_signal.tau_coefficients(4900)
    first_ok = taus[:5] == [1, -24, 252, -1472, 4830]
    mult_ok = all(
        taus[m * n - 1] == taus[m - 1] * taus[n - 1]
        for m in range(1, 71)
        for n in range(m + 1, 71)
        if gcd(m, n) == 1
    )
    power_ok = all(
        taus[p ** (j + 1) - 1]
        == taus[p - 1] * taus[p**j - 1] - p**11 * taus[p ** (j - 1) - 1]
        for p in (2, 3, 5)
        for j in range(1, 5)
    )
    bound = ram_signal.check_tau_bound(1000)
    ok = first_ok and mult_ok and power_ok and bound.holds
    _emit(capsys, 11, ok,
          f"tau(1..5) exact: {first_ok}; multiplicativity m,n<=70: {mult_ok}; "
          f"p-power recurrence: {power_ok}; |tau(p)| <= 2p^5.5 for p <= 1000: "
          f"{bound.holds} (max ratio {bound.max_ratio:.4f} at p={bound.worst_prime})")
    assert ok


def test_criterion_12_fir_decomposition(capsys):
    rank_ok = all(
        ram_signal.ramanujan_basis(q).rank == totient(q) for q in range(1, 51)
    )
    rng = random.Random(20260816)
    recon_ok = True
    for n in (6, 12, 21, 36):
        samples = tuple(rng.randrange(-9, 10) for _ in range(n))
        dec = ram_signal.fir_decompose(ram_signal.Signal(samples))
        if not (dec.exact and dec.residual_norm == 0.0
                and dec.reconstruction() == samples):
            recon_ok = False
    clean = [
        ram_signal.ramanujan_sum(3, n) + ram_signal.ramanujan_sum(7, n)
        for n in range(21)
    ]
    noisy = tuple(v + rng.uniform(-1e-6, 1e-6) for v in clean)
    top = ram_signal.estimate_periods(ram_signal.Signal(noisy), 2)
    periods = {q for q, _ in top}
    combined = sum(frac for _, frac in top)
    ok = rank_ok and recon_ok and periods == {3, 7} and combined >= 0.98
    _emit(capsys, 12, ok,
          f"rank(B_q)=phi(q) for q<=50: {rank_ok}; exact reconstruction at "
          f"N in (6,12,21,36): {recon_ok}; noisy c_3+c_7 periods {sorted(periods)} "
          f"with combined energy {combined:.6f} >= 0.98")
    assert ok, f"periods={periods}, combined={combined}"


def test_criterion_13_scale_caveat(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    documented = "desk scale" in text
    cross_method = str(pi_engine.pi_chudnovsky(300)) == str(pi_engine.pi_machin(300))
    registry_ok = (
        contfrac.verify_conjecture("pi", 30).match
        and contfrac.verify_conjecture("e", 30).match
    )
    ok = documented and cross_method and registry_ok
    _emit(capsys, 13, ok,
          f"record-scale computation documented as out of scope in README: "
          f"{documented}; covering suites pass (300-digit cross-method "
          f"agreement: {cross_method}; registry pi/e at 30 digits: {registry_ok})")
    assert ok, (
        f"documented={documented} cross_method={cross_method} registry={registry_ok}"
    )
