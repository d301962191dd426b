"""Generalized and simple continued fractions at fixed-point precision.

Provides convergent-recurrence evaluation with periodic binary
rescaling and forward-difference term generation,
simple-CF expansion of rationals and rounded decimals, a registry of
machine-generated conjecture records (pi, e, log 2, Catalan, zeta(3))
with numeric verification against independently computed references,
the Rogers-Ramanujan fraction, and the classical Gamma-ratio fraction
checked against a Spouge-series Gamma.

Throughout, a "digits" argument counts fractional digits and equals the
scale of the returned BigDecimal.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import accumulate, chain, count, islice, repeat

from . import DomainError
from .bigdec import BigDecimal, exp_bd, iroot, ln_bd
from .pi_engine import atan_leaf, atan_terms, binsplit, guard_digits, pi_chudnovsky

_DEPTH_CAP = 10 ** 6
# registry verification tests convergence at 50, 100, ..., 819200, 10^6
_CHECKPOINTS = tuple(50 << j for j in range(15)) + (_DEPTH_CAP,)
_BITS_PER_DIGIT = math.log2(10)
_LN10 = math.log(10)
_LOG10_4 = math.log10(4)


def _poly_eval(coeffs, n: int) -> int:
    """Integer polynomial in n, coefficients highest degree first."""
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    return acc


def _poly_terms(coeffs, start: int = 1):
    """Endless iterator over p(start), p(start+1), ... by forward differences.

    The difference table Delta^i p(start), i = 0..deg, is filled once by
    Horner; after that each value costs deg exact integer additions, run
    by chained `accumulate` iterators (the constant top difference feeds
    the next level down, and so on to p itself).
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return repeat(0)
    deg = len(coeffs) - 1
    row = [_poly_eval(coeffs, start + i) for i in range(deg + 1)]
    diffs = []
    for _ in range(deg + 1):
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    terms = repeat(diffs[deg])
    for i in range(deg - 1, -1, -1):
        terms = accumulate(terms, initial=diffs[i])
    return terms


@dataclass(frozen=True)
class CFSpec:
    """Term generators of a generalized continued fraction

        a0 + b1/(a1 + b2/(a2 + ...))

    truncated at `depth`. a_n and b_n are integer polynomials in n,
    coefficients highest degree first, degree <= 6.
    """

    a0: int
    depth: int
    a_poly: tuple
    b_poly: tuple

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")
        for poly, label in ((self.a_poly, "a"), (self.b_poly, "b")):
            if len(poly) > 7:
                raise DomainError(f"{label}_poly degree exceeds 6")
            if not all(isinstance(c, int) for c in poly):
                raise DomainError(f"{label} terms must be integers")

    def term_a(self, n: int) -> int:
        return _poly_eval(self.a_poly, n)

    def term_b(self, n: int) -> int:
        return _poly_eval(self.b_poly, n)

    def terms(self):
        """Endless (a_n, b_n) for n = 1, 2, ... by forward differences."""
        return zip(_poly_terms(self.a_poly), _poly_terms(self.b_poly))


@dataclass(frozen=True)
class EvalResult:
    """Truncated CF value with the |x_d - x_{d-1}| convergence estimate.

    `exact` carries h_d/k_d as a Fraction while the recurrence ran
    without rescaling (always the case for short simple CFs), else None.
    """

    value: BigDecimal
    error: BigDecimal | None
    depth: int
    exact: Fraction | None


def _convergents(a0: int, pairs, w: int, stops):
    """Convergent recurrence h_n = a_n h_{n-1} + b_n h_{n-2} (k alike),
    run once through the increasing depths in `stops`.

    Yields (h_d, k_d, h_{d-1}, k_{d-1}, exact) at each stop d, so a
    caller can test convergence there and stop early. Whenever h_n or
    k_n outgrows about w+110 digits, all four tracks are divided by a
    common power of two, down to about w+10 digits, and rounded to
    nearest; that keeps the ratios to a relative error around
    10^-(w+10) per rescale. Rounding, not flooring, keeps those errors
    from drifting one way: at depth 10^6 floored rescales used up the
    whole guard margin. The 100 digits of headroom make rescales rare
    enough that rounding costs no time overall (at 50 digits zeta3's
    terms forced one every three steps). `exact` stays True while no
    rescale has happened.
    """
    hp, h = 1, a0
    kp, k = 0, 1
    exact = True
    cap_bits = int((w + 110) * _BITS_PER_DIGIT)
    keep_bits = int((w + 10) * _BITS_PER_DIGIT)
    done = 0
    for stop in stops:
        for an, bn in islice(pairs, stop - done):
            h, hp = an * h + bn * hp, h
            k, kp = an * k + bn * kp, k
            if h.bit_length() > cap_bits or k.bit_length() > cap_bits:
                shift = max(h.bit_length(), k.bit_length()) - keep_bits
                half = 1 << (shift - 1)
                h = (h + half) >> shift
                hp = (hp + half) >> shift
                k = (k + half) >> shift
                kp = (kp + half) >> shift
                exact = False
        done = stop
        yield h, k, hp, kp, exact


def _eval_result(state, depth: int, digits: int) -> EvalResult:
    h, k, hp, kp, exact = state
    if k == 0:
        raise DomainError("zero denominator in the final convergent")
    value = BigDecimal.from_fraction(Fraction(h, k), digits)
    error = None
    if kp != 0:
        diff = abs(Fraction(h, k) - Fraction(hp, kp))
        error = BigDecimal.from_fraction(diff, digits + 10)
    return EvalResult(value=value, error=error, depth=depth,
                      exact=Fraction(h, k) if exact else None)


def eval_cf(spec: CFSpec, digits: int) -> EvalResult:
    """Evaluate the depth-truncated fraction to `digits` fractional digits.

    One pass of the convergent recurrence at digits + guard_digits(depth
    + 2) working digits, with binary rescaling; polynomial terms come
    from forward-difference tables rather than per-step evaluation.
    """
    if digits < 1:
        raise DomainError("digits must be positive")
    w = digits + guard_digits(spec.depth + 2)
    state = next(_convergents(spec.a0, spec.terms(), w, (spec.depth,)))
    return _eval_result(state, spec.depth, digits)


@dataclass(frozen=True)
class ExpandResult:
    """Simple CF coefficients; `truncated` marks an early stop because
    the input's precision could no longer certify the next term."""

    coeffs: tuple
    truncated: bool


def _expand_exact(fr: Fraction, max_terms: int):
    coeffs = []
    num, den = fr.numerator, fr.denominator
    while den and len(coeffs) < max_terms:
        a, rem = divmod(num, den)
        coeffs.append(a)
        num, den = den, rem
    truncated = den != 0
    if not truncated and len(coeffs) > 1 and coeffs[-1] == 1:
        # canonical form: fold a trailing 1 into the previous term
        coeffs.pop()
        coeffs[-1] += 1
    return ExpandResult(tuple(coeffs), truncated)


def _expand_interval(lo: Fraction, hi: Fraction, max_terms: int):
    coeffs = []
    while len(coeffs) < max_terms:
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo != fhi:
            return ExpandResult(tuple(coeffs), True)
        coeffs.append(flo)
        rlo, rhi = lo - flo, hi - flo
        if rlo == 0 or rhi == 0:
            return ExpandResult(tuple(coeffs), True)
        lo, hi = 1 / rhi, 1 / rlo
    return ExpandResult(tuple(coeffs), False)


def simple_cf_expand(x, max_terms: int) -> ExpandResult:
    """Expand x into [a0; a1, a2, ...] by floor/reciprocal steps.

    Exact (and canonically terminated, last coefficient >= 2) for ints
    and Fractions. A BigDecimal is treated as its value plus/minus one
    ulp, and coefficients are emitted only while both interval ends
    agree, so every returned term is certified by the input precision.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be positive")
    if isinstance(x, BigDecimal):
        v = x.as_fraction()
        eps = x.ulp()
        return _expand_interval(v - eps, v + eps, max_terms)
    if isinstance(x, float):
        raise DomainError("binary floats are ambiguous here; pass a Fraction or BigDecimal")
    return _expand_exact(Fraction(x), max_terms)


# -- reference constants ----------------------------------------------------

_REF_NAMES = ("pi", "e", "log2", "catalan", "zeta3", "sqrt5")


def _e_leaf(k: int) -> tuple[int, int, int]:
    # e = sum_k 1/k!: p = 1, q = k
    return 1, max(k, 1), 1


def _e_terms(w: int) -> int:
    """Terms of sum 1/k! through the first k with k! > 10^w, so every
    term still nonzero at scale w."""
    return next(n for n in count(2) if math.lgamma(n) > w * _LN10)


def _last_term(log10_size, w: int) -> int:
    """Largest n >= 1 with log10_size(n) <= w, for increasing
    log10_size. The search starts at n = w / log10(4), since the Apery
    and Lupas series both gain log10(4), about 0.60 digits, per term."""
    n = max(1, int(w / _LOG10_4))
    while log10_size(n + 1) <= w:
        n += 1
    while n > 1 and log10_size(n) > w:
        n -= 1
    return n


def _ln_central_binomial(n: int) -> float:
    """ln C(2n, n)."""
    return math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)


def _apery_leaf(k: int) -> tuple[int, int, int]:
    # term n = k+1 of sum_n (-1)^(n-1) / (n^3 C(2n,n)): the first is 1/2,
    # and term n+1 / term n = -n^3 / (2 (n+1)^2 (2n+1))
    if k == 0:
        return 1, 2, 1
    p = -k**3
    return p, 2 * (k + 1) ** 2 * (2 * k + 1), p


def _apery_terms(w: int) -> int:
    """Terms of Apery's series through the last n with
    n^3 C(2n,n) <= 10^w, so every term still nonzero at scale w."""
    return _last_term(lambda n: (3 * math.log(n) + _ln_central_binomial(n)) / _LN10, w)


def _lupas_leaf(k: int) -> tuple[int, int, int]:
    # term n = k+1 of sum_n c_n (40n^2 - 24n + 3) with c_1 = 32/9 and
    # c_(n+1) / c_n = -32 n^3 (2n-1) / ((4n+1)^2 (4n+3)^2)
    if k == 0:
        return 32, 9, 32 * 19
    p = -32 * k**3 * (2 * k - 1)
    return p, ((4 * k + 1) * (4 * k + 3)) ** 2, p * (40 * k * k + 56 * k + 19)


def _lupas_log10_size(n: int) -> float:
    """log10 of 64 / (|c_n| (40n^2 - 24n + 3)), where
    |c_n| = 2^(8n) / (n^3 (2n-1) C(2n,n) C(4n,2n)^2)."""
    ln_c = (8 * n * math.log(2) - 3 * math.log(n) - math.log(2 * n - 1)
            - _ln_central_binomial(n) - 2 * _ln_central_binomial(2 * n))
    return (math.log(64) - ln_c - math.log(40 * n * n - 24 * n + 3)) / _LN10


def _lupas_terms(w: int) -> int:
    """Terms of Lupas's series through the last n whose term
    c_n (40n^2 - 24n + 3) / 64 is at least 10^-w in size, so every term
    still nonzero at scale w."""
    return _last_term(_lupas_log10_size, w)


@lru_cache(maxsize=64)
def reference_constant(name: str, digits: int) -> BigDecimal:
    """Independent high-precision references: pi (Chudnovsky), and by
    binary splitting at 15 guard digits e (factorial series), log2
    (atanh series), catalan (Lupas's series) and zeta3 (Apery's series);
    sqrt5 (integer square root)."""
    if name not in _REF_NAMES:
        raise DomainError(f"unsupported constant {name!r}")
    if not 1 <= digits <= 500:
        raise DomainError("digits must be in 1..500")
    if name == "pi":
        return pi_chudnovsky(digits)
    if name == "sqrt5":
        return BigDecimal.from_int(5).sqrt(digits + 4).at_scale(digits)
    w = digits + 15
    if name == "e":
        t, q = binsplit(_e_terms(w), _e_leaf)
    elif name == "log2":  # log 2 = 2 atanh(1/3) = (2/3) sum_k 1/((2k+1) 9^k)
        t, q = binsplit(atan_terms(9, w), atan_leaf(9, 1))
        t, q = 2 * t, 3 * q
    elif name == "catalan":  # G = (1/64) sum_n c_n (40n^2 - 24n + 3)
        t, q = binsplit(_lupas_terms(w), _lupas_leaf)
        q *= 64
    else:  # zeta(3) = (5/2) sum_n (-1)^(n-1) / (n^3 C(2n,n))
        t, q = binsplit(_apery_terms(w), _apery_leaf)
        t, q = 5 * t, 2 * q
    return BigDecimal(t * 10**w // q, w).at_scale(digits)


# -- conjecture registry ----------------------------------------------------

@dataclass(frozen=True)
class ConjectureRecord:
    """One machine-generated CF identity: transform(constant) equals the
    fraction generated by (a0, a_poly, b_poly). transform holds Mobius
    coefficients (alpha, beta, gamma, delta) for (alpha c + beta) /
    (gamma c + delta)."""

    name: str
    constant: str
    transform: tuple
    a0: int
    a_poly: tuple
    b_poly: tuple
    status: str
    reconstructed: bool
    note: str

    def cf_spec(self, depth: int) -> CFSpec:
        return CFSpec(a0=self.a0, depth=depth, a_poly=self.a_poly, b_poly=self.b_poly)

    def lhs_value(self, digits: int) -> BigDecimal:
        c = reference_constant(self.constant, digits + 10).as_fraction()
        al, be, ga, de = self.transform
        den = ga * c + de
        if den == 0:
            raise DomainError(f"transform pole in record {self.name}")
        return BigDecimal.from_fraction((al * c + be) / den, digits)


# first printed partial fractions (n, b_n, a_n); loader refuses a
# registry whose generators drift from these anchors
_ANCHORS = {
    "pi": ((1, -1, 6), (2, -6, 9), (3, -15, 12), (4, -28, 15)),
    "e": ((1, -1, 4), (2, -2, 5), (3, -3, 6), (4, -4, 7)),
    "log2": ((1, -8, 14), (2, -72, 30)),
    "catalan": ((1, -2, 7), (2, -32, 19)),
    "zeta3": ((1, -1, 9), (2, -64, 35)),
}


@lru_cache(maxsize=1)
def load_registry() -> dict:
    """Registry of built-in conjecture records, keyed by name."""
    text = resources.files("ramkit").joinpath("data/conjectures.jsonl").read_text()
    registry = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        if raw.get("schema") != 1:
            raise DomainError(f"unknown registry schema in record {raw.get('name')!r}")
        rec = ConjectureRecord(
            name=raw["name"],
            constant=raw["constant"],
            transform=tuple(raw["transform"]),
            a0=raw["a0"],
            a_poly=tuple(raw["a_poly"]),
            b_poly=tuple(raw["b_poly"]),
            status=raw["status"],
            reconstructed=raw["reconstructed"],
            note=raw.get("note", ""),
        )
        for n, bn, an in _ANCHORS.get(rec.name, ()):
            if _poly_eval(rec.b_poly, n) != bn or _poly_eval(rec.a_poly, n) != an:
                raise DomainError(f"registry record {rec.name} fails its anchor terms")
        registry[rec.name] = rec
    return registry


@dataclass(frozen=True)
class VerifyResult:
    name: str
    status: str
    digits: int
    match: bool
    abs_error: BigDecimal
    depth_used: int
    converged: bool


def verify_conjecture(rec, digits: int) -> VerifyResult:
    """Numerically test one registry record to `digits` digits.

    One streaming pass of the convergent recurrence runs toward the
    depth cap of 10^6 at digits + 15 + guard_digits(cap + 2) working
    digits and stops at the first checkpoint depth 50*2^j (the last one
    capped at 10^6) where two successive convergents agree to digits+5
    places; non-convergence is reported in the result rather than
    raised. abs_error is the distance of the depth-`depth_used`
    convergent, and match means abs_error < 10^-digits against
    transform(reference).
    """
    if isinstance(rec, str):
        registry = load_registry()
        if rec not in registry:
            raise DomainError(f"unknown conjecture {rec!r}")
        rec = registry[rec]
    if not 1 <= digits <= 200:
        raise DomainError("digits must be in 1..200")
    w = digits + 15
    lhs = rec.lhs_value(w)
    agree = Fraction(1, 10 ** (digits + 5))
    spec = rec.cf_spec(_DEPTH_CAP)
    work = w + guard_digits(_DEPTH_CAP + 2)
    converged = False
    states = _convergents(spec.a0, spec.terms(), work, _CHECKPOINTS)
    for depth, state in zip(_CHECKPOINTS, states):
        res = _eval_result(state, depth, w)
        if res.error is not None and res.error.as_fraction() < agree:
            converged = True
            break
    err = abs(res.value - lhs)
    return VerifyResult(
        name=rec.name,
        status=rec.status,
        digits=digits,
        match=err.as_fraction() < Fraction(1, 10 ** digits),
        abs_error=err,
        depth_used=depth,
        converged=converged,
    )


# -- Rogers-Ramanujan -------------------------------------------------------

def rogers_ramanujan_R(q: BigDecimal, digits: int, depth: int) -> BigDecimal:
    """R(q) = q^(1/5) / (1 + q/(1 + q^2/(1 + ...))), depth partial
    numerators, evaluated bottom-up. The fifth root comes from an exact
    integer Newton root on the scaled mantissa."""
    if not isinstance(q, BigDecimal):
        raise DomainError("q must be a BigDecimal")
    if depth < 1:
        raise DomainError("depth must be positive")
    one_raw = BigDecimal.from_int(1)
    if q.sign <= 0 or not q < one_raw:
        raise DomainError("q must lie in (0,1)")
    w = digits + guard_digits(depth + 2)
    qs = q.at_scale(w)
    powers = [qs]
    for _ in range(depth - 1):
        powers.append((powers[-1] * qs).at_scale(w))
    one = one_raw.at_scale(w)
    t = one
    for j in range(depth - 1, -1, -1):
        t = one + powers[j].divide(t, w)
    root = BigDecimal(iroot(qs.mantissa * 10 ** (4 * w), 5), w)
    return root.divide(t, digits)


def rr_series_quotient(q: BigDecimal, digits: int, terms: int) -> BigDecimal:
    """Independent oracle for R(q): the theta-like quotient
    q^(1/5) H(q)/G(q) with
      G(q) = sum q^(n^2)   / ((1-q)...(1-q^n)),
      H(q) = sum q^(n^2+n) / ((1-q)...(1-q^n)),
    both truncated at `terms`."""
    if q.sign <= 0 or not q < BigDecimal.from_int(1):
        raise DomainError("q must lie in (0,1)")
    w = digits + 12
    qs = q.at_scale(w)
    one = BigDecimal.from_int(1).at_scale(w)
    g_sum, h_sum = one, one
    prod = one
    qn = one          # q^n
    qn2 = one         # q^(n^2)
    qodd = qs         # q^(2n-1)
    qsq = (qs * qs).at_scale(w)
    for _ in range(1, terms + 1):
        qn = (qn * qs).at_scale(w)
        qn2 = (qn2 * qodd).at_scale(w)
        qodd = (qodd * qsq).at_scale(w)
        prod = (prod * (one - qn)).at_scale(w)
        g_sum = g_sum + qn2.divide(prod, w)
        h_sum = h_sum + (qn2 * qn).divide(prod, w)
    root = BigDecimal(iroot(qs.mantissa * 10 ** (4 * w), 5), w)
    return (root * h_sum.divide(g_sum, w)).at_scale(digits)


# -- Gamma ratio fraction ---------------------------------------------------

def gamma_bd(z, digits: int) -> BigDecimal:
    """Gamma(z) for rational z in (0, 24] by the Spouge series with
    a = ceil(digits ln10/ln 2pi) terms; relative error below 10^-digits."""
    if digits > 60:
        raise DomainError("gamma budget capped at 60 digits")
    zf = z.as_fraction() if isinstance(z, BigDecimal) else Fraction(z)
    if zf <= 0 or zf > 24:
        raise DomainError("z must lie in (0, 24]")
    w = digits + 14
    a = int(digits * math.log(10) / math.log(2 * math.pi)) + 4
    zs = zf - 1
    base = BigDecimal.from_fraction(zs + a, w + 4)
    expo = BigDecimal.from_fraction(zf - Fraction(1, 2), w + 4)
    pow_part = exp_bd((expo * ln_bd(base, w + 4)).at_scale(w + 4), w)
    # e^-(zs+a) is tiny; widen its scale so it keeps w significant digits
    drop = int(float(zs + a) * math.log10(math.e)) + 6
    exp_neg = exp_bd(BigDecimal.from_fraction(-(zs + a), w + 4), w + drop)
    two_pi = pi_chudnovsky(w + 2) * BigDecimal.from_int(2)
    total = two_pi.sqrt(w + 4)  # c_0 = sqrt(2 pi)
    e1 = exp_bd(BigDecimal.from_int(1).at_scale(w + 4), w + 4)
    ek = exp_bd(BigDecimal.from_int(a - 1).at_scale(w + 4), w + 4)  # e^(a-k)
    fact = 1
    for k in range(1, a):
        if k > 1:
            fact *= k - 1
        ck = BigDecimal.from_int((a - k) ** (k - 1)) * BigDecimal.from_int(a - k).sqrt(w + 4) * ek
        ck = ck.divide(BigDecimal.from_int(fact), w + 4)
        den = BigDecimal.from_fraction(zs + k, w + 4)
        term = ck.divide(den, w + 4)
        total = total + term if k % 2 == 1 else total - term
        ek = ek.divide(e1, w + 4)
    return (pow_part * exp_neg * total).at_scale(digits)


@dataclass(frozen=True)
class GammaCheck:
    lhs: BigDecimal
    rhs: BigDecimal
    abs_error: BigDecimal
    depth: int


def gamma_ratio_cf_check(x, digits: int, depth: int = 100000) -> GammaCheck:
    """Test {Gamma((x+1)/4)/Gamma((x+3)/4)}^2 = 4/(x + 1^2/(2x + 3^2/(2x
    + ...))) numerically.

    lhs uses the Spouge Gamma, rhs the convergent recurrence on the
    integer-rescaled fraction (rational x = u/v multiplies b_n by v^2).
    The fraction's tail only decays like depth^-x, so abs_error is
    dominated by CF truncation, not by Gamma accuracy.
    """
    xf = x.as_fraction() if isinstance(x, BigDecimal) else Fraction(x)
    if xf <= 0 or xf > 10:
        raise DomainError("x must lie in (0, 10]")
    if digits > 40:
        raise DomainError("digits capped at 40 (gamma budget)")
    w = digits + 8
    g1 = gamma_bd((xf + 1) / 4, digits + 6)
    g2 = gamma_bd((xf + 3) / 4, digits + 6)
    ratio = g1.divide(g2, w)
    lhs = (ratio * ratio).at_scale(digits)
    u, v = xf.numerator, xf.denominator
    # b_n = v^2 (2n-3)^2 = v^2 (4n^2 - 12n + 9) for n >= 2
    tail = zip(repeat(2 * u), _poly_terms((4 * v * v, -12 * v * v, 9 * v * v), start=2))
    pairs = chain(((u, 4 * v),), tail)
    state = next(_convergents(0, pairs, w, (depth,)))
    rhs = _eval_result(state, depth, digits).value
    return GammaCheck(lhs=lhs, rhs=rhs, abs_error=abs(lhs - rhs), depth=depth)
