"""Ramanujan sums, the tau function, Ramanujan subspaces, and
integer-period estimation.

c_q(n) is evaluated exactly through Holder's closed form

    c_q(n) = mu(m) * phi(q) / phi(m),  m = q / gcd(q, n),

with mu and phi read from one factorization of q, and the trigonometric
definition kept only as a floating cross-check.
Signal decomposition is the closed-form orthogonal projection onto the
Ramanujan subspaces S_q, one per divisor q of the length: exact over
the rationals for int/Fraction samples of any length, floating
otherwise. The circulant bases B_q serve the rank criterion.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import DomainError
from .numtheory import (
    divisors,
    factorize,
    gcd,
    mobius,
    mobius_sieve,
    primes_up_to,
    totient,
)
from .pi_engine import pi_chudnovsky

_TRIG_TOLERANCE = 1e-9


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n), exact, by Holder's closed form mu(m) phi(q) / phi(m) with
    m = q / gcd(q, n); every prime of m divides q."""
    if q < 1:
        raise DomainError("modulus q must be >= 1")
    m = q // gcd(q, abs(n))  # c_q is even and q-periodic in n
    mu, phi_q, phi_m = 1, q, m
    for p in factorize(q):
        phi_q -= phi_q // p
        if m % p == 0:
            if m % (p * p) == 0:
                return 0  # mu(m) = 0
            mu = -mu
            phi_m -= phi_m // p
    return mu * (phi_q // phi_m)


def ramanujan_sum_trig(q: int, n: int) -> float:
    """c_q(n) from its defining cosine sum; floating cross-check only."""
    if q < 1:
        raise DomainError("modulus q must be >= 1")
    return sum(
        math.cos(2.0 * math.pi * k * n / q)
        for k in range(1, q + 1)
        if gcd(k, q) == 1
    )


def _sums_for_fixed_n(n: int, q_limit: int) -> list[int]:
    """c_q(n) for q = 0..q_limit (index 0 unused) with one Mobius sieve."""
    mu = mobius_sieve(q_limit)
    out = [0] * (q_limit + 1)
    for d in divisors(n):
        if d > q_limit:
            break
        for q in range(d, q_limit + 1, d):
            out[q] += mu[q // d] * d
    return out


@dataclass(frozen=True)
class SumPropertyReport:
    """Outcome of the exhaustive Ramanujan-sum property checks.

    diagonal_sums records sum_{n<q} c_q(n)^2 for each q; no closed form
    is asserted for it, the value is only reported.
    """

    q_max: int
    n_max: int
    orthogonal_pairs: int
    coprime_pairs: int
    diagonal_sums: dict[int, int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sum_properties(q_max: int, n_max: int) -> SumPropertyReport:
    """Verify periodicity, integrality, multiplicativity and orthogonality.

    Checks run exhaustively for q <= q_max (periodicity scanned for
    n <= n_max); every failure is listed in the report rather than
    raised. Orthogonality sums run over one lcm period per pair, so
    large q_max is quadratically slow.
    """
    if not 1 <= q_max <= 200 or not 1 <= n_max <= 200:
        raise DomainError("q_max and n_max must lie in 1..200")
    bad: list[str] = []
    table = {q: [ramanujan_sum(q, n) for n in range(q)] for q in range(1, q_max + 1)}

    # trig agreement doubles as the integrality check
    for q in range(1, q_max + 1):
        for n in range(q):
            t = ramanujan_sum_trig(q, n)
            if abs(t - table[q][n]) > _TRIG_TOLERANCE:
                bad.append(f"trig mismatch at q={q} n={n}: {t} vs {table[q][n]}")

    for q in range(1, q_max + 1):
        if table[q][0] != totient(q):
            bad.append(f"c_{q}(0) != phi({q})")
        for n in range(n_max + 1):
            if ramanujan_sum(q, n + q) != table[q][n % q]:
                bad.append(f"periodicity fails at q={q} n={n}")

    coprime_pairs = 0
    for q1 in range(1, q_max + 1):
        for q2 in range(q1 + 1, q_max // q1 + 1):
            if gcd(q1, q2) != 1:
                continue
            coprime_pairs += 1
            prod = table[q1 * q2]
            for n in range(q1 * q2):
                if prod[n] != table[q1][n % q1] * table[q2][n % q2]:
                    bad.append(f"multiplicativity fails at q1={q1} q2={q2} n={n}")
                    break

    orthogonal_pairs = 0
    for q1 in range(1, q_max + 1):
        for q2 in range(q1 + 1, q_max + 1):
            orthogonal_pairs += 1
            l = q1 * q2 // gcd(q1, q2)
            s = sum(table[q1][n % q1] * table[q2][n % q2] for n in range(l))
            if s != 0:
                bad.append(f"orthogonality fails at q1={q1} q2={q2}: sum={s}")

    diagonal = {
        q: sum(v * v for v in table[q]) for q in range(1, q_max + 1)
    }
    return SumPropertyReport(
        q_max=q_max,
        n_max=n_max,
        orthogonal_pairs=orthogonal_pairs,
        coprime_pairs=coprime_pairs,
        diagonal_sums=diagonal,
        violations=tuple(bad),
    )


def rf_partial_sum(func: str, n: int, Q: int) -> float:
    """Q-term partial sum of a classical Ramanujan-Fourier expansion.

    func "sigma":      sigma(n) = (pi^2 n / 6) sum_q c_q(n) / q^2
    func "divisor_d":  d(n)    = - sum_q (log q)/q * c_q(n)
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if Q < 1:
        raise DomainError("term count Q must be >= 1")
    c = _sums_for_fixed_n(n, Q)
    if func == "sigma":
        pi_sq = float(pi_chudnovsky(30)) ** 2
        return pi_sq * n / 6.0 * sum(c[q] / (q * q) for q in range(1, Q + 1))
    if func == "divisor_d":
        return -sum(math.log(q) / q * c[q] for q in range(2, Q + 1))
    raise DomainError(f"unknown series {func!r}; use 'sigma' or 'divisor_d'")


def tau_coefficients(n_max: int) -> list[int]:
    """tau(1..n_max): coefficients of q prod_k (1-q^k)^24, exact integers.

    prod (1-q^k)^24 is the 8th power of Jacobi's eta^3 series
    prod (1-q^k)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), which is sparse
    and applied 8 times to a dense coefficient array.
    """
    if not 1 <= n_max <= 5000:
        raise DomainError("n_max must lie in 1..5000")
    m = n_max  # needed degrees 0..m-1 of prod (1-q^k)^24
    jacobi = []
    k = 0
    while k * (k + 1) // 2 < m:
        jacobi.append((k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1))
        k += 1
    arr = [0] * m
    arr[0] = 1
    for _ in range(8):
        out = [0] * m
        for off, c in jacobi:
            for i in range(m - off):
                out[i + off] += c * arr[i]
        arr = out
    return arr  # arr[i] is the q^(i+1) coefficient, i.e. tau(i+1)


@dataclass(frozen=True)
class TauBoundReport:
    """Result of checking |tau(p)| <= 2 p^(11/2) over all primes <= p_max."""

    p_max: int
    primes_checked: int
    holds: bool
    max_ratio: float
    worst_prime: int


def check_tau_bound(p_max: int) -> TauBoundReport:
    """Verify tau(p)^2 <= 4 p^11 (exact integers) for every prime <= p_max."""
    if not 2 <= p_max <= 5000:
        raise DomainError("p_max must lie in 2..5000")
    taus = tau_coefficients(p_max)
    holds = True
    max_ratio, worst = 0.0, 0
    checked = 0
    for p in primes_up_to(p_max):
        checked += 1
        t = taus[p - 1]
        if t * t > 4 * p**11:
            holds = False
        ratio = math.sqrt(t * t / (4 * p**11))
        if ratio > max_ratio:
            max_ratio, worst = ratio, p
    return TauBoundReport(
        p_max=p_max,
        primes_checked=checked,
        holds=holds,
        max_ratio=max_ratio,
        worst_prime=worst,
    )


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After a pivot step every entry below it is a minor of the original
    matrix, so dividing by the previous pivot is exact and the entries
    stay integers.
    """
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            rows[r] = [(lead[col] * a - f * b) // prev for a, b in zip(rows[r], lead)]
        prev = lead[col]
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class RamanujanBasis:
    """The circulant matrix B_q with entries c_q((j-k) mod q).

    basis_cols holds the first phi(q) columns, which span the same
    column space as the whole of B_q; rank is verified exactly.
    """

    q: int
    matrix: tuple[tuple[int, ...], ...]
    basis_cols: tuple[tuple[int, ...], ...]
    rank: int


def ramanujan_basis(q: int) -> RamanujanBasis:
    """Build B_q and confirm rank(B_q) = phi(q) by exact elimination."""
    if q < 1:
        raise DomainError("q must be >= 1")
    row = [ramanujan_sum(q, n) for n in range(q)]
    matrix = tuple(tuple(row[(j - k) % q] for k in range(q)) for j in range(q))
    phi = totient(q)
    cols = tuple(tuple(matrix[j][k] for j in range(q)) for k in range(phi))
    rank = _exact_rank(matrix)
    if rank != phi:
        raise DomainError(f"rank(B_{q}) = {rank}, expected phi({q}) = {phi}")
    return RamanujanBasis(q=q, matrix=matrix, basis_cols=cols, rank=rank)


@dataclass(frozen=True)
class Signal:
    """One period of an N-periodic sequence, N = len(samples) >= 1."""

    samples: tuple

    def __post_init__(self):
        if len(self.samples) < 1:
            raise DomainError("signal must have at least one sample")

    @property
    def n(self) -> int:
        return len(self.samples)


def parse_samples(text: str, csv: bool = False) -> Signal:
    """Parse signal samples from text.

    Default format is one sample per line, either a real number or
    "re,im" for a complex sample. csv=True reads a flat list of reals
    separated by commas and/or whitespace. Integer-looking tokens stay
    exact ints so the rational decomposition path applies. nan and inf
    samples are rejected: they would make every energy fraction
    meaningless.
    """

    def scalar(tok: str):
        tok = tok.strip()
        try:
            return int(tok)
        except ValueError:
            try:
                value = float(tok)
            except ValueError:
                raise DomainError(f"cannot parse sample {tok!r}") from None
            if not math.isfinite(value):
                raise DomainError(f"sample {tok!r} is not finite")
            return value

    values = []
    if csv:
        for tok in text.replace(",", " ").split():
            values.append(scalar(tok))
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if "," in line:
                re_part, _, im_part = line.partition(",")
                values.append(complex(scalar(re_part), scalar(im_part)))
            else:
                values.append(scalar(line))
    if not values:
        raise DomainError("no samples found in input")
    return Signal(samples=tuple(values))


@dataclass(frozen=True)
class FirDecomposition:
    """x split as sum over divisors q of N of a component in the span of B_q."""

    n: int
    components: dict
    residual_norm: float
    exact: bool

    def reconstruction(self) -> tuple:
        out = [0] * self.n
        for comp in self.components.values():
            for i, v in enumerate(comp):
                out[i] = out[i] + v
        return tuple(out)

    def energy_fractions(self) -> dict[int, float]:
        """Share of the total energy sum |x_q[i]|^2 held by each component.

        Every fraction is 0.0 for the all-zero signal. An energy past
        the float range is a DomainError, not an inf or nan fraction.
        """
        try:
            energies = {
                q: float(sum(abs(complex(v)) ** 2 for v in comp))
                for q, comp in self.components.items()
            }
            total = sum(energies.values())
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise DomainError("signal energy exceeds the float range")
        return {q: (e / total if total > 0.0 else 0.0) for q, e in energies.items()}


def _is_exact_value(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def fir_decompose(x: Signal) -> FirDecomposition:
    """Decompose x into q-periodic components, one per divisor q of N.

    The Ramanujan subspaces S_q (q | N) are mutually orthogonal and span
    every length-N signal, so the q-component is the projection
    x_q[i] = (1/N) sum_j x[j] c_q((i - j) mod q). Expanding c_q by the
    Mobius formula turns that convolution into sums over the folds
    fold_d[r] = sum_{j = r mod d} x[j]:

        x_q[i] = (1/N) sum_{d | q} mu(q/d) * d * fold_d[i mod d].

    Samples that are all int/Fraction give exact rational components
    (ints where the denominator is 1) and residual 0.0, at any length.
    Otherwise components are floats, complex when some sample has a
    nonzero imaginary part, and residual_norm is the float norm of
    x - sum_q x_q.
    """
    n = x.n
    exact = all(_is_exact_value(v) for v in x.samples)
    if exact:
        # scale to integers so the folds accumulate without Fractions
        den = math.lcm(*(v.denominator for v in x.samples))
        values = [v.numerator * (den // v.denominator) for v in x.samples]
        den *= n
    else:
        try:
            values = [complex(v) for v in x.samples]
        except OverflowError:
            raise DomainError("sample exceeds the float range") from None
        if not any(v.imag for v in values):
            values = [v.real for v in values]
    qs = divisors(n)
    folds = {d: [sum(values[r::d]) for r in range(d)] for d in qs}
    components = {}
    for q in qs:
        row = [0] * q
        for d in divisors(q):
            weight = mobius(q // d) * d
            if weight:
                fold = folds[d] * (q // d)
                row = [a + weight * b for a, b in zip(row, fold)]
        if exact:
            row = [a // den if a % den == 0 else Fraction(a, den) for a in row]
        else:
            row = [a / n for a in row]
        components[q] = tuple(row) * (n // q)
    if exact:
        residual = 0.0
    else:
        recon = [sum(parts) for parts in zip(*components.values())]
        residual = math.hypot(*(abs(a - b) for a, b in zip(values, recon)))
    return FirDecomposition(
        n=n, components=components, residual_norm=residual, exact=exact
    )


def estimate_periods(x: Signal, top_k: int) -> list[tuple[int, float]]:
    """Rank divisor periods of the signal by component energy fraction.

    Returns up to top_k pairs (q, energy fraction), strongest first;
    ties and the all-zero signal rank by ascending q.
    """
    if top_k < 1:
        raise DomainError("top_k must be >= 1")
    fractions = fir_decompose(x).energy_fractions()
    ranked = sorted(fractions.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]
