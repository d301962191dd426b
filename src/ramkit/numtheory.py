"""Exact integer number theory shared by every other module.

Everything here is deterministic: primality uses a Miller-Rabin witness
set that is exact below 2^64, and factorization is plain trial division
(inputs in this package are small).
"""

import math

from . import DomainError

# Witnesses proven sufficient for deterministic Miller-Rabin below 2^64
# (Sinclair's set).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_DIVISION_LIMIT = 10**7


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= 2**64:
        raise DomainError("primality test is only deterministic below 2^64")
    # write n-1 = d * 2^s with d odd
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(0, b) = b."""
    return math.gcd(a, b)


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, returned as {prime: exponent}.

    Covers composites with all prime factors below 10^7 plus a single
    larger prime cofactor, which is all this package ever needs.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    factors: dict[int, int] = {}
    for p in range(2, _TRIAL_DIVISION_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        if n >= _TRIAL_DIVISION_LIMIT**2 and not is_prime(n):
            raise DomainError("cofactor too large for trial division")
        factors[n] = factors.get(n, 0) + 1
    return factors


def totient(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise DomainError("totient requires n >= 1")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Mobius function: 1 at n=1, (-1)^k for squarefree n with k prime
    factors, 0 when a squared prime divides n."""
    if n < 1:
        raise DomainError("mobius requires n >= 1")
    factors = factorize(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order."""
    if n < 1:
        raise DomainError("divisors requires n >= 1")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def legendre_is_qr(m: int, q: int) -> bool:
    """True iff m is a quadratic residue mod the odd prime q.

    Euler criterion: m^((q-1)/2) == 1 (mod q).
    """
    if q == 2 or not is_prime(q):
        raise DomainError("modulus must be an odd prime")
    if m % q == 0:
        raise DomainError("m must be coprime to q")
    return pow(m, (q - 1) // 2, q) == 1


def sqrt_mod(m: int, q: int) -> int:
    """Smallest x in [1, q-1] with x^2 = m (mod q).

    Tonelli-Shanks; both roots x and q-x exist, the smaller is returned
    so that downstream constructions are reproducible.
    """
    if not is_prime(q):
        raise DomainError("modulus must be prime")
    m %= q
    if q == 2:
        return m
    if not legendre_is_qr(m, q):
        raise DomainError(f"{m} is not a quadratic residue mod {q}")
    if q % 4 == 3:
        x = pow(m, (q + 1) // 4, q)
        return min(x, q - x)
    # Tonelli-Shanks for q = 1 (mod 4)
    s = 0
    d = q - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while legendre_is_qr(z, q):
        z += 1
    c = pow(z, d, q)
    x = pow(m, (d + 1) // 2, q)
    t = pow(m, d, q)
    r = s
    while t != 1:
        # find least i with t^(2^i) = 1
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (r - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        r = i
    return min(x, q - x)


def mod_inverse(a: int, q: int) -> int:
    """x with a*x = 1 (mod q), in [1, q-1]."""
    a %= q
    g = math.gcd(a, q)
    if g != 1:
        raise DomainError(f"{a} is not invertible mod {q}")
    return pow(a, -1, q)


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit by sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def mobius_sieve(limit: int) -> list[int]:
    """mu(0..limit) as a list (mu(0) set to 0)."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    primes = primes_up_to(limit)
    for p in primes:
        for k in range(p, limit + 1, p):
            mu[k] = -mu[k]
        pp = p * p
        for k in range(pp, limit + 1, pp):
            mu[k] = 0
    return mu

