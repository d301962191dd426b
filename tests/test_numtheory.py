"""Number-theory helpers: primality, factorization, multiplicative functions."""

import random

import pytest

from ramkit import DomainError
from ramkit.numtheory import (
    divisors,
    factorize,
    gcd,
    is_prime,
    legendre_is_qr,
    mobius,
    mobius_sieve,
    mod_inverse,
    primes_up_to,
    sqrt_mod,
    totient,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat but not Miller-Rabin
    assert not is_prime(561)
    assert not is_prime(1105)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)  # (2^31-1)(2^31+1)
    with pytest.raises(DomainError):
        is_prime(2**64 + 1)  # deterministic witnesses only cover n < 2^64


def test_factorize_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_sorted_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(29) == [1, 29]
    for n in (36, 100, 210):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_totient_values():
    assert totient(1) == 1
    assert totient(6) == 2
    assert totient(29) == 28
    assert totient(30) == 8
    # sum over divisors of phi(d) is n
    for n in range(1, 200):
        assert sum(totient(d) for d in divisors(n)) == n


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(6) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1
    # sum over divisors of mu(d) is [n == 1]
    for n in range(1, 200):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_sieves_match_pointwise():
    mu = mobius_sieve(500)
    for n in range(1, 501):
        assert mu[n] == mobius(n)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(1000)) == 168


def test_quadratic_residues():
    # 11^2 = 121 = 5 + 4*29, so 5 is a residue mod 29
    assert legendre_is_qr(5, 29)
    assert not legendre_is_qr(5, 13)
    assert legendre_is_qr(13, 29)


def test_sqrt_mod():
    r = sqrt_mod(28, 29)  # a square root of -1
    assert r in (12, 17) and r * r % 29 == 28
    assert sqrt_mod(28, 29) == 12  # deterministic pick used downstream
    s = sqrt_mod(5, 29)
    assert s in (11, 18) and s * s % 29 == 5
    for m in range(1, 13):
        if legendre_is_qr(m, 13):
            t = sqrt_mod(m, 13)
            assert t * t % 13 == m


def test_mod_inverse():
    assert mod_inverse(11, 29) == 8
    for a in range(1, 29):
        assert a * mod_inverse(a, 29) % 29 == 1
    with pytest.raises(DomainError):
        mod_inverse(0, 29)


def test_gcd():
    assert gcd(12, 18) == 6
    assert gcd(0, 5) == 5
    assert gcd(17, 29) == 1
