"""Exact integer/rational groundwork shared by the whole pipeline.

P(1) = 1: the largest prime factor of 1 is 1, the convention of classical
multiplicative number theory. "A prime power p^l exactly divides n" means
p^l | n and p^(l+1) does not.

Factorization here is by trial division: it serves one-off queries on
small integers (the odd expander's moduli and P(d) of its inputs, tests),
while the sieved families in `densefrac.smooth` carry P(n) for bulk work.
Moduli are plain ints: the construction builds its own from the sieve's
primes and asks them only for p | m and the multiplicity of p. Exact
rationals are stdlib
`fractions.Fraction` (always reduced, positive denominator). Bulk
reciprocal sums over a family never reduce pairwise: see
`densefrac.smooth.limb_division`, which divides a common denominator m
by every element at once, giving sums of m // n and each m mod n
(`limb_remainders` gives the remainders alone).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import ParameterError


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (p, e) with p^e exactly dividing n >= 1, primes ascending,
    by trial division; factorize(1) is ()."""
    if n < 1:
        raise ParameterError(f"factorize requires n >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def largest_prime_factor(n: int) -> int:
    """P(n); P(1) = 1."""
    if n < 1:
        raise ParameterError(f"P(n) requires n >= 1, got {n}")
    if n == 1:
        return 1
    return factorize(n)[-1][0]


def exact_multiplicity(n: int, p: int) -> int:
    """Largest l with p^l | n (so p^l exactly divides n)."""
    if n < 1:
        raise ParameterError(f"exact_multiplicity requires n >= 1, got {n}")
    l = 0
    while n % p == 0:
        n //= p
        l += 1
    return l


def is_prime(n: int) -> bool:
    """Trial division, for single small n (slice bases, y' candidates, p)."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def primes_in(lo: int, hi: int) -> list[int]:
    """Ascending primes in the closed interval [lo, hi]."""
    if lo > hi:
        raise ParameterError(f"empty-ordered interval [{lo}, {hi}]")
    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    start = max(lo, 2)
    return (np.nonzero(sieve[start : hi + 1])[0] + start).tolist()


