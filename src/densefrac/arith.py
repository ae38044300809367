"""Exact integer/rational groundwork shared by the whole pipeline.

P(1) = 1: the largest prime factor of 1 is 1, the convention of classical
multiplicative number theory. "A prime power p^l exactly divides n" means
p^l | n and p^(l+1) does not.

The sieved families in `densefrac.smooth` carry the primes <= y and P(n)
for bulk work. SMALL_PRIMES, the primes below 64, holds the primes a run
needs above y or without a family: the planner's y'' and exit-prime
ladders, and the odd expander's, whose denominators divide D0(y') with
y' <= 30. Trial division is left to is_prime, for
`densefrac.modular.eliminate_prime`'s p, and to factorize, which no run
calls (the tests and the benchmark's tracer reach it).

Moduli are plain ints: the construction builds its own from the sieve's
primes and asks them only for p | m and the multiplicity of p. Exact
rationals are stdlib `fractions.Fraction` (always reduced, positive
denominator). Bulk reciprocal sums over a family never reduce pairwise:
see `densefrac.smooth.reciprocal_sum`, which divides a common denominator
m by every element at once, summing m // n (in all, or per group of
elements for the planner's cutoff walk) and proving each m mod n zero
(`limb_remainders` gives the remainders alone).
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import ParameterError

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


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


def exact_multiplicity(n: int, p: int) -> int:
    """Largest l with p^l | n (so p^l exactly divides n); n >= 1, p >= 2."""
    if n < 1:
        raise ParameterError(f"exact_multiplicity requires n >= 1, got {n}")
    if p < 2:  # 1 and -1 divide n forever, and 0 divides nothing
        raise ParameterError(f"exact_multiplicity requires p >= 2, got {p}")
    l = 0
    while n % p == 0:
        n //= p
        l += 1
    return l


def is_prime(n: int) -> bool:
    """Trial division, for single small n (eliminate_prime's p)."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
