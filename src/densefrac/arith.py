"""Exact integer/rational groundwork shared by the whole pipeline.

Two conventions from classical multiplicative number theory are wired in:
P(1) = 1 (largest prime factor of 1) and p(1) = infinity (least prime
factor of 1, an infinite marker that compares greater than every prime).
"A prime power p^l exactly divides n" means p^l | n and p^(l+1) does not.

Factorization here is by trial division: it serves one-off queries (the
target's denominator, expansion moduli, tests), while the sieved families
in `densefrac.smooth` carry P(n) for bulk work. Exact rationals are stdlib
`fractions.Fraction` (always reduced, positive denominator). Bulk
reciprocal sums over a family never reduce pairwise: see
`densefrac.smooth.reciprocal_sum` for the fixed-common-denominator
accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ParameterError

#: Marker returned by least_prime_factor(1); compares greater than any prime.
P_INFINITY = math.inf


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer carried together with its full factorization.

    Invariants: primes strictly increasing, every exponent >= 1, and
    prod(p^e) == value. Denominator moduli in the construction have
    hundreds of digits, so they are always built from known factors and
    manipulated through exponent arithmetic, never re-factorized.
    """

    value: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise ParameterError(f"FactoredInt must be positive, got {self.value}")
        prev = 1
        acc = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ParameterError(f"malformed factor sequence {self.factors}")
            prev = p
            acc *= p**e
        if acc != self.value:
            raise ParameterError(
                f"factors {self.factors} do not multiply to {self.value}"
            )

    @classmethod
    def one(cls) -> "FactoredInt":
        return cls(1, ())

    @classmethod
    def from_factors(cls, factors: Sequence[Tuple[int, int]]) -> "FactoredInt":
        factors = tuple((int(p), int(e)) for p, e in factors if e > 0)
        value = 1
        for p, e in factors:
            value *= p**e
        return cls(value, factors)

    def multiplicity(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
            if q > p:
                return 0
        return 0

    def divides(self, other: "FactoredInt") -> bool:
        return all(other.multiplicity(p) >= e for p, e in self.factors)

    def lcm(self, other: "FactoredInt") -> "FactoredInt":
        """Max-exponent merge; never computes integer lcm on huge values."""
        merged = dict(self.factors)
        for p, e in other.factors:
            if merged.get(p, 0) < e:
                merged[p] = e
        return FactoredInt.from_factors(sorted(merged.items()))

    def mul_prime_power(self, p: int, e: int) -> "FactoredInt":
        merged = dict(self.factors)
        merged[p] = merged.get(p, 0) + e
        return FactoredInt.from_factors(sorted(merged.items()))

    def div_prime(self, p: int, e: int = 1) -> "FactoredInt":
        """Divide out p^e; requires multiplicity(p) >= e."""
        have = self.multiplicity(p)
        if have < e:
            raise ParameterError(f"cannot divide p={p}^{e} out of {self.factors}")
        merged = dict(self.factors)
        merged[p] = have - e
        return FactoredInt.from_factors(sorted(merged.items()))

    def odd_part(self) -> "FactoredInt":
        return FactoredInt.from_factors([(p, e) for p, e in self.factors if p != 2])

    def largest_prime(self) -> int:
        """P(value) with the P(1) = 1 convention."""
        return self.factors[-1][0] if self.factors else 1


def factorize(n: int) -> FactoredInt:
    """Factor n >= 1 by trial division; factorize(1) has no factors."""
    if n < 1:
        raise ParameterError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return FactoredInt.one()
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
    return FactoredInt(n, tuple(factors))


def largest_prime_factor(n: int) -> int:
    """P(n); P(1) = 1."""
    if n < 1:
        raise ParameterError(f"P(n) requires n >= 1, got {n}")
    if n == 1:
        return 1
    return factorize(n).factors[-1][0]


def least_prime_factor(n: int):
    """p(n); p(1) is an infinite marker greater than every prime."""
    if n < 1:
        raise ParameterError(f"p(n) requires n >= 1, got {n}")
    if n == 1:
        return P_INFINITY
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def exact_multiplicity(n: int, p: int) -> int:
    """Largest l with p^l | n (so p^l exactly divides n)."""
    if n < 1:
        raise ParameterError(f"exact_multiplicity requires n >= 1, got {n}")
    l = 0
    while n % p == 0:
        n //= p
        l += 1
    return l


def is_k_free(n: int, k: int) -> bool:
    """True iff no prime's k-th power divides n (k >= 2)."""
    if k < 2:
        raise ParameterError(f"k-free requires k >= 2, got {k}")
    if n < 1:
        raise ParameterError(f"is_k_free requires n >= 1, got {n}")
    if n == 1:
        return True
    return all(e < k for _, e in factorize(n).factors)


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
    return [int(v) for v in np.nonzero(sieve[start : hi + 1])[0] + start]


