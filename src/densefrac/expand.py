"""The terminal expansion: odd Egyptian fractions.

expand_odd writes a positive c/d (d odd, c/d < 1/P(d)) as a sum of
reciprocals of distinct odd integers. It works over a modulus M = lcm(d, g)
with g odd and smooth: writing c*(M/d) as a sum of distinct divisors e of M
turns each divisor into the term M/e. Moduli are tried in ascending order,
growing prime exponents, so results are canonical; at pipeline scale the
inputs are tiny and the searches trivial.

The documented size target for the terms is 5 * lcm(d, 3^2 * prod of odd
primes 3 < p <= P(d)) (breusch_bound); expansions are found within it in
practice, and a fallback tier searches moduli up to 15 times that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .arith import factorize, largest_prime_factor, primes_in
from .errors import BoundExceeded, ParameterError

_FALLBACK_FACTOR = 15
_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class OddExpansion:
    """Distinct odd terms with sum(1/t) equal to the input exactly."""

    terms: Tuple[int, ...]

    def value(self) -> Fraction:
        return sum((Fraction(1, t) for t in self.terms), Fraction(0))


def breusch_bound(d: int) -> int:
    """5 * lcm(d, 3^2 * prod of odd primes 3 < p <= P(d))."""
    pd = largest_prime_factor(d)
    g = 9
    for q in primes_in(5, max(pd, 5)):
        if q <= pd:
            g *= q
    return 5 * math.lcm(d, g)


def _divisor_subset(divs: list[int], target: int) -> Optional[list[int]]:
    """Distinct divisors summing to target; descending greedy with backtrack."""
    divs = [e for e in sorted(divs, reverse=True) if e <= target]
    suffix = [0] * (len(divs) + 1)
    for i in range(len(divs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + divs[i]
    chosen: list[int] = []
    budget = _NODE_BUDGET

    def rec(i: int, rem: int) -> bool:
        nonlocal budget
        if rem == 0:
            return True
        budget -= 1
        if budget < 0 or i >= len(divs) or suffix[i] < rem:
            return False
        e = divs[i]
        if e <= rem:
            chosen.append(e)
            if rec(i + 1, rem - e):
                return True
            chosen.pop()
        return rec(i + 1, rem)

    return chosen[:] if rec(0, target) else None


def _all_divisors(factors) -> list[int]:
    """The divisors of prod(p^e) over the pairs (p, e) in factors."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return divs


def _modulus_candidates(d: int, limit: int) -> list[int]:
    """Odd moduli lcm(d, g), g smooth over the ladder primes, ascending."""
    pd = largest_prime_factor(d)
    ladder = primes_in(3, max(pd, 7))
    out = set()

    def rec(i: int, g: int):
        m = math.lcm(d, g)
        if m > limit:
            return
        out.add(m)
        for j in range(i, len(ladder)):
            q = ladder[j]
            if math.lcm(d, g * q) <= limit:
                rec(j, g * q)

    rec(0, 1)
    return sorted(out)


def expand_odd(c_over_d: Fraction, max_term: Optional[int] = None) -> OddExpansion:
    """Exact odd-denominator expansion of c/d (d odd, 0 < c/d < 1/P(d)).

    With max_term set, only expansions whose terms stay below it are
    accepted (used by the pipeline to keep repair products inside x);
    raises BoundExceeded when no bounded expansion exists.
    """
    v = Fraction(c_over_d)
    c, d = v.numerator, v.denominator
    if c <= 0:
        raise ParameterError(f"expansion input must be positive, got {v}")
    if d % 2 == 0:
        raise ParameterError(f"denominator must be odd, got {d}")
    pd = largest_prime_factor(d)
    if v * pd >= 1:
        raise ParameterError(
            f"need c/d < 1/P(d): {v} >= 1/{pd}",
            failing_parameter="c_over_d",
        )
    limit = breusch_bound(d) * _FALLBACK_FACTOR
    if max_term is not None:
        limit = min(limit, max_term * (c + 1) * 4)
    for m in _modulus_candidates(d, limit):
        target = c * (m // d)
        divs = _all_divisors(factorize(m))
        if max_term is not None:
            divs = [e for e in divs if m // e <= max_term]
        if sum(divs) < target:
            continue
        subset = _divisor_subset(divs, target)
        if subset is None:
            continue
        terms = tuple(sorted(m // e for e in subset))
        exp = OddExpansion(terms=terms)
        if exp.value() != v:
            raise AssertionError("expansion self-check failed")
        if len(set(terms)) != len(terms) or any(t % 2 == 0 for t in terms):
            raise AssertionError("expansion terms not distinct odd")
        return exp
    raise BoundExceeded(
        f"no odd expansion of {v} within term bound "
        f"{max_term if max_term is not None else limit}",
        failing_parameter="max_term",
        suggestion="raise the term bound or reduce the residual",
    )
