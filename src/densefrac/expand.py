"""The terminal expansion: odd Egyptian fractions.

expand_odd writes a positive c/d (d odd, c/d < 1/P(d)) as a sum of
reciprocals of distinct odd integers. It works over a modulus M = lcm(d, g)
with g odd and smooth: writing c*(M/d) as a sum of distinct divisors e of M
turns each divisor into the term M/e. Moduli are tried in ascending order,
growing prime exponents, so results are canonical; at pipeline scale the
inputs are tiny and the searches trivial.

Every prime here is read off `arith.SMALL_PRIMES`, the primes below 64:
d and each modulus are factored by dividing out the table's primes, so the
domain is P(d) <= 61, and a d with a larger prime factor is refused
(ParameterError). The pipeline stays inside it: stage two expands
residuals whose denominators divide D0(y'), and planning caps y' at
min(w, 30, y).

The documented size target for the terms is 5 * lcm(d, 3^2 * prod of odd
primes 3 < p <= P(d)) (breusch_bound); expansions are found within it in
practice, and a fallback tier searches moduli up to 15 times that bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Tuple

from .arith import SMALL_PRIMES, exact_multiplicity
from .errors import BoundExceeded, ParameterError

_FALLBACK_FACTOR = 15
_NODE_BUDGET = 200_000


def _factor(d: int) -> dict:
    """{p: e} with p^e exactly dividing d, read off SMALL_PRIMES; raises
    ParameterError unless d >= 1 is a product of them (P(d) <= 61)."""
    factors = {p: exact_multiplicity(d, p) for p in SMALL_PRIMES if d % p == 0}
    if math.prod(p**e for p, e in factors.items()) != d:
        raise ParameterError(
            f"{d} is not a product of primes below 64", failing_parameter="c_over_d"
        )
    return factors


def _bound(d: int, pd: int) -> int:
    return 5 * math.lcm(d, 9 * math.prod(q for q in SMALL_PRIMES[2:] if q <= pd))


def breusch_bound(d: int) -> int:
    """5 * lcm(d, 3^2 * prod of odd primes 3 < p <= P(d))."""
    return _bound(d, max(_factor(d), default=1))


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


def _modulus_candidates(d: int, pd: int, limit: int) -> list[int]:
    """Odd moduli lcm(d, g), g smooth over the ladder: the odd primes of
    SMALL_PRIMES up to max(P(d), 7), ascending."""
    ladder = SMALL_PRIMES[1 : bisect_right(SMALL_PRIMES, max(pd, 7))]
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


def expand_odd(c_over_d: Fraction, max_term: Optional[int] = None) -> Tuple[int, ...]:
    """Exact odd-denominator expansion of c/d (d odd, 0 < c/d < 1/P(d),
    P(d) <= 61): distinct odd terms, ascending, with sum(1/t) = c/d.

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
    pd = max(_factor(d), default=1)
    if v * pd >= 1:
        raise ParameterError(
            f"need c/d < 1/P(d): {v} >= 1/{pd}",
            failing_parameter="c_over_d",
        )
    limit = _bound(d, pd) * _FALLBACK_FACTOR
    if max_term is not None:
        limit = min(limit, max_term * (c + 1) * 4)
    for m in _modulus_candidates(d, pd, limit):
        target = c * (m // d)
        divs = _all_divisors(_factor(m).items())
        if max_term is not None:
            divs = [e for e in divs if m // e <= max_term]
        if sum(divs) < target:
            continue
        subset = _divisor_subset(divs, target)
        if subset is None:
            continue
        terms = tuple(sorted(m // e for e in subset))
        if sum((Fraction(1, t) for t in terms), Fraction(0)) != v:
            raise AssertionError("expansion self-check failed")
        if len(set(terms)) != len(terms) or any(t % 2 == 0 for t in terms):
            raise AssertionError("expansion terms not distinct odd")
        return terms
    raise BoundExceeded(
        f"no odd expansion of {v} within term bound "
        f"{max_term if max_term is not None else limit}",
        failing_parameter="max_term",
        suggestion="raise the term bound or reduce the residual",
    )
