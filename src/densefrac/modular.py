"""Constructive subset sums in Z_p and denominator-prime elimination.

The solver mirrors the inductive proof that t nonzero residues reach at
least min(p, t+1) sums: it grows the achievable set one residue at a time,
extending existing sums by single elements (one rotation of a p-bit set)
and keeping the first witness found for each residue. With at least p-1
residues every target is guaranteed. With fewer the solver is still exact,
and it usually succeeds (random residue sets cover Z_p once their size is
a small power of log p); only the guarantee is lost.

eliminate_prime applies a witness to cancel the factor p^l from a running
denominator: given c/d with d | N, the modulus N a plain int, and a stock
S of divisors of N exactly divisible by p^l, it finds T subset of S,
|T| < p, with the denominator of c/d + sum(1/n for n in T) dividing N/p.
It reads p's multiplicity in N off N itself, and checks that p is prime
by trial division once per p (the verdict is cached). S must be a
strictly ascending 1-D int64 array, as every slice of a family is
(smooth._as_int64 refuses any other form), and is then worked on as a list
of Python ints: a step of the constructor hands over at most p-1 elements,
too few for array passes to pay their fixed cost. Each element is proven
to divide N by a zero N % n, largest first, and checked for p^l | n by
n % p^l; residues are made only as far as the solver reads them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple

# modular calls no factorize: the name stays here only because
# perfbench/tracing.py counts calls through this namespace (always 0; the
# planner calls arith.factorize through its own import).
from .arith import exact_multiplicity, factorize, is_prime  # noqa: F401
from .errors import DivisibilityError, EliminationFailed, ParameterError
from .smooth import _as_int64


@lru_cache(maxsize=1024, typed=True)
def _is_prime(p: int) -> bool:
    """is_prime(p), kept per p: a construction eliminates over the same few
    primes <= y thousands of times."""
    return is_prime(p)


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise ParameterError(f"{p} is not prime")


def _solve(
    rs: Iterable[int], target: int, p: int, t: int
) -> Optional[Tuple[int, ...]]:
    """The indices (strictly increasing, into rs) of the first-found subset
    of the t residues rs, each in [1, p) for p prime, summing to target in
    [0, p) mod p; None when the target is unreachable (possible only with
    fewer than p-1 residues). The empty tuple answers target 0. rs is read
    only up to the first witness found.

    The reached sums are the bits of a p-bit int, grown by one residue x
    at a time: the sums first reached at that step are the rotation of the
    reached set by x less the set itself. Each sum s != 0 was first reached
    at one step i, from s - x_i, reached before step i; walking that back
    to 0 gives the indices of s's witness, the first one found."""
    if target == 0:
        return ()
    mask = (1 << p) - 1
    reached = 1  # the empty sum 0
    steps = []  # (x, the sums first reached by adding x)
    for x in rs:
        new = (reached << x | reached >> (p - x)) & mask & ~reached
        reached |= new
        steps.append((x, new))
        if reached >> target & 1:
            break
    else:
        if t >= p - 1:
            raise AssertionError(f"coverage guarantee violated for p={p}, t={t}")
        return None
    indices = []
    s, i = target, len(steps) - 1
    while s:
        while not steps[i][1] >> s & 1:
            i -= 1
        indices.append(i)
        s = (s - steps[i][0]) % p
    return tuple(reversed(indices))


def eliminate_prime(
    c_over_d: Fraction,
    N: int,
    S,
    p: int,
    l: int,
) -> Tuple[list[int], Fraction]:
    """Cancel the factor p^l from the denominator of c/d.

    Requires p^l exactly dividing the int N >= 1, d | N, and every n in S
    dividing N with exact p-multiplicity l. S must be a strictly ascending
    1-D int64 array (it is not modified): any other form, or an S that is
    not strictly ascending, raises ParameterError, and so does an element
    below 1 once every positive element divides N. Returns (T, c'/d') with
    T a sorted list of Python ints from S, |T| < p,
    c'/d' = c/d + sum(1/n for n in T) and d' | N/p.

    With |S| >= p - 1 success is guaranteed. A thinner S is attempted all
    the same; EliminationFailed is raised when the required residue is
    unreachable.

    Elements are offered to the solver in descending order, so witnesses
    prefer large n (small added reciprocals); results are deterministic.
    When several elements are bad, the largest is reported.

    The subset sum is posed over the residues of N/n mod p. For n exactly
    divisible by p^l, N/n = (N/p^l) / (n/p^l) with both factors prime to
    p, so each residue is (N/p^l mod p) * inv(n/p^l mod p), made only for
    the elements the solver reads. Any common multiple M of d and S
    carrying exactly p^l gives residues that differ from these by the unit
    N/M, so the witness does not depend on the choice of common multiple.
    Every n in S is proven to divide N by a zero N % n before the solver
    runs; since p^l exactly divides N, p^l | n then means multiplicity
    exactly l.
    """
    _check_prime(p)
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    mult = exact_multiplicity(N, p)
    if mult != l:
        raise ParameterError(
            f"p^l = {p}^{l} must exactly divide N (multiplicity {mult})"
        )
    c, d = c_over_d.numerator, c_over_d.denominator
    if N % d != 0:
        raise DivisibilityError(f"denominator {d} does not divide N")
    ascending = _as_int64(S).tolist()
    if not all(map(operator.lt, ascending, ascending[1:])):
        raise ParameterError("S must be strictly ascending")
    elements = ascending[::-1]
    # Largest first, so the largest element that fails is reported, and every
    # positive element is proven to divide N before a non-positive one is
    # refused.
    for n in elements:
        if n < 1:
            raise ParameterError(f"elements of S must be positive, got {n}")
        if N % n:
            raise DivisibilityError(f"element {n} does not divide N")

    # Every element divides N, which p^l exactly divides, so an element's
    # p-multiplicity is exactly l iff p^l divides it.
    pl = p**l
    inexact = [n for n in elements if n % pl]
    d_mult = exact_multiplicity(d, p)
    if d_mult != l and len(inexact) == len(elements):
        raise ParameterError(
            f"every element of S must be exactly divisible by {p}^{l}"
        )
    if inexact:
        n = inexact[0]
        raise ParameterError(
            f"element {n} has p-multiplicity {exact_multiplicity(n, p)}, "
            f"expected exactly {l}"
        )

    if d_mult < l:
        return [], c_over_d  # N/d is a multiple of p: nothing to cancel
    unit = N // pl % p
    target = -c * unit * pow(d // pl % p, -1, p) % p
    if target == 0:
        return [], c_over_d
    # The solver stops at its first witness, so the residues are made as it
    # reads them; on a slice longer than p - 1 it reads at most p - 1.
    residues = (unit * pow(n // pl % p, -1, p) % p for n in elements)
    witness = _solve(residues, target, p, len(elements))
    if witness is None:
        raise EliminationFailed(
            f"no subset of {len(elements)} multiples reaches the residue "
            f"needed to cancel {p}^{l}",
            prime=p,
            power=l,
            failing_parameter="S",
            suggestion="enlarge S (lower lambda'), or switch x",
        )
    T = [elements[i] for i in witness]
    if len(T) >= p:
        raise AssertionError("witness cardinality >= p")
    result = Fraction(c * (N // d) + sum(N // n for n in T), N)
    if (N // p) % result.denominator != 0:
        raise AssertionError("postcondition d' | N/p violated")
    return sorted(T), result
