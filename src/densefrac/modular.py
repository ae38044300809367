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
by trial division once per p (the verdict is cached). S may be any
sequence of ints or an int64 array, taken in through smooth._as_int64, so
every value is an integer in int64. A slice is checked in two array
passes, n | N on limb_remainders' remainders and p^l | n; residues are
made from Python ints only as far as the solver reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

# modular calls no factorize: the name stays here only because
# perfbench/tracing.py counts calls through this namespace (always 0; the
# planner calls arith.factorize through its own import).
from .arith import exact_multiplicity, factorize, is_prime  # noqa: F401
from .errors import DivisibilityError, EliminationFailed, ParameterError
from .smooth import _as_int64, limb_remainders


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
    S: Sequence[int],
    p: int,
    l: int,
) -> Tuple[list[int], Fraction]:
    """Cancel the factor p^l from the denominator of c/d.

    Requires p^l exactly dividing the int N >= 1, d | N, and every n in S
    dividing N with exact p-multiplicity l. S is any sequence of ints or an
    int64 array (it is not modified). A value outside int64 raises
    ParameterError, and so does an element below 1 once every positive
    element divides N. Returns (T, c'/d') with T a sorted list of Python ints
    from S, |T| < p, c'/d' = c/d + sum(1/n for n in T) and d' | N/p.

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
    Every n in S is proven to divide N by a zero remainder (limb_remainders)
    before the solver runs; since p^l exactly divides N, p^l | n then means
    multiplicity exactly l. An S already strictly ascending is not sorted
    again.
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
    ascending = _as_int64(S)
    if not (ascending[1:] > ascending[:-1]).all():
        ascending = np.sort(ascending)
        if (ascending[1:] == ascending[:-1]).any():
            raise ParameterError("S must not contain duplicates")
    elements = ascending[::-1]
    n_pos = ascending.size
    if n_pos and ascending[0] < 1:
        n_pos -= int(np.searchsorted(ascending, 1))
    remainders = limb_remainders(N, elements[:n_pos])
    if remainders.any():  # the largest element that fails is reported
        bad = elements[np.argmax(remainders != 0)]
        raise DivisibilityError(f"element {bad} does not divide N")
    if n_pos < elements.size:
        raise ParameterError(f"elements of S must be positive, got {elements[n_pos]}")

    # Every element divides N, which p^l exactly divides, so an element's
    # p-multiplicity is exactly l iff p^l divides it.
    pl = p**l
    if pl < 2**63:
        exact = elements % pl == 0
    else:  # no int64 element is a multiple of p^l
        exact = np.zeros(elements.size, dtype=bool)
    d_mult = exact_multiplicity(d, p)
    if d_mult != l and not exact.any():
        raise ParameterError(
            f"every element of S must be exactly divisible by {p}^{l}"
        )
    if not exact.all():
        n = int(elements[np.argmin(exact)])
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
    # The solver stops at its first witness, typically within the first 2%
    # of a slice, so the residues are made as it reads them.
    residues = (unit * pow(n // pl % p, -1, p) % p for n in map(int, elements))
    witness = _solve(residues, target, p, elements.size)
    if witness is None:
        raise EliminationFailed(
            f"no subset of {elements.size} multiples reaches the residue "
            f"needed to cancel {p}^{l}",
            prime=p,
            power=l,
            failing_parameter="S",
            suggestion="enlarge S (lower lambda'), or switch x",
        )
    T = [int(elements[i]) for i in witness]
    if len(T) >= p:
        raise AssertionError("witness cardinality >= p")
    result = Fraction(c * (N // d) + sum(N // n for n in T), N)
    if (N // p) % result.denominator != 0:
        raise AssertionError("postcondition d' | N/p violated")
    return sorted(T), result
