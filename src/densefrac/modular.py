"""Constructive subset sums in Z_p and denominator-prime elimination.

The solver mirrors the inductive proof that t nonzero residues reach at
least min(p, t+1) sums: it grows the achievable set one residue at a time,
extending existing sums by single elements and keeping the first witness
found for each residue. With at least p-1 residues every target is
guaranteed; with fewer ("opportunistic" use, after the heuristic that
random residue sets cover Z_p once their size is a small power of log p)
the solver is still exact, only the success guarantee is lost.

eliminate_prime applies a witness to cancel the factor p^l from a running
denominator: given c/d with d | N and a stock S of multiples of N exactly
divisible by p^l, it finds T subset of S, |T| < p, with the denominator of
c/d + sum(1/n for n in T) dividing N/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

# factorize stays importable from here: perfbench/tracing.py counts its calls
# through this module's namespace.
from .arith import FactoredInt, factorize, is_prime  # noqa: F401
from .errors import DivisibilityError, EliminationFailed, ParameterError

STRICT = "strict"
OPPORTUNISTIC = "opportunistic"


@dataclass(frozen=True)
class SubsetWitness:
    """Indices (strictly increasing, into the input list) summing to a residue."""

    indices: Tuple[int, ...]
    achieved: int


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")


def _reduced_residues(residues: Sequence[int], p: int) -> list[int]:
    out = []
    for r in residues:
        r = int(r) % p
        if r == 0:
            raise ParameterError("residues must be nonzero mod p")
        out.append(r)
    return out


def _grow_achievable(
    residues: Sequence[int], p: int, target: Optional[int]
) -> Dict[int, Tuple[int, ...]]:
    """Insert residues one at a time; stop early once target is reachable.

    Returns the achievable map {residue: first witness}. Insertion order is
    the input order; witnesses are never overwritten, so results are
    deterministic.
    """
    reached: Dict[int, Tuple[int, ...]] = {0: ()}
    if target == 0:
        return reached
    for i, x in enumerate(residues):
        fresh = []
        for s, wit in reached.items():
            t = (s + x) % p
            if t not in reached:
                fresh.append((t, wit + (i,)))
        for t, wit in fresh:
            if t not in reached:
                reached[t] = wit
        if target is not None and target in reached:
            break
    return reached


def subset_sum_mod_p(
    residues: Sequence[int], target: int, p: int
) -> Optional[SubsetWitness]:
    """First-found subset of the residues summing to target mod p.

    Returns None when the target is unreachable (possible only with fewer
    than p-1 residues). The empty witness answers target 0.
    """
    _check_prime(p)
    return _solve(_reduced_residues(residues, p), int(target) % p, p)


def _solve(rs: Sequence[int], target: int, p: int) -> Optional[SubsetWitness]:
    """subset_sum_mod_p for p prime, residues in [1, p) and target in [0, p)."""
    reached = _grow_achievable(rs, p, target)
    if target not in reached:
        if len(rs) >= p - 1:
            raise AssertionError(
                f"coverage guarantee violated for p={p}, t={len(rs)}"
            )
        return None
    return SubsetWitness(indices=reached[target], achieved=target)


def achievable_set(residues: Sequence[int], p: int) -> set[int]:
    """All residues reachable as subset sums (no early stop)."""
    _check_prime(p)
    rs = _reduced_residues(residues, p)
    return set(_grow_achievable(rs, p, None))


def coverage_count(residues: Sequence[int], p: int) -> int:
    """Size of the achievable-sum set; always >= min(p, t+1)."""
    n = len(achievable_set(residues, p))
    if n < min(p, len(residues) + 1):
        raise AssertionError(f"coverage below min(p, t+1) for p={p}")
    return n


def factored_divisor(d: int, template: FactoredInt) -> FactoredInt:
    """Factor d > 0 along the primes of the template it divides."""
    if d < 1:
        raise ParameterError(f"divisor must be positive, got {d}")
    rem = d
    factors = []
    for q, e in template.factors:
        f = 0
        while f < e and rem % q == 0:
            rem //= q
            f += 1
        if f:
            factors.append((q, f))
    if rem != 1:
        raise DivisibilityError(
            f"{d} does not divide the modulus {template.value}",
            failing_parameter="N",
        )
    return FactoredInt.from_factors(factors)


def eliminate_prime(
    c_over_d: Fraction,
    N: FactoredInt,
    S: Sequence[int],
    p: int,
    l: int,
    mode: str = STRICT,
) -> Tuple[list[int], Fraction]:
    """Cancel the factor p^l from the denominator of c/d.

    Requires p^l exactly dividing N, d | N, and every n in S dividing N
    with exact p-multiplicity l. Returns (T, c'/d') with T subset of S,
    |T| < p, c'/d' = c/d + sum(1/n for n in T) and d' | N/p.

    Strict mode enforces |S| >= p - 1 (which guarantees success);
    opportunistic mode attempts whatever S holds and raises
    EliminationFailed when the required residue is unreachable.

    Elements are offered to the solver in descending order, so witnesses
    prefer large n (small added reciprocals); results are deterministic.

    The subset sum is posed over the residues of N/n mod p. For n exactly
    divisible by p^l, N/n = (N/p^l) / (n/p^l) with both factors prime to
    p, so each residue is (N/p^l mod p) * inv(n/p^l mod p), a small-integer
    computation. Any common multiple M of d and S carrying exactly p^l
    gives residues that differ from these by the unit N/M, so the witness
    does not depend on the choice of common multiple.
    """
    _check_prime(p)
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    if mode not in (STRICT, OPPORTUNISTIC):
        raise ParameterError(f"unknown mode {mode!r}")
    if N.multiplicity(p) != l:
        raise ParameterError(
            f"p^l = {p}^{l} must exactly divide N (multiplicity "
            f"{N.multiplicity(p)})"
        )
    c, d = c_over_d.numerator, c_over_d.denominator
    nval = N.value
    if nval % d != 0:
        raise DivisibilityError(f"denominator {d} does not divide N")
    elements = sorted({int(n) for n in S}, reverse=True)
    if len(elements) != len(S):
        raise ParameterError("S must not contain duplicates")
    if mode == STRICT and len(elements) < p - 1:
        raise ParameterError(
            f"strict mode needs |S| >= p-1 = {p - 1}, got {len(elements)}",
            failing_parameter="S",
            suggestion="use opportunistic mode or enlarge the slice",
        )

    # (n, p-multiplicity of n, n / p^multiplicity) per element
    split = []
    for n in elements:
        if n < 1:
            raise ParameterError(f"elements of S must be positive, got {n}")
        if nval % n != 0:
            raise DivisibilityError(f"element {n} does not divide N")
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        split.append((n, e, m))
    d_cof, d_mult = d, 0
    while d_cof % p == 0:
        d_cof //= p
        d_mult += 1
    if max([d_mult] + [e for _, e, _ in split]) != l:
        raise ParameterError(
            f"every element of S must be exactly divisible by {p}^{l}"
        )
    for n, e, _ in split:
        if e != l:
            raise ParameterError(
                f"element {n} has p-multiplicity {e}, expected exactly {l}"
            )

    if d_mult < l:
        return [], c_over_d  # N/d is a multiple of p: nothing to cancel
    unit = nval // p**l % p
    target = -c * unit * pow(d_cof % p, -1, p) % p
    if target == 0:
        return [], c_over_d
    residues = [unit * pow(m % p, -1, p) % p for _, _, m in split]
    witness = _solve(residues, target, p)
    if witness is None:
        raise EliminationFailed(
            f"no subset of {len(elements)} multiples reaches the residue "
            f"needed to cancel {p}^{l}",
            prime=p,
            power=l,
            failing_parameter="S",
            suggestion="enlarge S (lower lambda'), or switch x",
        )
    T = [elements[i] for i in witness.indices]
    if len(T) >= p:
        raise AssertionError("witness cardinality >= p")
    result = Fraction(c * (nval // d) + sum(nval // n for n in T), nval)
    if (nval // p) % result.denominator != 0:
        raise AssertionError("postcondition d' | N/p violated")
    return sorted(T), result
