"""Sieved censuses of constrained smooth-number families.

A family A(x, y; w, lambda) holds the integers lambda*x < n <= x that are
y-smooth, k-free, and squarefree with respect to primes exceeding w
(d^2 | n implies P(d) <= w). A0 is the odd members excluding the values
m^2 + m - 1. Slices group members by their largest prime factor and its
exact multiplicity; they are the ammunition for denominator-prime
elimination.

One vectorized sieve pass over [1, x] produces, for every n: P(n), the
exact multiplicity of P(n), the k-free flag and the w-condition flag.
That one sieve serves every family a construction draws on: sub-families
(higher cutoff, smaller x or y) are masked views of its arrays, not new
sieves (SmoothFamily.sub_family). Lambda thresholds are element boundaries
(members strictly greater than lambda*x), so a stored rational cutoff
reproduces the family exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .arith import FactoredInt, factorize, is_prime, primes_in
from .errors import DivisibilityError, InfeasibleMass, ParameterError

#: Resource guard: sieving above this bound is refused (memory budget).
MAX_SIEVE_X = 60_000_000


@dataclass(frozen=True)
class SmoothParams:
    """Parameters (x, y; w, lambda) plus the k-free exponent k."""

    x: int
    y: int
    w: int
    lam: Fraction
    k: int

    def __post_init__(self):
        if not (2 <= self.y <= self.x):
            raise ParameterError(f"need 2 <= y <= x, got y={self.y}, x={self.x}")
        if self.w < 2:
            raise ParameterError(f"need w >= 2, got {self.w}")
        if not (0 <= self.lam < 1):
            raise ParameterError(f"need 0 <= lambda < 1, got {self.lam}")
        if self.k < 2:
            raise ParameterError(f"need k >= 2, got {self.k}")
        if self.x > MAX_SIEVE_X:
            raise ParameterError(
                f"x={self.x} exceeds the sieve memory budget {MAX_SIEVE_X}"
            )
        object.__setattr__(self, "lam", Fraction(self.lam))

    @property
    def cutoff(self) -> int:
        """Largest integer <= lambda * x; members are strictly above it."""
        return (self.lam.numerator * self.x) // self.lam.denominator


class SmoothFamily:
    """Materialized family: ascending member array plus O(1) membership.

    A family holds views of one sieve's per-integer arrays (P(n), the exact
    multiplicity of P(n), the m^2+m-1 flag) and its own membership mask.
    All arrays are immutable after construction; reads are concurrent-safe.
    """

    def __init__(self, params: SmoothParams, lpf, expo, m2m1, member):
        self.params = params
        self._lpf = lpf
        self._expo = expo
        self._m2m1 = m2m1
        self._member = member
        self.members = np.flatnonzero(member).astype(np.int64)
        a0 = member.copy()
        a0[::2] = False
        a0[m2m1] = False
        self._a0_mask = a0
        self.members_a0_arr = np.flatnonzero(a0).astype(np.int64)
        self._slice_cache: dict = {}
        self._pow2_cache: dict = {}

    @property
    def count(self) -> int:
        """Census Psi(x, y; w, lambda)."""
        return int(self.members.size)

    @property
    def count_a0(self) -> int:
        """Census Psi0: odd members not of the form m^2 + m - 1."""
        return int(self.members_a0_arr.size)

    def __contains__(self, n: int) -> bool:
        return 0 < n <= self.params.x and bool(self._member[n])

    def in_a0(self, n: int) -> bool:
        return 0 < n <= self.params.x and bool(self._a0_mask[n])

    def members_a0(self) -> np.ndarray:
        return self.members_a0_arr

    def sub_family(self, params: SmoothParams) -> "SmoothFamily":
        """The family for params as a view of this family's sieve.

        Needs the same k, x' <= x, y' <= y, a cutoff at or above this one and
        min(w', y') == min(w, y'); anything else raises ParameterError.
        """
        base = self.params
        if (
            params.k != base.k
            or params.x > base.x
            or params.y > base.y
            or params.cutoff < base.cutoff
            or min(params.w, params.y) != min(base.w, params.y)
        ):
            raise ParameterError(f"{params} is not a sub-family of {base}")
        end = params.x + 1
        lpf = self._lpf[:end]
        member = self._member[:end] & (lpf <= params.y)
        member[: params.cutoff + 1] = False
        return SmoothFamily(params, lpf, self._expo[:end], self._m2m1[:end], member)

    def slice(self, p: int, l: int, a0: bool = False) -> np.ndarray:
        """Members with P(n) = p exactly divisible by p^l (ascending).

        Requires p prime and <= y, l < k, and l = 1 when p > w. With
        a0=True, restricted to the odd / not-m^2+m-1 sub-family.
        """
        key = (p, l, a0)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        params = self.params
        if p > params.y:
            raise ParameterError(f"slice prime {p} exceeds y={params.y}")
        if l < 1 or l >= params.k:
            raise ParameterError(f"slice power {l} outside 1..k-1 (k={params.k})")
        if p > params.w and l != 1:
            raise ParameterError(f"slice power must be 1 for p={p} > w={params.w}")
        if not is_prime(p):
            raise ParameterError(f"slice base {p} is not prime")
        pl = p**l
        cand = np.arange(pl, params.x + 1, pl, dtype=np.int64)
        mask = self._a0_mask if a0 else self._member
        sel = cand[mask[cand] & (self._lpf[cand] == p) & (self._expo[cand] == l)]
        self._slice_cache[key] = sel
        return sel

    def exact_power_of_two_members(self, l: int, p_max: int) -> np.ndarray:
        """Members exactly divisible by 2^l whose odd part is p_max-smooth."""
        if l not in self._pow2_cache:
            m = self.members
            cand = m[m % 2 ** (l + 1) == 2**l]
            self._pow2_cache[l] = (cand, self._lpf[cand])
        cand, lpf = self._pow2_cache[l]
        return cand[lpf <= p_max]


def build_family(params: SmoothParams) -> SmoothFamily:
    """Sieve [1, x] and materialize A(x, y; w, lambda); see sub_family."""
    x, y, w, k = params.x, params.y, params.w, params.k
    idx_t = np.int32 if x < 2**31 else np.int64
    primes = primes_in(2, x)
    small = primes[: bisect_right(primes, math.isqrt(x))]
    lpf = np.zeros(x + 1, dtype=idx_t)
    lpf[1] = 1
    for p in primes:
        lpf[p::p] = p

    expo = np.ones(x + 1, dtype=np.int8)
    expo[:2] = 0
    for p in small:
        pl, l = p * p, 2
        while pl <= x:
            mult = np.arange(pl, x + 1, pl, dtype=np.int64)
            hit = mult[lpf[mult] == p]
            expo[hit] = l
            pl *= p
            l += 1

    member = lpf <= y
    member[0] = False
    for p in small:
        member[p**k :: p**k] = False
    for q in small:
        if q > w:
            member[q * q :: q * q] = False

    m2m1 = np.zeros(x + 1, dtype=bool)
    m = 1
    while m * m + m - 1 <= x:
        m2m1[m * m + m - 1] = True
        m += 1

    member[: params.cutoff + 1] = False
    return SmoothFamily(params, lpf, expo, m2m1, member)


def reciprocal_sum(elements: Iterable[int], modulus: FactoredInt) -> Fraction:
    """Exact sum of 1/n over elements, all of which must divide modulus.

    Accumulates integer weights modulus/n over the fixed common denominator
    and reduces once at the end; pairwise reduction over ~10^6 terms would
    be quadratic in practice.
    """
    m = modulus.value
    num = 0
    for n in elements:
        n = int(n)
        if n < 1 or m % n != 0:
            raise DivisibilityError(
                f"element {n} does not divide the modulus",
                failing_parameter="modulus",
            )
        num += m // n
    return Fraction(num, m)


def pool_modulus(elements: Sequence[int]) -> FactoredInt:
    """lcm of the elements, via factored max-exponent merge."""
    acc = FactoredInt.one()
    for n in elements:
        acc = acc.lcm(factorize(int(n)))
    return acc


def choose_lambda(
    pool: Sequence[int],
    alpha: Fraction,
    x_prime: int,
    modulus: Optional[FactoredInt] = None,
):
    """Pick the largest element-boundary cutoff leaving a small remainder.

    Walks the pool downward, keeping every element while the kept sum stays
    strictly below alpha. Returns (lambda', chosen ascending, remainder)
    with 0 < remainder <= 1/(lambda' * x'), the jump-size bound: the
    boundary sits on the first element not taken (or just below the last
    pool element when the whole pool is consumed).

    Raises InfeasibleMass when even the whole pool leaves a remainder
    exceeding that bound.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    pool = sorted(int(n) for n in pool)
    if not pool:
        raise InfeasibleMass(
            "empty pool cannot approximate a positive value",
            failing_parameter="alpha",
            suggestion="enlarge x' or lower y'",
        )
    if modulus is None:
        modulus = pool_modulus(pool)
    m = modulus.value
    # Compare num/m against alpha without reducing: num*ad <=> an*m.
    an, ad = alpha.numerator, alpha.denominator
    an_m = an * m
    num = 0
    taken = 0
    for e in reversed(pool):
        step = m // e
        if m % e != 0:
            raise DivisibilityError(f"pool element {e} does not divide the modulus")
        if (num + step) * ad >= an_m:
            break
        num += step
        taken += 1
    if taken < len(pool):
        boundary = pool[-taken - 1]
    else:
        boundary = max(pool[0] - 1, 1)
    remainder = alpha - Fraction(num, m)
    if remainder * boundary > 1:  # remainder > 1/(lambda' x') = 1/boundary
        raise InfeasibleMass(
            f"pool mass falls short: remainder {remainder} exceeds jump bound "
            f"1/{boundary}",
            failing_parameter="alpha",
            suggestion="increase x', lower y', or shrink alpha",
        )
    lam = Fraction(boundary, x_prime)
    chosen = pool[len(pool) - taken :]
    return lam, chosen, remainder
