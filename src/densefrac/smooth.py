"""Sieved censuses of constrained smooth-number families.

A family A(x, y; w, lambda) holds the integers lambda*x < n <= x that are
y-smooth, k-free, and squarefree with respect to primes exceeding w
(d^2 | n implies P(d) <= w). A0 is the odd members excluding the values
m^2 + m - 1. Slices group members by their largest prime factor and its
exact multiplicity; they are the ammunition for denominator-prime
elimination.

One vectorized sieve over [1, x], walking only the primes <= y (members
are y-smooth), produces the membership mask and, exact for every y-smooth
n, P(n) and its multiplicity. That one sieve serves every family a
construction draws on: sub-families (higher cutoff, smaller x or y) are
masked views of its arrays, not new sieves (SmoothFamily.sub_family).
Lambda thresholds are element boundaries (members strictly greater than
lambda*x), so a stored rational cutoff reproduces the family exactly.

A family's exact reciprocal mass over a common denominator m
(reciprocal_sum) is one long division of m by all members at once,
vectorized over 32-bit limbs of m; its final remainders double as the
proof that every member divides m.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .arith import FactoredInt, is_prime, primes_in
from .errors import DivisibilityError, InfeasibleMass, ParameterError

#: Resource guard: sieving above this bound is refused (memory budget).
MAX_SIEVE_X = 60_000_000

#: reciprocal_sum divides by elements below _ELEMENT_BOUND, _CHUNK of them
#: at a time: a chunk's column sum of quotient digits (each below 2^32)
#: stays far below 2^64, and its few uint64 arrays stay small.
_ELEMENT_BOUND = 2**32
_CHUNK = 1 << 13
_LIMB_SHIFT = np.uint64(32)


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
    """Materialized family: ascending arrays of the members and of A0.

    A family holds views of one sieve's per-integer arrays (P(n) and its
    exact multiplicity, both exact for y-smooth n only, and the m^2+m-1
    flag) and its own membership mask; every read is masked by membership.
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
        self.members_a0 = np.flatnonzero(a0).astype(np.int64)
        self._slice_cache: dict = {}
        self._pow2_cache: dict = {}

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
        """Members exactly divisible by 2^l whose odd part is p_max-smooth.

        P(n) is 2 when the odd part is 1, so the bound is max(p_max, 2).
        """
        if l not in self._pow2_cache:
            m = self.members
            cand = m[m % 2 ** (l + 1) == 2**l]
            self._pow2_cache[l] = (cand, self._lpf[cand])
        cand, lpf = self._pow2_cache[l]
        return cand[lpf <= max(p_max, 2)]


def build_family(params: SmoothParams) -> SmoothFamily:
    """Sieve [1, x] over the primes <= y and materialize A(x, y; w, lambda).

    One ascending loop over the primes p <= y writes p at the multiples of
    p and, for each p^l <= x, writes l and multiplies the y-smooth part by
    p at the multiples of p^l. Larger primes overwrite smaller ones, so
    P(n) and its multiplicity are exact on y-smooth n, which are the n
    whose y-smooth part is n itself. See sub_family for the views.
    """
    x, y, w, k = params.x, params.y, params.w, params.k
    idx_t = np.int32 if x < 2**31 else np.int64
    primes = primes_in(2, y)
    small = primes[: bisect_right(primes, math.isqrt(x))]
    lpf = np.zeros(x + 1, dtype=idx_t)
    lpf[1] = 1
    expo = np.zeros(x + 1, dtype=np.int8)
    # divides n, so idx_t holds it
    smooth_part = np.ones(x + 1, dtype=idx_t)
    for p in primes:
        lpf[p::p] = p
        pl, l = p, 1
        while pl <= x:
            expo[pl::pl] = l
            smooth_part[pl::pl] *= p
            pl *= p
            l += 1

    member = smooth_part == np.arange(x + 1, dtype=idx_t)
    del smooth_part
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

    The sum is num/m with num = sum(m // n) over the fixed common
    denominator m, reduced once at the end. num comes from one schoolbook
    long division of m by every element at once: m is walked in 32-bit
    limbs, most significant first, over uint64 arrays of at most _CHUNK
    elements. At each limb a remainder r < n becomes r * 2^32 + limb, which
    stays below 2^64 because n < 2^32; its quotient digit is below 2^32,
    so a chunk's column of digits sums exactly in uint64, and num is the
    Horner sum of those columns. The final remainders are exactly m mod n,
    so a zero remainder proves that n divides m.

    Elements must lie below 2^32 (family members stay below MAX_SIEVE_X);
    a larger one raises ParameterError before any division. The first
    element, in input order, that is below 1 or does not divide m raises
    DivisibilityError.
    """
    m = modulus.value
    if not isinstance(elements, np.ndarray):
        # object dtype keeps every int exact: numpy turns a list holding
        # both -1 and 2**63 into float64
        elements = np.array([int(n) for n in elements], dtype=object)
    if elements.size == 0:
        return Fraction(0, m)
    if elements.max() >= _ELEMENT_BOUND:
        big = elements[np.argmax(elements >= _ELEMENT_BOUND)]
        raise ParameterError(
            f"element {int(big)} is not below 2**32, the limb division's range"
        )
    n_limbs = (m.bit_length() + 31) // 32
    limbs = np.frombuffer(m.to_bytes(4 * n_limbs, "big"), dtype=">u4")
    limbs = limbs.astype(np.uint64)
    columns = np.empty(n_limbs, dtype=np.uint64)
    num = 0
    for start in range(0, elements.size, _CHUNK):
        chunk = elements[start : start + _CHUNK]
        bad = chunk < 1
        n = np.where(bad, 1, chunk).astype(np.uint64)
        r = np.zeros_like(n)
        q = np.empty_like(n)
        for j, limb in enumerate(limbs):
            r <<= _LIMB_SHIFT
            r |= limb
            np.divmod(r, n, out=(q, r))
            columns[j] = q.sum()
        bad |= r != 0
        if bad.any():
            raise DivisibilityError(
                f"element {int(chunk[np.argmax(bad)])} does not divide the modulus",
                failing_parameter="modulus",
            )
        chunk_num = 0
        for column in columns.tolist():
            chunk_num = (chunk_num << 32) + column
        num += chunk_num
    return Fraction(num, m)


def choose_lambda(
    pool: Sequence[int],
    alpha: Fraction,
    x_prime: int,
    modulus: FactoredInt,
):
    """Pick the largest element-boundary cutoff leaving a small remainder.

    Walks the pool downward, keeping every element while the kept sum stays
    strictly below alpha. Returns (lambda', chosen ascending, remainder)
    with 0 < remainder <= 1/(lambda' * x'), the jump-size bound: the
    boundary sits on the first element not taken (or just below the last
    pool element when the whole pool is consumed). Every pool element must
    divide the modulus.

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
