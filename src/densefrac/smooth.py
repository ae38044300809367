"""Sieved censuses of constrained smooth-number families.

A family A(x, y; w, lambda) holds the integers lambda*x < n <= x that are
y-smooth, k-free, and squarefree with respect to primes exceeding w
(d^2 | n implies P(d) <= w). A0 is the odd members excluding the values
m^2 + m - 1. Slices group members by their largest prime factor and its
exact multiplicity; they are the ammunition for denominator-prime
elimination. A census counts every slice over a range of n, off the same
table, without building one.

One vectorized sieve over [1, x], walking only the primes <= y, finds the
y-smooth n and, exact for each, P(n) and its multiplicity; a second pass
over the primes up to sqrt(x) adds the largest exponent of any prime in n
and the largest q with q^2 | n. Only these rows are kept, with the primes
<= y the sieve found on its way, and the k- and w-conditions are not
applied: that one sieve serves every family of any y' <= y, w and k a run
draws on. Families are views of its rows, not new sieves
(SmoothFamily.sub_family): each (y', min(w, y'), k) picks its members
table once, and higher cutoffs and smaller x are ranges of it; a
construction reads every prime <= y' off its prime list. Every array a
family holds is read-only (flags.writeable is False), and its prime list
is a tuple, so views and constructions that share one sieve cannot write
into each other's rows. Lambda thresholds are element boundaries (members
strictly greater than lambda*x), so a stored rational cutoff reproduces
the family exactly.

reciprocal_sum divides one big int m by many elements at once, vectorized
over limbs of m; its quotient sums give exact reciprocal masses over the
common denominator m, in all or per group of elements. mass_prefix walks
such group sums, whole groups first, for the longest run of leading
elements whose mass stays below a limit: both cutoffs, the planner's
lambda*x and stage two's lambda'*x' (choose_lambda), are that one walk.
limb_remainders is the same long division without quotients, for
elimination, which needs only the proof that an element divides m, a zero
remainder. reciprocal_sum, choose_lambda and modular.eliminate_prime take
their elements through _as_int64, which refuses a non-integral value and
a value outside int64. Moduli are plain ints throughout.
"""

from __future__ import annotations

import copy
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DivisibilityError,
    InfeasibleMass,
    ParameterError,
    SieveBoundExceeded,
)

#: Resource guard: sieving above this bound is refused (memory budget).
MAX_SIEVE_X = 60_000_000

#: reciprocal_sum divides by _CHUNK elements at a time, so its few uint64
#: arrays stay small.
_CHUNK = 1 << 13
_BLOCK = 1 << 16  # build_family reads the sieve this many integers at a time
#: The cutoff walks sum the mass per this many elements, so a walk does at
#: most this many big-int divisions.
_MASS_GROUP = 1 << 8
#: The sieve's integers and row numbers are kept in int32 (both are at most
#: x <= MAX_SIEVE_X < 2^31), half the memory of intp; a slice widens its few
#: rows back to intp, which numpy gathers with about twice as fast.
_ROW = np.int32


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
            raise SieveBoundExceeded(
                f"x={self.x} exceeds the sieve memory budget {MAX_SIEVE_X}",
                failing_parameter="x",
                suggestion=f"use x <= {MAX_SIEVE_X}",
            )
        object.__setattr__(self, "lam", Fraction(self.lam))

    @property
    def cutoff(self) -> int:
        """Largest integer <= lambda * x; members are strictly above it."""
        return (self.lam.numerator * self.x) // self.lam.denominator


class SmoothFamily:
    """Materialized family: ascending arrays of the members and of A0.

    A family is a view of one sieve's table, whose rows are every y-smooth
    n in (cutoff, x] of the sieve, ascending, with the columns (n, P(n),
    its multiplicity, the largest exponent of any prime in n, the largest
    prime q with q^2 | n or 0). The family's conditions P(n) <= y', largest
    exponent < k and q <= w pick the rows of a members table (n, P(n),
    multiplicity, A0 flag), made once per sieve for each (y', min(w, y'),
    k) with the rows' order by (P(n), multiplicity, n) and its
    powers-of-two rows, and shared by every view with those conditions
    (sub_family). A family reads its members table at the rows
    cutoff' < n <= x'; a slice is a range of the order. Every array the
    family holds is made read-only here, the table's columns included, so
    a write to one raises ValueError. primes holds the sieve's primes
    <= y' ascending, as a tuple.
    """

    def __init__(self, params: SmoothParams, table, primes):
        self.params = params
        self.table = tuple(map(_read_only, table))
        self._primes = tuple(primes)
        self._members_tables: dict = {}
        self._cut()

    def _cut(self):
        params = self.params
        self.primes = self._primes[: bisect_right(self._primes, params.y)]
        self._columns, self._order, self._keys, self._pow2_rows = self._members_table()
        n = self._columns[0]
        bounds = n.searchsorted((params.cutoff, params.x), side="right")
        self._bounds = lo, hi = _read_only(bounds.astype(_ROW))
        self.members = n[lo:hi]

    @property
    def members_a0(self) -> np.ndarray:
        """The A0 members, ascending; made on each access."""
        n, _, _, a0 = self._columns
        lo, hi = self._bounds
        return _read_only(n[lo:hi][a0[lo:hi]])

    def _members_table(self):
        """((n, P(n), multiplicity, A0 flag), the rows in order of the key
        P(n)*k + multiplicity, the keys in that order, {l: powers-of-two
        rows}) over the sieve's rows that meet this family's conditions;
        made once per (y, min(w, y), k)."""
        y, w, k = self.params.y, self.params.w, self.params.k
        conditions = (y, min(w, y), k)  # on y-smooth n, q <= P(n) <= y
        if conditions not in self._members_tables:
            n, lpf, expo, top, square = self.table
            admitted = (lpf <= y) & (top < k) & (square <= w)
            n = n[admitted].astype(np.int64)
            lpf, expo = lpf[admitted], expo[admitted]
            # A0: odd, and none of the m^2 + m - 1 up to the largest n
            a0 = (n & 1).astype(bool)
            m = np.arange(1, math.isqrt(int(n.max(initial=0))) + 2)
            special = m * m + m - 1
            at = n.searchsorted(special)
            inside = at < n.size
            at = at[inside]
            a0[at[n[at] == special[inside]]] = False
            keys = lpf.astype(np.min_scalar_type((y + 1) * k)) * k + expo
            order = _read_only(np.argsort(keys, kind="stable").astype(_ROW))
            columns = tuple(map(_read_only, (n, lpf, expo, a0)))
            sorted_keys = _read_only(keys[order])
            self._members_tables[conditions] = columns, order, sorted_keys, {}
        return self._members_tables[conditions]

    def sub_family(self, params: SmoothParams) -> "SmoothFamily":
        """The family for params as another view of this family's sieve.

        Any k and w: the table holds the facts both conditions read. Needs
        x' <= x, y' <= y and a cutoff at or above this one; anything else
        raises ParameterError.
        """
        base = self.params
        if (
            params.x > base.x
            or params.y > base.y
            or params.cutoff < base.cutoff
        ):
            raise ParameterError(f"{params} is not a sub-family of {base}")
        view = copy.copy(self)
        view.params = params
        view._cut()
        return view

    def slice(self, p: int, l: int, a0: bool = False) -> np.ndarray:
        """Members with P(n) = p exactly divisible by p^l (ascending).

        Requires p prime and <= y, l < k, and l = 1 when p > w. With
        a0=True, restricted to the odd / not-m^2+m-1 sub-family.
        """
        params = self.params
        if p > params.y:
            raise ParameterError(f"slice prime {p} exceeds y={params.y}")
        if l < 1 or l >= params.k:
            raise ParameterError(f"slice power {l} outside 1..k-1 (k={params.k})")
        if p > params.w and l != 1:
            raise ParameterError(f"slice power must be 1 for p={p} > w={params.w}")
        if self.primes[bisect_right(self.primes, p) - 1] != p:
            raise ParameterError(f"slice base {p} is not prime")
        key = np.array((p * params.k + l, p * params.k + l + 1), self._keys.dtype)
        lo, hi = self._keys.searchsorted(key).tolist()
        rows = self._order[lo:hi]  # ascending: the sort is stable
        lo, hi = rows.searchsorted(self._bounds).tolist()
        rows = rows[lo:hi].astype(np.intp)
        n, _, _, flag = self._columns
        return n[rows[flag[rows]]] if a0 else n[rows]

    def exact_power_of_two_members(self, l: int, p_max: int) -> np.ndarray:
        """Members exactly divisible by 2^l whose odd part is p_max-smooth.

        P(n) is 2 when the odd part is 1, so the bound is max(p_max, 2).
        """
        n, lpf, _, _ = self._columns
        rows = self._power_of_two_rows(l)
        lo, hi = rows.searchsorted(self._bounds).tolist()
        rows = rows[lo:hi].astype(np.intp)
        return n[rows[lpf[rows] <= max(p_max, 2)]]

    def _power_of_two_rows(self, l: int) -> np.ndarray:
        """Members-table rows of the n exactly divisible by 2^l (made once
        per members table)."""
        if l not in self._pow2_rows:
            n = self._columns[0]
            rows = np.flatnonzero(n % 2 ** (l + 1) == 2**l)
            self._pow2_rows[l] = _read_only(rows.astype(_ROW))
        return self._pow2_rows[l]

    def census(self, lo: int, hi: int, a0: bool = False):
        """Slice and powers-of-two stock sizes over the members lo < n <= hi.

        Returns (slices, pow2): slices[p, l] members of slice(p, l, a0), for
        p <= y and 1 <= l < k (1 itself counts at [1, 0]); pow2[l, p]
        members of exact_power_of_two_members(l, p) (none when a0), for
        1 <= l < k and 2 <= p <= y. The range is one run of members-table
        rows, so the keys P(n)*k + multiplicity are counted a _BLOCK of rows
        at a time in their own dtype; no array spans the range.
        """
        k, y = self.params.k, self.params.y
        n, lpf, expo, flag = self._columns
        lo = max(lo, self.params.cutoff)
        bounds = (lo, max(lo, min(hi, self.params.x)))
        lo, hi = n.searchsorted(bounds, side="right").tolist()
        slices = np.zeros((y + 1) * k, dtype=np.int64)
        for start in range(lo, hi, _BLOCK):
            run = slice(start, min(start + _BLOCK, hi))
            keys = lpf[run].astype(self._keys.dtype)
            keys *= k
            keys += expo[run]
            if a0:
                keys = keys[flag[run]]
            slices += np.bincount(keys, minlength=slices.size)[: slices.size]
        pow2 = np.zeros((k, y + 1), dtype=np.int64)
        for l in range(1, 1 if a0 else k):  # A0 is odd
            rows = self._power_of_two_rows(l)
            rows = rows[rows.searchsorted(lo) : rows.searchsorted(hi)]
            pow2[l] = np.bincount(lpf[rows], minlength=y + 1)[: y + 1].cumsum()
        return slices.reshape(y + 1, k), pow2


def build_family(params: SmoothParams) -> SmoothFamily:
    """Sieve [1, x] over the primes <= y and materialize A(x, y; w, lambda).

    One ascending loop over 2..y takes each p that no smaller prime has
    written as prime (the family's primes), writes p at the multiples of
    p and, for each p^l <= x, writes l and multiplies the y-smooth part by
    p at the multiples of p^l. Larger primes overwrite smaller ones, so
    P(n) and its multiplicity are exact on y-smooth n, which are the n
    whose y-smooth part is n itself. Only their rows are kept, above the
    cutoff; once those arrays are freed, a second loop over the primes up
    to sqrt(x) writes each row's largest exponent and largest q with
    q^2 | n, so the table serves every k and w (sub_family).
    """
    x, y = params.x, params.y
    primes = []
    lpf = np.zeros(x + 1, dtype=np.min_scalar_type(y))
    lpf[1] = 1
    expo = np.zeros(x + 1, dtype=np.uint8)
    smooth_part = np.ones(x + 1, dtype=_ROW)  # divides n <= x < 2^31
    for p in range(2, y + 1):
        if lpf[p]:  # a smaller prime divides p
            continue
        primes.append(p)
        lpf[p::p] = p
        pl, l = p, 1
        while pl <= x:
            expo[pl::pl] = l
            smooth_part[pl::pl] *= p
            pl *= p
            l += 1

    rows = []
    for lo in range(params.cutoff + 1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK, x + 1)
        own = smooth_part[lo:hi] == np.arange(lo, hi, dtype=_ROW)
        rows.append(np.flatnonzero(own) + lo)
    del smooth_part
    n = np.concatenate(rows).astype(_ROW)
    lpf, expo = lpf[n], expo[n]  # the dense sieve arrays are freed here
    top = np.ones(x + 1, dtype=np.uint8)
    top[:2] = 0
    square = np.zeros(x + 1, dtype=np.min_scalar_type(math.isqrt(x)))
    for p in primes[: bisect_right(primes, math.isqrt(x))]:
        square[p * p :: p * p] = p
        pl, l = p * p, 2
        while pl <= x:
            np.maximum(top[pl::pl], l, out=top[pl::pl])
            pl *= p
            l += 1
    top, square = top[n], square[n]  # and the last dense arrays here
    return SmoothFamily(params, (n, lpf, expo, top, square), primes)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_int64(values) -> np.ndarray:
    """values as an int64 array: an int64 array as it is, any other
    iterable of ints converted. A value that is not an integer (has no
    __index__, as 2.5) or lies outside int64 raises ParameterError."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    vals = []
    for v in values:
        try:
            vals.append(operator.index(v))
        except TypeError:
            raise ParameterError(f"element {v} is not an integer") from None
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        big = next(v for v in vals if not -(2**63) <= v < 2**63)
        raise ParameterError(f"element {big} does not fit in int64") from None


def limb_remainders(m: int, elements: np.ndarray) -> np.ndarray:
    """Every m mod n (uint64) for the elements n in [1, 2^63); m >= 0.

    reciprocal_sum's long division without its quotients: the head of m,
    below 2^64, is reduced in one step (the remainder starts at 0), then
    s-bit limbs with every n < 2^(64 - s) follow. An m below 2^64 costs one
    np.remainder.
    """
    n = elements.astype(np.uint64)
    s = 64 - int(n.max(initial=1)).bit_length()
    tail = -(-max(m.bit_length() - 64, 0) // s) * s
    r = np.remainder(np.uint64(m >> tail), n)
    for j in reversed(range(0, tail, s)):
        r <<= s
        r |= m >> j & ((1 << s) - 1)
        r %= n
    return r


def reciprocal_sum(elements: Iterable[int], m: int, group: Optional[int] = None):
    """Exact sum of 1/n over elements, all of which must divide the int m.

    The sum is num/m with num = sum(m // n) over the fixed common
    denominator m, reduced once at the end. Elements are any iterable of
    ints or an int64 array; a value outside int64 raises ParameterError
    before any division. The first element, in input order, that is below
    1 or does not divide m raises DivisibilityError. With group=g, for
    1 <= g <= _CHUNK, returns instead the tuple of the sums of m // n over
    each run of g consecutive elements in input order (the last run may be
    shorter), with the same proof: the mass in pieces a walk can take whole.

    A schoolbook long division of m by _CHUNK elements at a time (a whole
    number of groups), so memory stays bounded by the chunk: s-bit limbs of
    m, most significant first, with every n of the chunk below 2^(64 - s).
    A remainder r < n becomes r * 2^s + limb < 2^64, and the quotient
    digits, each below 2^s <= 2^50, sum exactly in uint64 over a group of at
    most 2^13; each digit column is summed per group (np.add.reduceat) and
    added into the groups' sums as it comes.
    """
    size = _CHUNK if group is None else group
    if not 1 <= size <= _CHUNK:
        raise ParameterError(f"group must lie in [1, {_CHUNK}], got {group}")
    elements = _as_int64(elements)
    sums = []
    step = _CHUNK - _CHUNK % size
    for start in range(0, elements.size, step):
        chunk = elements[start : start + step]
        bad = chunk < 1
        n = np.where(bad, 1, chunk).astype(np.uint64)
        s = min(64 - int(n.max()).bit_length(), 50)
        r = np.zeros_like(n)
        q = np.empty_like(n)
        heads = np.arange(0, n.size, size)
        group_sums = np.zeros(heads.size, dtype=object)  # Python ints
        for j in reversed(range(0, m.bit_length(), s)):
            r <<= s
            r |= m >> j & ((1 << s) - 1)
            np.divmod(r, n, out=(q, r))
            group_sums = (group_sums << s) + np.add.reduceat(q, heads).astype(object)
        bad |= r != 0
        if bad.any():
            raise DivisibilityError(
                f"element {chunk[np.argmax(bad)]} does not divide the modulus",
                failing_parameter="modulus",
            )
        sums += group_sums.tolist()
    return Fraction(sum(sums), m) if group is None else tuple(sums)


def mass_prefix(elements: np.ndarray, m: int, sums, group: int, limit: int):
    """(t, s): the longest run of leading elements whose sum s of m // n
    stays below the int limit, and its length t.

    sums are the sums of m // n per group of that many elements, as
    reciprocal_sum(elements, m, group) returns them. Whole groups are taken
    while their sum stays below limit, then the elements of the next group
    one at a time. Every m // n is positive (each n divides m), so a group
    is taken whole exactly when the element-by-element walk takes all of
    it, and the walk does at most group divisions.
    """
    taken = total = 0
    for group_sum in sums:
        if total + group_sum >= limit:
            break
        total += group_sum
        taken = min(taken + group, elements.size)
    for e in elements[taken : taken + group].tolist():
        step = m // e
        if total + step >= limit:
            break
        total += step
        taken += 1
    return taken, total


def choose_lambda(pool: Iterable[int], alpha: Fraction, m: int):
    """Pick the largest element-boundary cutoff leaving a small remainder.

    Walks the pool downward (mass_prefix over its group sums), keeping
    every element while the kept sum stays strictly below alpha. Returns
    (boundary, chosen ascending, remainder) with 0 < remainder <=
    1/boundary, the jump-size bound: the boundary sits on the first element
    not taken (or just below the last pool element when the whole pool is
    consumed); lambda' is boundary / x'.
    The pool is any iterable of ints or an int64 array. A value outside
    int64, or a pool element below 1, raises ParameterError; every pool
    element must divide the int modulus m (the group sums' reciprocal_sum
    checks them all), and the largest that does not raises
    DivisibilityError.

    Raises InfeasibleMass when even the whole pool leaves a remainder
    exceeding that bound.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    pool = np.sort(_as_int64(pool))
    if not pool.size:
        raise InfeasibleMass(
            "empty pool cannot approximate a positive value",
            failing_parameter="alpha",
            suggestion="enlarge x' or lower y'",
        )
    if pool[0] < 1:
        raise ParameterError(f"pool elements must be positive, got {pool[0]}")
    descending = pool[::-1]
    sums = reciprocal_sum(descending, m, _MASS_GROUP)
    # num / m < alpha  <=>  num < ceil(alpha * m), for an int num
    limit = -(-alpha.numerator * m // alpha.denominator)
    taken, num = mass_prefix(descending, m, sums, _MASS_GROUP, limit)
    if taken < pool.size:
        boundary = int(pool[-taken - 1])
    else:
        boundary = max(int(pool[0]) - 1, 1)
    remainder = alpha - Fraction(num, m)
    if remainder * boundary > 1:
        raise InfeasibleMass(
            f"pool mass falls short: remainder {remainder} exceeds jump bound "
            f"1/{boundary}",
            failing_parameter="alpha",
            suggestion="increase x', lower y', or shrink alpha",
        )
    chosen = pool[pool.size - taken :].tolist()
    return boundary, chosen, remainder
