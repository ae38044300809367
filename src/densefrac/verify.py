"""Independent certification of claimed Egyptian-fraction representations.

The verifier is deliberately decoupled from the constructor: it imports
nothing from the construction and shares no modulus with it. It holds the
denominators as one sorted numpy array: int64 when every value fits, and
object (exact Python ints) otherwise. Reciprocal sums are re-computed from
fixed chunks of the denominators, each summed over its own lcm, whose
(numerator, denominator) pairs are added by a balanced tree of reduced
integer pairs (the pipeline instead accumulates over one fixed common
denominator and reduces once); the array becomes Python ints one block at
a time. The harmonic-minimality inequality H(x) - H(x - |S|) <= r is
decided through exact rational interval enclosures, refined until the
comparison is sound.

check() is total: malformed input turns into failed certificate fields,
never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

import numpy as np

from . import dickman

#: Segment length below which harmonic sums are evaluated exactly.
_EXACT_HARMONIC = 10_000

#: Denominators per tree_sum leaf. At x = 10^6 every size from 16 to 256
#: beat one leaf per denominator, and 16-32 were fastest.
_LEAF = 32

#: Denominators per tree_sum block: an array becomes Python ints one block
#: at a time, so no Python-int copy of the whole input exists.
_BLOCK = 128 * _LEAF


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable audit of a representation r = sum 1/n, n in S."""

    sum_exact: bool
    distinct: bool
    max_ok: bool
    density: Fraction
    harmonic_bound_ok: bool
    c_of_r: float
    upper_bound_1_minus_e_to_minus_r: float
    size: int
    max_element: Optional[int]

    @property
    def all_ok(self) -> bool:
        return self.sum_exact and self.distinct and self.max_ok and (
            self.harmonic_bound_ok
        )


def tree_sum(elements) -> Fraction:
    """Exact sum of 1/n; independent of the fixed-denominator path.

    elements is a numpy integer array (int64, or object holding Python
    ints), a list or a range of nonzero integers, in any order, repeats
    allowed. It is read in blocks of _BLOCK; an array block becomes Python
    ints through .tolist(). Each leaf sums a chunk of _LEAF denominators
    over the chunk's own lcm L, as sum(L // n) / L, reduced. The leaves are
    then added by a balanced tree of reduced (numerator, denominator)
    integer pairs, with two gcds per node (Knuth, TAOCP 4.5.1); the only
    Fraction is the root.
    """
    nums, dens = [], []
    for start in range(0, len(elements), _BLOCK):
        block = elements[start : start + _BLOCK]
        if isinstance(block, np.ndarray):
            block = block.tolist()
        for i in range(0, len(block), _LEAF):
            chunk = block[i : i + _LEAF]
            den = lcm(*chunk)
            num = sum(map(den.__floordiv__, chunk))
            g = gcd(num, den)
            nums.append(num // g)
            dens.append(den // g)
    if not dens:
        return Fraction(0)
    while len(dens) > 1:
        nxt_n, nxt_d = [], []
        for a, b, c, d in zip(nums[0::2], dens[0::2], nums[1::2], dens[1::2]):
            g = gcd(b, d)
            if g == 1:
                nxt_n.append(a * d + b * c)
                nxt_d.append(b * d)
            else:
                b //= g
                t = a * (d // g) + c * b
                g2 = gcd(t, g)
                nxt_n.append(t // g2)
                nxt_d.append(b * (d // g2))
        if len(dens) % 2:
            nxt_n.append(nums[-1])
            nxt_d.append(dens[-1])
        nums, dens = nxt_n, nxt_d
    return Fraction(nums[0], dens[0])


def harmonic_segment_exact(lo: int, hi: int) -> Fraction:
    """Exact sum of 1/n over lo < n <= hi (small segments only)."""
    return tree_sum(range(lo + 1, hi + 1))


def _segment_bounds(lo: int, hi: int) -> tuple[Fraction, Fraction]:
    cnt = hi - lo
    return Fraction(cnt, hi), Fraction(cnt, lo if lo > 0 else 1)


def harmonic_segment_le(lo: int, hi: int, bound: Fraction) -> bool:
    """Soundly decide sum_{lo < n <= hi} 1/n <= bound.

    Dyadic interval refinement with exact rational endpoint bounds; falls
    back to exact evaluation of still-ambiguous chunks.
    """
    if hi <= lo:
        return 0 <= bound
    resolved = Fraction(0)
    chunks = [(lo, hi)]
    while True:
        low = resolved
        high = resolved
        for a, b in chunks:
            l, h = _segment_bounds(a, b)
            low += l
            high += h
        if high <= bound:
            return True
        if low > bound:
            return False
        nxt = []
        for a, b in chunks:
            if b - a <= _EXACT_HARMONIC:
                resolved += harmonic_segment_exact(a, b)
            else:
                mid = (a + b) // 2
                nxt.extend([(a, mid), (mid, b)])
        if not nxt:
            return resolved <= bound
        chunks = nxt


def int_array(values: Iterable[int]) -> np.ndarray:
    """values as a 1-D numpy array: int64 when every value fits, object
    (exact Python ints) otherwise. An int64 array is returned as it is."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    vals = [int(n) for n in values]
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


def check(r, S: Iterable[int], x: int) -> Certificate:
    """Certify sum exactness, distinctness, bounds and density of S.

    Alongside, it reports the theorem's density constant C(r) and the
    1 - e^(-r) ceiling (both NaN when r is not positive), for comparison
    with the density. Failures are certificate fields, not exceptions; any
    iterable of integers (even a multiset) is accepted. S becomes one
    numpy array (int_array), sorted only when it is not already
    non-decreasing; both dtypes run the same operations. Distinctness is
    read from adjacent pairs, positivity from the smallest element and the
    max bound from the largest. A sorted int64 array is read in place, so
    check holds no Python-int copy of it.
    """
    try:
        r = Fraction(r)
    except (ValueError, TypeError, ZeroDivisionError):
        r = None
    a = int_array(S)
    size = len(a)
    if not (a[1:] >= a[:-1]).all():
        a = np.sort(a)
    distinct = bool((a[1:] != a[:-1]).all())
    positive = not size or bool(a[0] >= 1)
    max_element = int(a[-1]) if size else None
    max_ok = positive and (max_element is None or max_element <= x)
    if r is None or not positive:
        sum_exact = False
    else:
        sum_exact = tree_sum(a) == r
    density = Fraction(size, x) if x > 0 else Fraction(0)
    if r is None or r <= 0:
        harmonic_ok = False
        c_of_r = float("nan")
        upper = float("nan")
    else:
        lo = max(x - size, 0)
        harmonic_ok = harmonic_segment_le(lo, x, r) if x > 0 else False
        c_of_r = dickman.c_of_r(r)
        upper = dickman.density_upper_bound(r)
    return Certificate(
        sum_exact=sum_exact,
        distinct=distinct,
        max_ok=max_ok,
        density=density,
        harmonic_bound_ok=harmonic_ok,
        c_of_r=c_of_r,
        upper_bound_1_minus_e_to_minus_r=upper,
        size=size,
        max_element=max_element,
    )
