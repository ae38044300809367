"""Independent certification of claimed Egyptian-fraction representations.

The verifier is deliberately decoupled from the constructor: it imports
nothing from the construction and shares no modulus with it. It holds the
denominators as one sorted numpy array: int64 when every value fits, and
object (exact Python ints) otherwise. Reciprocal sums are re-computed by
the verifier's own kernel over a common denominator it derives from its
input alone. It is divided by a whole block at once, in limbs as wide as
the block's largest element allows; when a division leaves a remainder,
the denominator grows, over the largest late cofactors first, until it is
the lcm of what it has read. Every counted quotient comes from a division
whose remainder is zero, the proof that the element divides the
denominator. What would take the denominator past a bit cap is summed
over chunk-lcm leaves, and the (numerator, denominator) pairs are added by
a balanced tree of reduced integer pairs. The harmonic-minimality
inequality H(x) - H(x - |S|) <= r is decided through exact rational
interval enclosures, refined until the comparison is sound.

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

#: Denominators per chunk-lcm leaf. At x = 10^6 every size from 16 to 256
#: beat one leaf per denominator, and 16-32 were fastest.
_LEAF = 32

#: Denominators per tree_sum block: an array is read one block at a time,
#: so no Python-int copy of the whole input exists.
_BLOCK = 128 * _LEAF

#: Bit length past which a run's common denominator is not grown. The lcm
#: of a whole representation is about 762 bits at x = 10^6 and 2096 bits at
#: 10^7. At r = 1, x = 10^7 (2-vCPU Xeon VM) tree_sum took 1.56 s with a
#: 2048-bit cap, mostly in chunk-lcm leaves, and 0.45 s with 4096 and 8192
#: bits alike; the lower cap bounds the limbs per division.
_RUN_BITS = 4096

#: Denominators a run takes are below 2^32, so that _divide's limbs are at
#: least 32 bits wide.
_RUN_BOUND = 2**32

#: Widest limb _divide cuts: _BLOCK = 2^12 quotient digits below 2^52 sum
#: below 2^64.
_WIDTH = 52


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


def _limbs(m: int, width: int) -> list:
    """m's width-bit limbs, most significant first."""
    mask = (1 << width) - 1
    return [m >> j & mask for j in reversed(range(0, m.bit_length(), width))]


def _divide(cut: tuple, n: np.ndarray) -> tuple[int, np.ndarray]:
    """(sum of m // n, m mod n) for every n of a uint64 array, with m given
    by its cut (width, limbs): a schoolbook long division of m by the whole
    array at once, one width-bit limb at a time, most significant first.
    Every n is below 2^(64 - width), so a remainder shifted one limb up with
    the next limb below it stays under n * 2^width <= 2^64, and its quotient
    digit is below 2^width. With width <= _WIDTH, a digit column of up to
    _BLOCK elements sums exactly in uint64; the columns are added into the
    total as they come."""
    width, limbs = cut
    rem = np.zeros_like(n)
    digit = np.empty_like(n)
    total = 0
    for limb in limbs:
        rem <<= width
        rem |= limb
        np.divmod(rem, n, out=(digit, rem))
        total = (total << width) + int(digit.sum())
    return total, rem


def _join(run: tuple, n: np.ndarray) -> Optional[tuple]:
    """The run (m, num, cut), whose reciprocal sum so far is num / m and
    whose cut holds m's limbs (_divide), with every 1/n of the uint64 array
    n added; None when that would take m past _RUN_BITS.

    The limbs are as wide as the largest n allows, up to _WIDTH. An element
    joins only through a division that leaves remainder 0, the proof that
    it divides m. The elements that leave a remainder are late: m grows in
    passes, each to m' = m * lcm of the largest late cofactors
    n / gcd(m mod n, n), 4 * _LEAF of them on the first pass and twice as
    many on each later one, which is lcm(m, those n). The numerator so far,
    with the quotients of the elements that divided m but without those of
    the late ones, is scaled by m' / m, and m' is divided by the late
    elements alone; the ones it leaves a remainder for are late on the next
    pass. The largest elements of a block carry nearly all of its prime
    powers, so one or two passes usually empty the late set, and the pass
    that takes all of them (at most the sixth) always does. Every m' divides
    lcm(m, n), the final one equals it, and the run is refused exactly when
    that lcm would take m past _RUN_BITS.
    """
    m, num, cut = run
    width = min(64 - int(n.max(initial=1)).bit_length(), _WIDTH)
    if cut[0] != width:
        cut = width, _limbs(m, width)
    total, rem = _divide(cut, n)
    late = rem != 0
    budget = _RUN_BITS - m.bit_length()
    grown, top = 1, 4 * _LEAF
    while late.any():
        n, rem = n[late], rem[late]
        cofactors = n // np.gcd(rem, n)
        if cofactors.size > top:
            cofactors = np.partition(cofactors, -top)[-top:]
        cofactors = cofactors.tolist()
        scale = 1
        for i in range(0, len(cofactors), _LEAF):
            scale = lcm(scale, *cofactors[i : i + _LEAF])
            if (grown * scale).bit_length() > budget:
                return None
        stale, _ = _divide(cut, n)
        grown *= scale
        m *= scale
        cut = width, _limbs(m, width)
        num = (num + total - stale) * scale
        total, rem = _divide(cut, n)
        late = rem != 0
        top *= 2
    return m, num + total, cut


def tree_sum(elements) -> Fraction:
    """Exact sum of 1/n, over the verifier's own common denominators.

    elements is a numpy integer array (int64, or object holding Python
    ints), a list or a range of nonzero integers, in any order, repeats
    allowed; a list becomes an array through int_array. It is read in
    blocks of _BLOCK. The elements of an int64 block that lie in [1, 2^32)
    join a run (_join): a common denominator m, derived from the block
    contents alone, that each block is divided by at once (_divide) and
    that grows only when a remainder shows that an element does not divide
    it. The first block that would take m past _RUN_BITS, and every block
    after it, is summed by chunk-lcm leaves instead, and the run ends as one
    (num, m) pair; no lcm attempt that failed is repeated on later blocks.
    The leaves also take a range, an object array and the other elements
    of an int64 block: a chunk of _LEAF denominators is summed over its own
    lcm L as sum(L // n) / L. The reduced pairs of the run and leaves are
    added by a balanced tree of (numerator, denominator) integer pairs,
    with two gcds per node (Knuth, TAOCP 4.5.1); the only Fraction is the
    root.
    """
    nums, dens = [], []

    def add_pair(num: int, den: int) -> None:
        g = gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)

    def add_leaves(block) -> None:
        for i in range(0, len(block), _LEAF):
            chunk = block[i : i + _LEAF]
            den = lcm(*chunk)
            add_pair(sum(map(den.__floordiv__, chunk)), den)

    if not isinstance(elements, (range, np.ndarray)):
        elements = int_array(elements)
    run = (1, 0, (_WIDTH, [1]))  # (m, num, cut of m): nothing joined yet
    runs = isinstance(elements, np.ndarray) and elements.dtype == np.int64
    for start in range(0, len(elements), _BLOCK):
        block = elements[start : start + _BLOCK]
        if runs:
            small = (block >= 1) & (block < _RUN_BOUND)
            if not small.all():
                add_leaves(block[~small].tolist())
                block = block[small]
            block = block.astype(np.uint64)
            joined = _join(run, block)
            if joined is not None:
                run = joined
                continue
            # m would pass the cap; in sorted input, it would on every
            # later block too.
            runs = False
        if isinstance(block, np.ndarray):
            block = block.tolist()
        add_leaves(block)
    m, num, _ = run
    if num:  # every joined 1/n adds m // n >= 1
        add_pair(num, m)
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
