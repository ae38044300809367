"""Independent certification of claimed Egyptian-fraction representations.

The verifier is deliberately decoupled from the constructor: reciprocal
sums are re-computed by a balanced tree that adds reduced (numerator,
denominator) integer pairs (the pipeline accumulates over a fixed common
denominator and reduces once), and the harmonic-minimality inequality
H(x) - H(x - |S|) <= r is decided through exact rational interval
enclosures, refined until the comparison is sound.

check() is total: malformed input turns into failed certificate fields,
never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from . import dickman

#: Segment length below which harmonic sums are evaluated exactly.
_EXACT_HARMONIC = 10_000


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable audit of a representation r = sum 1/n, n in S."""

    sum_exact: bool
    distinct: bool
    max_ok: bool
    density: Fraction
    harmonic_bound_ok: bool
    c_of_r_minus_eta: float
    upper_bound_1_minus_e_to_minus_r: float
    size: int
    max_element: Optional[int]

    @property
    def all_ok(self) -> bool:
        return self.sum_exact and self.distinct and self.max_ok and (
            self.harmonic_bound_ok
        )


def tree_sum(elements: Sequence[int]) -> Fraction:
    """Balanced pairwise sum of 1/n; independent of the fixed-denominator path.

    Tree nodes are reduced (numerator, denominator) integer pairs, added
    with two gcds per node (Knuth, TAOCP 4.5.1); the only Fraction is the
    root.
    """
    dens = [int(n) for n in elements]
    if not dens:
        return Fraction(0)
    nums = [1] * len(dens)
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


def check(r, S: Iterable[int], x: int, eta: float = 0.0) -> Certificate:
    """Certify sum exactness, distinctness, bounds and density of S.

    Failures are certificate fields, not exceptions; any iterable of
    integers (even a multiset) is accepted.
    """
    try:
        r = Fraction(r)
    except (ValueError, TypeError, ZeroDivisionError):
        r = None
    items = [int(n) for n in S]
    size = len(items)
    distinct = len(set(items)) == size
    positive = all(n >= 1 for n in items)
    max_element = max(items) if items else None
    max_ok = positive and (max_element is None or max_element <= x)
    if r is None or not positive:
        sum_exact = False
    else:
        sum_exact = tree_sum(items) == r
    density = Fraction(size, x) if x > 0 else Fraction(0)
    if r is None or r <= 0:
        harmonic_ok = False
        c_minus_eta = float("nan")
        upper = float("nan")
    else:
        lo = max(x - size, 0)
        harmonic_ok = harmonic_segment_le(lo, x, r) if x > 0 else False
        c_minus_eta = dickman.c_of_r(r) - eta
        upper = dickman.density_upper_bound(r)
    return Certificate(
        sum_exact=sum_exact,
        distinct=distinct,
        max_ok=max_ok,
        density=density,
        harmonic_bound_ok=harmonic_ok,
        c_of_r_minus_eta=c_minus_eta,
        upper_bound_1_minus_e_to_minus_r=upper,
        size=size,
        max_element=max_element,
    )
