"""Brute-force oracles for the tests. They import nothing from densefrac,
so a fault in the library cannot hide in its own reference."""

import json
import math
from fractions import Fraction
from itertools import accumulate, combinations


def subset_sums_mod_p(residues, p):
    """Every residue mod p that some subset of residues sums to, found by
    enumerating all 2^t subsets (the empty subset gives 0)."""
    return {
        sum(subset) % p
        for size in range(len(residues) + 1)
        for subset in combinations(residues, size)
    }


def factor_over(n, primes):
    """{q: e} with prod(q**e) == n over the given primes, by repeated
    division; ValueError when n has a prime factor outside them."""
    exps = {}
    for q in primes:
        while n % q == 0:
            n //= q
            exps[q] = exps.get(q, 0) + 1
    if n != 1:
        raise ValueError(f"cofactor {n} is not a product of {list(primes)}")
    return exps


def reciprocal_sum(S):
    """sum(1/n for n in S) as an exact Fraction, one term at a time."""
    return sum((Fraction(1, n) for n in S), Fraction(0))


def certificate_fields(r, S, x):
    """The exact fields of verify.check(r, S, x) for a positive rational r
    and x >= 1, from their definitions: the sum counts only when every
    element is positive, and the harmonic bound compares the |S| largest
    reciprocals 1/n, n <= x, with r."""
    S = list(S)
    size = len(S)
    positive = all(n >= 1 for n in S)
    return {
        "sum_exact": positive and reciprocal_sum(S) == r,
        "distinct": len(set(S)) == size,
        "max_ok": positive and all(n <= x for n in S),
        "density": Fraction(size, x),
        "harmonic_bound_ok": reciprocal_sum(range(max(x - size, 0) + 1, x + 1)) <= r,
        "size": size,
        "max_element": max(S, default=None),
    }


def document_facts(text):
    """The three exact claims of a certificate document, re-checked from its
    JSON text alone. Each part's denominators are the running sums of its
    first element and gaps; over all parts, sum_exact is that they are
    positive and their reciprocals sum to r (over their one lcm), distinct
    that none repeats, and max_ok that they are positive and at most x."""
    doc = json.loads(text)
    S = []
    for part in doc["parts"].values():
        if part["first"] is not None:
            S += accumulate([part["first"], *part["deltas"]])
    positive = all(n >= 1 for n in S)
    lcm = math.lcm(*S) if positive else 1
    total = Fraction(sum(lcm // n for n in S), lcm) if positive else None
    return {
        "sum_exact": total == Fraction(doc["r"]),
        "distinct": len(set(S)) == len(S),
        "max_ok": positive and max(S, default=0) <= doc["x"],
    }


def first_found_witness(residues, p, target):
    """The subset-sum solver's reference: a dict {sum mod p: witness},
    grown one residue at a time (index i extends every sum reached before
    it), never overwriting a witness and stopping once target is reached.
    Returns target's witness, a tuple of increasing indices, or None."""
    reached = {0: ()}
    for i, x in enumerate(residues):
        if target in reached:
            break
        fresh = [((s + x) % p, wit + (i,)) for s, wit in reached.items()]
        for t, wit in fresh:
            reached.setdefault(t, wit)
    return reached.get(target)
