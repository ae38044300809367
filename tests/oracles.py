"""Brute-force oracles for the tests. They import nothing from densefrac,
so a fault in the library cannot hide in its own reference."""

from itertools import combinations


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
