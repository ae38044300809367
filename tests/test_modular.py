import itertools
import random
from fractions import Fraction

import pytest

from densefrac.arith import FactoredInt, factorize
from densefrac.errors import DivisibilityError, EliminationFailed, ParameterError
from densefrac.modular import (
    OPPORTUNISTIC,
    STRICT,
    achievable_set,
    coverage_count,
    eliminate_prime,
    factored_divisor,
    subset_sum_mod_p,
)


def brute_achievable(residues, p):
    out = set()
    for mask in range(1 << len(residues)):
        out.add(sum(r for i, r in enumerate(residues) if mask >> i & 1) % p)
    return out


def test_witness_examples():
    w = subset_sum_mod_p([1, 1, 1, 1], 3, 5)
    assert w.indices == (0, 1, 2) and w.achieved == 3
    w = subset_sum_mod_p([2, 3], 5, 7)
    assert w.indices == (0, 1)
    assert subset_sum_mod_p([1, 1], 4, 5) is None
    assert achievable_set([1, 1], 5) == {0, 1, 2}
    w = subset_sum_mod_p([4, 2, 6], 0, 7)
    assert w.indices == ()


def test_witness_sums_to_target():
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        t = rng.randint(0, 5)
        residues = [rng.randint(1, p - 1) for _ in range(t)]
        target = rng.randint(0, p - 1)
        w = subset_sum_mod_p(residues, target, p)
        if w is None:
            assert target not in brute_achievable(residues, p)
        else:
            assert sum(residues[i] for i in w.indices) % p == target % p
            assert len(set(w.indices)) == len(w.indices)


def test_coverage_examples():
    assert coverage_count([1, 1, 1, 1], 5) == 5
    assert coverage_count([3, 3], 7) == 3
    assert coverage_count([], 5) == 1


def test_oracle_equivalence_small():
    """Incremental solver equals 2^t enumeration; size >= min(p, t+1)."""
    for p in (2, 3, 5, 7):
        for t in range(0, 5):
            for residues in itertools.combinations_with_replacement(range(1, p), t):
                got = achievable_set(list(residues), p)
                want = brute_achievable(list(residues), p)
                assert got == want
                assert len(got) >= min(p, t + 1)


def test_guarantee_with_p_minus_1():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13])
        residues = [rng.randint(1, p - 1) for _ in range(p - 1)]
        for target in range(p):
            assert subset_sum_mod_p(residues, target, p) is not None


def test_determinism():
    residues = [3, 5, 2, 6, 1]
    a = subset_sum_mod_p(residues, 4, 7)
    b = subset_sum_mod_p(list(residues), 4, 7)
    assert a == b


def test_residue_zero_rejected():
    with pytest.raises(ParameterError):
        subset_sum_mod_p([5], 1, 5)


def test_eliminate_examples():
    T, res = eliminate_prime(Fraction(1, 3), factorize(12), [3, 6, 12], 3, 1)
    assert T == [6] and res == Fraction(1, 2)
    assert (12 // 3) % res.denominator == 0
    T, res = eliminate_prime(Fraction(1, 4), factorize(12), [3, 6], 3, 1)
    assert T == [] and res == Fraction(1, 4)
    T, res = eliminate_prime(Fraction(1, 5), factorize(60), [5, 10, 15, 20], 5, 1)
    assert T == [20] and res == Fraction(1, 4)
    assert (60 // 5) % res.denominator == 0


def test_eliminate_preconditions():
    with pytest.raises(ParameterError):
        eliminate_prime(Fraction(1, 3), factorize(12), [3, 6], 3, 2)  # 3^2 not || 12
    with pytest.raises(DivisibilityError):
        eliminate_prime(Fraction(1, 7), factorize(12), [3, 6], 3, 1)  # 7 does not divide 12
    with pytest.raises(ParameterError):
        # strict mode needs |S| >= p - 1
        eliminate_prime(Fraction(1, 5), factorize(60), [5], 5, 1, STRICT)
    with pytest.raises(ParameterError):
        # element with wrong multiplicity
        eliminate_prime(Fraction(1, 5), factorize(300), [25, 10], 5, 2)
    with pytest.raises(ParameterError, match="every element of S"):
        # empty S, and d = 4 lacks the 3^1 that exactly divides N = 12
        eliminate_prime(Fraction(1, 4), factorize(12), [], 3, 1, OPPORTUNISTIC)


def test_eliminate_unreachable():
    # two equal residues cannot reach every target mod 7
    N = factorize(7 * 16)
    got = achievable_set([(N.value // 7) % 7, (N.value // 14) % 7], 7)
    assert len(got) < 7
    with pytest.raises(EliminationFailed):
        # craft a c/d whose target falls outside the reachable set
        for c in range(1, 7):
            eliminate_prime(Fraction(c, 7), N, [7, 14], 7, 1, OPPORTUNISTIC)


def _random_valid_instance(rng):
    p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    l = rng.randint(1, 2)
    others = rng.sample([2, 3, 5, 7, 11, 13], k=4)
    others = [q for q in others if q != p][:3]
    exps = {q: rng.randint(2, 4) for q in others}
    n_f = FactoredInt.from_factors(
        sorted([(p, l)] + [(q, e) for q, e in exps.items()])
    )
    # S: distinct divisors of N / p^l times p^l
    divisors = [1]
    for q, e in exps.items():
        divisors = [d * q**j for d in divisors for j in range(e + 1)]
    rng.shuffle(divisors)
    want = min(len(divisors), p - 1 + rng.randint(0, 3))
    S = [p**l * d for d in divisors[:want]]
    # c/d with d a divisor of N
    d = rng.choice(divisors) * p ** rng.randint(0, l)
    c = rng.randint(1, 50)
    while c % p == 0 and d % p == 0:
        c += 1
    return Fraction(c, d), n_f, S, p, l


def _eliminate_via_lcm(c_over_d, N, S, p, l):
    """Reference elimination: residues of M/n mod p, where M is the lcm of d
    and S built from the factorizations of every element."""
    c, d = c_over_d.numerator, c_over_d.denominator
    elements = sorted(S, reverse=True)
    M = factored_divisor(d, N)
    for n in elements:
        M = M.lcm(factorize(n))
    assert M.multiplicity(p) == l
    m0 = M.value // d
    target = (-c * m0) % p
    if target == 0:
        return [], c_over_d
    residues = [(M.value // n) % p for n in elements]
    witness = subset_sum_mod_p(residues, target, p)
    T = [elements[i] for i in witness.indices]
    num = c * m0 + sum(M.value // n for n in T)
    return sorted(T), Fraction(num, M.value)


def test_eliminate_randomized_properties():
    rng = random.Random(101)
    done = 0
    for _ in range(300):
        c_over_d, N, S, p, l = _random_valid_instance(rng)
        if len(S) < p - 1:
            continue
        T, res = eliminate_prime(c_over_d, N, S, p, l, STRICT)
        assert len(T) < p
        assert (N.value // p) % res.denominator == 0
        assert res == c_over_d + sum(Fraction(1, n) for n in T)
        # residues taken from N, not from the lcm, pick the same witness
        assert (T, res) == _eliminate_via_lcm(c_over_d, N, S, p, l)
        done += 1
    assert done > 100
