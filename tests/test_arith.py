import math
import random
from fractions import Fraction

import pytest

from densefrac.arith import (
    FactoredInt,
    P_INFINITY,
    exact_multiplicity,
    factorize,
    is_k_free,
    largest_prime_factor,
    least_prime_factor,
    primes_in,
)
from densefrac.errors import ParameterError


def test_factorize_examples():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(1).value == 1
    # trial-division oracle for the primorial
    n = 9699690
    m, fs = n, []
    p = 2
    while m > 1:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        p += 1
    assert factorize(n).factors == tuple(fs) == tuple((q, 1) for q in [2, 3, 5, 7, 11, 13, 17, 19])


def test_factorize_roundtrip_random():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 100_000)
        f = factorize(n)
        assert f.value == n
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(f.factors[i][0] < f.factors[i + 1][0] for i in range(len(f.factors) - 1))


def test_prime_factor_conventions():
    assert largest_prime_factor(1) == 1
    assert least_prime_factor(1) == P_INFINITY
    assert largest_prime_factor(45) == 5
    assert least_prime_factor(45) == 3
    # the infinite marker compares above every prime
    assert least_prime_factor(1) > 10**18


def test_exact_multiplicity():
    assert exact_multiplicity(48, 2) == 4
    assert exact_multiplicity(45, 3) == 2
    assert exact_multiplicity(7, 5) == 0


def test_is_k_free():
    assert not is_k_free(12, 2)
    assert is_k_free(12, 3)
    assert not is_k_free(16, 3)
    assert is_k_free(1, 2)


def test_k_free_multiplicity_consistency():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 100_000)
        k = rng.randint(2, 5)
        by_mult = all(
            exact_multiplicity(n, p) < k for p, _ in factorize(n).factors
        )
        assert is_k_free(n, k) == by_mult


def test_primes_in():
    assert primes_in(8, 12) == [11]
    assert primes_in(2, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_in(14, 16) == []
    with pytest.raises(ParameterError):
        primes_in(5, 4)


def test_factored_int_invariants():
    f = FactoredInt.from_factors([(2, 3), (3, 2), (5, 1)])
    assert f.value == 360
    assert f.multiplicity(3) == 2 and f.multiplicity(7) == 0
    assert f.odd_part().value == 45
    assert f.largest_prime() == 5
    assert FactoredInt.one().largest_prime() == 1
    with pytest.raises(ParameterError):
        FactoredInt(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ParameterError):
        FactoredInt(10, ((2, 1),))  # product mismatch


def test_factored_int_lcm_and_division():
    a = factorize(360)
    b = factorize(2100)
    l = a.lcm(b)
    assert l.value == math.lcm(360, 2100)
    assert a.divides(l) and b.divides(l)
    assert l.div_prime(2, 1).value == l.value // 2
    with pytest.raises(ParameterError):
        factorize(9).div_prime(2, 1)


def test_fraction_field_properties():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert math.gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0
