import math
import random
from fractions import Fraction

import pytest

from densefrac.arith import (
    FactoredInt,
    exact_multiplicity,
    factorize,
    largest_prime_factor,
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
    assert largest_prime_factor(45) == 5


def test_exact_multiplicity():
    assert exact_multiplicity(48, 2) == 4
    assert exact_multiplicity(45, 3) == 2
    assert exact_multiplicity(7, 5) == 0


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
    with pytest.raises(ParameterError):
        FactoredInt(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ParameterError):
        FactoredInt(10, ((2, 1),))  # product mismatch


def test_factored_int_lcm_and_division():
    a = dict(factorize(360).factors)
    b = dict(factorize(2100).factors)
    l = factorize(math.lcm(360, 2100))
    assert dict(l.factors) == {p: max(a.get(p, 0), b.get(p, 0)) for p in a | b}
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
