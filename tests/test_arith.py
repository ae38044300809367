import math
import random
from fractions import Fraction

import pytest

from densefrac.arith import SMALL_PRIMES, exact_multiplicity, factorize
from densefrac.errors import ParameterError
from oracles import largest_prime_factor, primes_in


def test_factorize_examples():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()
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
    assert factorize(n) == tuple(fs) == tuple((q, 1) for q in [2, 3, 5, 7, 11, 13, 17, 19])



def test_factored_int_lcm_and_division():
    # moduli are plain ints: an lcm takes the larger exponent of each prime
    a, b = dict(factorize(360)), dict(factorize(2100))
    l = math.lcm(360, 2100)
    assert dict(factorize(l)) == {p: max(a.get(p, 0), b.get(p, 0)) for p in a | b}
    # dividing one prime out lowers its multiplicity by one and keeps the rest
    q, r = divmod(l, 2)
    assert r == 0
    assert exact_multiplicity(q, 2) == exact_multiplicity(l, 2) - 1
    assert {p: e for p, e in factorize(q) if p != 2} == {
        p: e for p, e in factorize(l) if p != 2
    }
    # a prime that does not divide leaves a remainder and has multiplicity 0
    assert divmod(9, 2)[1] != 0 and exact_multiplicity(9, 2) == 0
    with pytest.raises(ParameterError):
        exact_multiplicity(0, 2)

def test_factorize_roundtrip_random():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 100_000)
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert all(f[i][0] < f[i + 1][0] for i in range(len(f) - 1))


def test_prime_factor_conventions():
    # the oracle's P(n), which the tests use in place of a library function
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(45) == 5


def test_exact_multiplicity():
    assert exact_multiplicity(48, 2) == 4
    assert exact_multiplicity(45, 3) == 2
    assert exact_multiplicity(7, 5) == 0


def test_primes_in():
    # the oracle's sieve, which the tests use in place of a library function
    assert primes_in(8, 12) == [11]
    assert primes_in(2, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_in(14, 16) == []
    with pytest.raises(ValueError):
        primes_in(5, 4)


def test_small_primes_table():
    assert SMALL_PRIMES == tuple(primes_in(2, 63))


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
