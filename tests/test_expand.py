import math
import random
from fractions import Fraction

import pytest

from densefrac.errors import BoundExceeded, ParameterError
from densefrac.expand import breusch_bound, expand_odd
from oracles import reciprocal_sum


def test_expand_odd_examples():
    assert expand_odd(Fraction(2, 15)) == (9, 45)
    assert expand_odd(Fraction(2, 9)) == (5, 45)
    assert expand_odd(Fraction(1, 9)) == (9,)


def test_expand_odd_preconditions():
    with pytest.raises(ParameterError):
        expand_odd(Fraction(1, 3))  # 1/3 is not < 1/P(3)
    with pytest.raises(ParameterError):
        expand_odd(Fraction(4, 21))  # below 1/3, yet not < 1/P(21) = 1/7
    with pytest.raises(ParameterError):
        expand_odd(Fraction(1, 6))  # even denominator
    with pytest.raises(ParameterError):
        expand_odd(Fraction(-1, 9))
    with pytest.raises(ParameterError):
        # 1/201 < 1/P(201) = 1/67, but 67 lies above the expander's primes
        expand_odd(Fraction(1, 3 * 67))


def test_expand_odd_random_contract():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        d = 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2) * 7 ** rng.randint(0, 2)
        if d < 9:
            continue
        cmax = (d - 1) // 7
        if cmax < 1:
            continue
        c = rng.randint(1, cmax)
        v = Fraction(c, d)
        if v * 7 >= 1:
            continue
        e = expand_odd(v)
        assert reciprocal_sum(e) == v
        assert all(t % 2 == 1 for t in e)
        assert len(set(e)) == len(e)
        assert max(e) <= 5 * math.lcm(v.denominator, 9 * 5 * 7)
        checked += 1


def test_expand_odd_max_term():
    e = expand_odd(Fraction(2, 225), max_term=999)
    assert max(e) <= 999
    assert reciprocal_sum(e) == Fraction(2, 225)
    with pytest.raises(BoundExceeded):
        # any sum of distinct odd reciprocals below 1000 exceeds 1/11025
        expand_odd(Fraction(1, 11025), max_term=999)


def test_breusch_bound_values():
    assert breusch_bound(9) == 45
    assert breusch_bound(15) == 225
    assert breusch_bound(225) == 1125
    assert breusch_bound(11025) == 55125
