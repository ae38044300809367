"""The theorem's constants, built on Dickman's rho(2) = 1 - log 2 and held
in densefrac.verify: C(r) and the 1 - e^(-r) ceiling."""

import math

import mpmath
import pytest

from densefrac.verify import c_of_r_approx, ceiling_approx


def test_c_of_r_closed_form():
    with mpmath.workdps(30):
        expected = float(
            (1 - mpmath.log(2)) * (1 - mpmath.e ** (-1 / (1 - mpmath.log(2))))
        )
    assert abs(c_of_r_approx(1) - expected) < 1e-12
    assert abs(c_of_r_approx(1) - 0.29506) < 5e-6
    # limit r -> infinity is 1 - log 2
    assert abs(c_of_r_approx(500) - (1 - math.log(2))) < 1e-15


def test_density_upper_bound():
    assert abs(ceiling_approx(1) - 0.6321206) < 1e-7
    assert ceiling_approx(1e-9) < 1e-8


@pytest.mark.parametrize("i", range(1, 51))
def test_theorem_constant_relations(i):
    r = i / 10.0
    c = c_of_r_approx(r)
    ub = ceiling_approx(r)
    assert c < ub
    assert c / ub > 1 - math.log(2)
