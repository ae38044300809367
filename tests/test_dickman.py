import math

import mpmath
import pytest

from densefrac import dickman
from densefrac.errors import ParameterError


def quad_rho3() -> float:
    """Independent oracle: rho(3) = rho(2) - int_2^3 rho(t-1)/t dt with the
    closed form rho(u) = 1 - log(u) on [1, 2], by high-order quadrature."""
    with mpmath.workdps(30):
        val = (1 - mpmath.log(2)) - mpmath.quad(
            lambda t: (1 - mpmath.log(t - 1)) / t, [2, 3]
        )
        return float(val)


def test_rho_flat_segment():
    assert dickman.rho(0.5) == 1.0
    assert dickman.rho(1.0) == 1.0


def test_rho_at_two():
    assert abs(dickman.rho(2.0) - (1 - math.log(2))) < 1e-8
    assert abs(dickman.rho(2.0) - 0.30685281944) < 1e-8


def test_rho_log_segment():
    for i in range(21):
        u = 1.0 + i / 20.0
        assert abs(dickman.rho(u) - (1 - math.log(u))) < 1e-8


def test_rho_at_three_vs_quadrature():
    oracle = quad_rho3()
    assert abs(oracle - 0.0486083883) < 1e-9
    assert abs(dickman.rho(3.0) - oracle) < 1e-7
    assert abs(dickman.rho(3.0) - 0.0486083883) < 1e-7


def test_rho_monotone_positive_grid():
    prev = 1.0
    u = 0.25
    while u <= dickman.U_MAX:
        v = dickman.rho(u)
        assert 0 < v <= prev + 1e-15
        prev = v
        u += 0.25


def test_rho_domain_errors():
    with pytest.raises(ParameterError):
        dickman.rho(0.0)
    with pytest.raises(ParameterError):
        dickman.rho(21.0)


def test_c_of_r_closed_form():
    with mpmath.workdps(30):
        expected = float(
            (1 - mpmath.log(2)) * (1 - mpmath.e ** (-1 / (1 - mpmath.log(2))))
        )
    assert abs(dickman.c_of_r(1) - expected) < 1e-12
    assert abs(dickman.c_of_r(1) - 0.29506) < 5e-6
    # limit r -> infinity is 1 - log 2
    assert abs(dickman.c_of_r(500) - (1 - math.log(2))) < 1e-15
    with pytest.raises(ParameterError):
        dickman.c_of_r(0)


def test_density_upper_bound():
    assert abs(dickman.density_upper_bound(1) - 0.6321206) < 1e-7
    assert dickman.density_upper_bound(1e-9) < 1e-8


@pytest.mark.parametrize("i", range(1, 51))
def test_theorem_constant_relations(i):
    r = i / 10.0
    c = dickman.c_of_r(r)
    ub = dickman.density_upper_bound(r)
    assert c < ub
    assert c / ub > 1 - math.log(2)
