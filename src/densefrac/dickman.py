"""Dickman rho and the density constants of the theorem.

rho is the continuous solution of u*rho'(u) = -rho(u-1) with rho = 1 on
(0, 1]; equivalently rho(u) = rho(a) - integral_a^u rho(t-1)/t dt. It is
evaluated by marching that delay integral one unit interval at a time on a
fine grid (the lag-1 values are always fully available), with a Gregory
end-correction that makes the cumulative quadrature fourth order. The
closed form rho(u) = 1 - log(u) is used directly on [1, 2].

Nothing here feeds the construction: the planner's cutoff comes from delta
and the exact family mass alone. rho backs `densefrac rho`, and the
constants C(r) and 1 - e^(-r) are reported beside a certificate's exact
density.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError

LOG2 = math.log(2.0)
RHO2 = 1.0 - LOG2  # rho(2)


#: rho is tabulated on [0, U_MAX] at STEPS_PER_UNIT grid points per unit,
#: a power of two, so that unit intervals align exactly with the grid.
U_MAX = 20
STEPS_PER_UNIT = 2**14
GRID_STEP = 1.0 / STEPS_PER_UNIT


@functools.cache
def _grid() -> np.ndarray:
    """rho on [0, U_MAX] at GRID_STEP, marched once per process."""
    n = STEPS_PER_UNIT
    h = GRID_STEP
    u = np.arange(0, U_MAX * n + 1, dtype=np.float64) * h
    rho = np.empty_like(u)
    rho[: n + 1] = 1.0
    seg = slice(n, 2 * n + 1)
    rho[seg] = 1.0 - np.log(u[seg])
    for m in range(2, U_MAX):
        lo = m * n
        t = u[lo : lo + n + 1]
        f = rho[lo - n : lo + 1] / t
        cum = np.concatenate(([0.0], np.cumsum((f[:-1] + f[1:]) * (h / 2.0))))
        # Gregory end correction: -(h^2/12) * (f'(t_j) - f'(t_0)).
        fp = np.gradient(f, h)
        cum -= (h * h / 12.0) * (fp - fp[0])
        rho[lo : lo + n + 1] = rho[lo] - cum
    # True rho(u) underflows double precision near U_MAX; pin the grid to
    # the positive non-increasing invariant (absolute error stays ~1e-15).
    return np.maximum(np.minimum.accumulate(rho), 1e-300)


def rho(u: float) -> float:
    """rho(u) for 0 < u <= U_MAX; absolute error well below 1e-8."""
    if not (u > 0.0):
        raise ParameterError(f"rho domain is (0, u_max], got {u}")
    if u > U_MAX:
        raise ParameterError(f"rho({u}) beyond cached domain u_max={float(U_MAX)}")
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - math.log(u)
    grid = _grid()
    x = u / GRID_STEP
    i = min(int(x), len(grid) - 2)
    frac = x - i
    return float(grid[i] * (1.0 - frac) + grid[i + 1] * frac)


def c_of_r(r) -> float:
    """Density constant (1 - log 2) * (1 - exp(-r / (1 - log 2)))."""
    r = float(r)
    if r <= 0.0:
        raise ParameterError(f"c_of_r requires r > 0, got {r}")
    return RHO2 * (1.0 - math.exp(-r / RHO2))


def density_upper_bound(r) -> float:
    """Unconditional ceiling 1 - exp(-r) on the achievable proportion."""
    return 1.0 - math.exp(-float(r))
