import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from densefrac.smooth import SmoothParams, build_family  # noqa: E402


@pytest.fixture(scope="session")
def toy_family():
    """The squarefree 5-smooth family below 30: {1,2,3,5,6,10,15,30}."""
    return build_family(SmoothParams(x=30, y=5, w=30, lam=Fraction(0), k=2))


@pytest.fixture(scope="session")
def mid_family():
    """Pipeline-shaped family at x = 10^5 (y = 177, w = 31, k = 3)."""
    return build_family(SmoothParams(x=100_000, y=177, w=31, lam=Fraction(0), k=3))
