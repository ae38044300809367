"""Dense Egyptian fraction representations with machine-checkable certificates.

Given a positive rational r and a bound x, construct a set S of distinct
integers n <= x with sum(1/n for n in S) == r exactly, where S fills a
positive proportion of [1, x], and certify the result independently.
"""

from .construct import construct_dense
from .verify import check

__version__ = "0.1.0"

__all__ = ["check", "construct_dense"]
