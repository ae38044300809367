"""Dense Egyptian fraction representations with machine-checkable certificates.

Given a positive rational r and a bound x, construct a set S of distinct
integers n <= x with sum(1/n for n in S) == r exactly, where S fills a
positive proportion of [1, x], and certify the result independently.
"""

from fractions import Fraction

from .arith import (
    FactoredInt,
    P_INFINITY,
    exact_multiplicity,
    factorize,
    is_k_free,
    largest_prime_factor,
    least_prime_factor,
    primes_in,
)
from .construct import construct_dense, plan_parameters
from .verify import check

__version__ = "0.1.0"

__all__ = [
    "FactoredInt",
    "Fraction",
    "P_INFINITY",
    "check",
    "construct_dense",
    "exact_multiplicity",
    "factorize",
    "is_k_free",
    "largest_prime_factor",
    "least_prime_factor",
    "plan_parameters",
    "primes_in",
]
