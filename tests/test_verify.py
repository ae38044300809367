import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from densefrac.smooth import pool_modulus, reciprocal_sum
from densefrac.verify import (
    Certificate,
    check,
    harmonic_segment_exact,
    harmonic_segment_le,
    tree_sum,
)


def test_check_examples():
    cert = check(1, [2, 3, 6], 6)
    assert cert.sum_exact and cert.distinct and cert.max_ok
    assert cert.density == Fraction(1, 2)
    assert cert.density < Fraction(632121, 1000000)
    cert = check(1, [2, 3], 6)
    assert not cert.sum_exact
    cert = check(1, [2, 2, 3, 6], 6)
    assert not cert.distinct


def test_check_total_on_malformed():
    cert = check(1, [0, -3, 2], 6)
    assert isinstance(cert, Certificate)
    assert not cert.sum_exact and not cert.max_ok
    cert = check("not-a-number", [2, 3, 6], 6)
    assert not cert.sum_exact
    cert = check(1, [], 6)
    assert cert.sum_exact is False or cert.size == 0


def test_harmonic_bound_field():
    # representation denser than the harmonic minimum must fail the bound
    cert = check(Fraction(1, 2), list(range(2, 10)), 10)
    assert not cert.harmonic_bound_ok
    cert = check(Fraction(1, 2), [2], 10)
    assert cert.harmonic_bound_ok


def test_max_ok():
    cert = check(1, [2, 3, 7], 6)
    assert not cert.max_ok


def test_tree_sum_small():
    assert tree_sum([2, 3, 6]) == 1
    assert tree_sum([]) == 0
    assert tree_sum([7]) == Fraction(1, 7)


# Small values collide often (duplicates); large ones reach 10^12.
_denominators = st.one_of(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=10**12),
)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(_denominators, max_size=40),
    lo=st.integers(min_value=0, max_value=200),
    length=st.integers(min_value=0, max_value=60),
)
def test_tree_sum_matches_fraction_sum(xs, lo, length):
    """Empty lists, singletons, duplicates and odd lengths all included."""
    assert tree_sum(xs) == sum((Fraction(1, n) for n in xs), Fraction(0))
    assert harmonic_segment_exact(lo, lo + length) == sum(
        (Fraction(1, n) for n in range(lo + 1, lo + length + 1)), Fraction(0)
    )


def test_tree_sum_vs_fixed_denominator(mid_family):
    rng = random.Random(12)
    members = [int(v) for v in mid_family.members]
    for _ in range(10):
        sample = sorted(rng.sample(members, 300))
        modulus = pool_modulus(sample)
        assert tree_sum(sample) == reciprocal_sum(sample, modulus)


def test_harmonic_segment_exact_matches_direct():
    got = harmonic_segment_exact(10, 60)
    want = sum(Fraction(1, n) for n in range(11, 61))
    assert got == want


def test_harmonic_segment_le_sound():
    rng = random.Random(31)
    for _ in range(30):
        lo = rng.randint(0, 3000)
        hi = lo + rng.randint(1, 4000)
        exact = sum(Fraction(1, n) for n in range(lo + 1, hi + 1))
        for bound in (
            exact,
            exact + Fraction(1, 10**9),
            exact - Fraction(1, 10**9),
            exact * 2,
            exact / 2,
        ):
            assert harmonic_segment_le(lo, hi, bound) == (exact <= bound)


def test_harmonic_segment_le_large_refines():
    # value around log(10^6 / (10^6 - 10^5)) with a comfortable margin
    assert harmonic_segment_le(900_000, 1_000_000, Fraction(1, 2))
    assert not harmonic_segment_le(900_000, 1_000_000, Fraction(1, 10))
