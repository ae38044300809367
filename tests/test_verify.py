import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densefrac.verify as verify
from densefrac.construct import construct_dense
from densefrac.smooth import reciprocal_sum
from densefrac.verify import (
    _BLOCK,
    _LEAF,
    _RUN_BITS,
    Certificate,
    c_of_r_approx,
    ceiling_approx,
    check,
    harmonic_segment_exact,
    harmonic_segment_le,
    tree_sum,
)
from oracles import certificate_fields, primes_in, reciprocal_sum as oracle_sum


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
    for r in (0, -1):
        cert = check(r, [2, 3, 6], 6)
        assert math.isnan(cert.c_of_r)
        assert math.isnan(cert.upper_bound_1_minus_e_to_minus_r)


def test_check_fields_on_edge_inputs():
    c1 = c_of_r_approx(1)
    up = ceiling_approx(1)

    def cert(sum_exact, distinct, max_ok, size, max_element):
        return Certificate(
            sum_exact=sum_exact,
            distinct=distinct,
            max_ok=max_ok,
            density=Fraction(size, 6),
            harmonic_bound_ok=True,
            c_of_r=c1,
            upper_bound_1_minus_e_to_minus_r=up,
            size=size,
            max_element=max_element,
        )

    assert check(1, [], 6) == cert(False, True, True, 0, None)
    assert check(1, iter([3, 3, 3]), 6) == cert(True, False, True, 3, 3)
    assert check(1, [2, 0, -4], 6) == cert(False, True, False, 3, 2)
    assert check(1, [-2, -3], 6) == cert(False, True, False, 2, -2)


def oracle_certificate(r, S, x):
    return Certificate(
        **certificate_fields(r, S, x),
        c_of_r=c_of_r_approx(r),
        upper_bound_1_minus_e_to_minus_r=ceiling_approx(r),
    )


def test_check_non_adjacent_duplicate_in_unsorted_input():
    S = [6, 2, 3, 2]
    cert = check(Fraction(3, 2), S, 6)
    assert cert == oracle_certificate(Fraction(3, 2), S, 6)
    assert cert.sum_exact and not cert.distinct


def test_check_generator_input():
    S = [6, 2, 3]
    cert = check(1, (n for n in S), 6)
    assert cert == oracle_certificate(1, S, 6)
    assert cert.all_ok


def test_check_zero_and_negatives_fail_without_raising():
    S = [3, 0, -2, 6, -7, 0]
    cert = check(1, S, 6)
    assert cert == oracle_certificate(1, S, 6)
    assert not cert.sum_exact and not cert.max_ok and not cert.distinct
    assert cert.max_element == 6


@settings(max_examples=200, deadline=None)
@given(
    S=st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=12),
            st.integers(min_value=2**63, max_value=2**64),
        ),
        max_size=12,
    ),
    r=st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=60),
    x=st.integers(min_value=1, max_value=40),
)
def test_check_matches_oracle_certificate(S, r, x):
    """Multisets, any order, 0, negatives and values beyond int64."""
    assert check(r, S, x) == oracle_certificate(r, S, x)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-3, 40), st.integers(2**40, 2**63 - 1)), max_size=16
    ),
    r=st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=60),
    x=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_check_array_matches_shuffled_list(values, r, x, data):
    """An int64 array, sorted or not, gets the same Certificate as the same
    values as a shuffled Python list with repeats, and both the oracle's."""
    S = values + data.draw(st.lists(st.sampled_from(values), max_size=4)) if values else []
    shuffled = data.draw(st.permutations(S))
    want = oracle_certificate(r, S, x)
    assert check(r, np.array(sorted(S), dtype=np.int64), x) == want
    assert check(r, np.array(S, dtype=np.int64), x) == want
    assert check(r, shuffled, x) == want


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


# Leaf-boundary lengths of tree_sum's chunks.
_LEAF_LENGTHS = [0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1]
_LARGE_PRIMES = [999_983, 10**9 + 7, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1]
_leaf_values = st.one_of(
    st.integers(min_value=1, max_value=12),  # repeats
    st.integers(min_value=-12, max_value=-1),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=2**63, max_value=2**80),
    st.sampled_from(_LARGE_PRIMES),
)


@settings(max_examples=200, deadline=None)
@given(length=st.sampled_from(_LEAF_LENGTHS), data=st.data())
def test_tree_sum_matches_oracle_across_leaves(length, data):
    xs = data.draw(st.lists(_leaf_values, min_size=length, max_size=length))
    assert tree_sum(xs) == oracle_sum(xs)


@settings(max_examples=50, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=10**6),
    length=st.sampled_from(_LEAF_LENGTHS),
)
def test_tree_sum_matches_oracle_on_ranges(lo, length):
    segment = range(lo + 1, lo + length + 1)
    assert tree_sum(segment) == oracle_sum(segment)


@pytest.mark.parametrize("length", [_BLOCK + 1, 2 * _BLOCK + _LEAF + 1, 3 * _BLOCK - 1])
def test_tree_sum_over_blocks(length):
    """Arrays spanning several blocks, of odd length, with repeats, in int64
    and object dtype."""
    xs = np.random.default_rng(length).integers(1, 200, size=length)
    xs[::97] = 999_983
    want = oracle_sum(xs.tolist())
    assert tree_sum(xs) == want
    assert tree_sum(xs.astype(object)) == want


def _record_joins(monkeypatch):
    """Every run tree_sum's _join returns, in call order: None where the
    block would take the run past _RUN_BITS."""
    joins = []
    join = verify._join

    def recording(run, n):
        joins.append(join(run, n))
        return joins[-1]

    monkeypatch.setattr(verify, "_join", recording)
    return joins


# Values whose lcm, 720720, every block of them divides.
_SMALL = np.arange(1, 17, dtype=np.int64)


def _blocks_of_small_values(count):
    return np.tile(_SMALL, count * _BLOCK // _SMALL.size)


def test_tree_sum_grows_the_run_for_a_late_prime(monkeypatch):
    """Only the third block holds an element that does not divide the first
    block's lcm: m grows mid-array, and the numerator of the first two
    blocks is rescaled to the new m."""
    xs = _blocks_of_small_values(3)
    xs[2 * _BLOCK + 5] = 999_983
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    assert [m for m, _, _ in joins] == [720720, 720720, 720720 * 999_983]


def test_tree_sum_leaves_after_the_run_passes_the_cap(monkeypatch):
    """Distinct primes near 2^20, about 2/3 of _RUN_BITS in bits per block,
    shuffled over three blocks (the last one partial): the second block
    would take the run past the cap, so it and the third block are summed
    by chunk-lcm leaves, with no second lcm attempt."""
    primes = np.array(primes_in(2**20, 2**21), dtype=np.int64)
    per_block = _RUN_BITS // 21 * 2 // 3
    xs = _blocks_of_small_values(3)[: 3 * _BLOCK - 100]
    for i in range(3):
        xs[i * _BLOCK : i * _BLOCK + per_block] = primes[i * per_block : (i + 1) * per_block]
    xs = np.random.default_rng(3).permutation(xs)
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    assert [run is not None for run in joins] == [True, False]


def test_tree_sum_grows_the_run_in_several_passes(monkeypatch):
    """300 distinct primes in (2^8, 2^12) after tiled small values: the
    largest late cofactors of the first pass are primes only, so m needs
    further passes for the rest, and ends as the block's lcm."""
    xs = _blocks_of_small_values(1)
    xs[-300:] = primes_in(2**8, 2**12)[:300]
    divisions = []
    divide = verify._divide

    def counting(cut, n):
        divisions.append(n.size)
        return divide(cut, n)

    monkeypatch.setattr(verify, "_divide", counting)
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    assert [m for m, _, _ in joins] == [math.lcm(*xs.tolist())]
    # one division of the block, then two per growth pass
    assert len(divisions) >= 1 + 2 * 2


@pytest.mark.parametrize("extra, joined", [(0, True), (1, False)])
def test_tree_sum_cap_holds_across_growth_passes(monkeypatch, extra, joined):
    """Small values, about 200 distinct primes near 2^20 and a power of two
    that brings the block's lcm to _RUN_BITS - 1 bits, or to _RUN_BITS: m
    grows in two passes, each below the cap on its own, and the block
    joins exactly when one pass over every cofactor would."""
    primes = primes_in(2**20, 2**21)
    small = math.lcm(*_SMALL.tolist())
    count = max(
        k for k in range(1, _RUN_BITS // 20)
        if (small * math.prod(primes[:k])).bit_length() < _RUN_BITS
    )
    base = small * math.prod(primes[:count])
    xs = _blocks_of_small_values(1)
    xs[:count] = primes[:count]
    xs[count] = 16 << (_RUN_BITS - 1 + extra - base.bit_length())
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    assert [run is not None for run in joins] == [joined]
    if joined:
        assert joins[0][0].bit_length() == _RUN_BITS - 1


@pytest.mark.parametrize("large, want_width", [([], 52), ([2**32 - 17, 2**32 - 5], 32)])
def test_tree_sum_limb_width_at_the_ends_of_its_range(monkeypatch, large, want_width):
    """Mostly 1s and every prime below 2^11, twice: the first block grows m
    past 1000 bits, and the second divides it whole. At the top, in 52-bit
    limbs, a 1's quotient digits are m's limbs, so a column of them sums
    near 2^64. At the bottom, with primes just below 2^32, a remainder
    shifted up by 32 bits comes near 2^64. One bit wider and either would
    overflow uint64."""
    primes = primes_in(2, 2**11) + large
    block = np.ones(_BLOCK, dtype=np.int64)
    block[-len(primes) :] = primes
    xs = np.tile(block, 2)
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    m, _, (width, _) = joins[-1]
    assert len(joins) == 2 and m.bit_length() > 1000 and width == want_width


def test_tree_sum_leaves_after_a_block_past_the_cap(monkeypatch):
    """The first block's own lcm passes _RUN_BITS: it and every later
    block are summed by chunk-lcm leaves."""
    xs = _blocks_of_small_values(2)
    xs[: 3 * _RUN_BITS // 20] = primes_in(2**20, 2**21)[: 3 * _RUN_BITS // 20]
    joins = _record_joins(monkeypatch)
    assert tree_sum(xs) == oracle_sum(xs.tolist())
    assert joins == [None]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_tree_sum_mixes_elements_past_2_32_with_small_ones(dtype):
    """In int64, the small elements join a run and the others (from 2^32
    up, and negatives) go to the leaves; an object array takes the leaves
    alone."""
    rng = np.random.default_rng(4)
    xs = rng.choice(_SMALL, size=_BLOCK + 77)
    xs[::50] = rng.integers(2**32, 2**62, size=xs[::50].size)
    xs[1:6] = [2**32 - 1, 2**32, -6, 2**63 - 1, 1]
    assert tree_sum(xs.astype(dtype)) == oracle_sum(xs.tolist())


def test_tree_sum_unsorted_with_repeats(mid_family):
    """Members of a smooth family drawn with repeats, in random order,
    across several blocks."""
    rng = np.random.default_rng(5)
    xs = rng.choice(mid_family.members, size=3 * _BLOCK + 5)
    assert np.unique(xs).size < xs.size
    assert tree_sum(xs) == oracle_sum(xs.tolist())


def test_tree_sum_vs_fixed_denominator(mid_family):
    rng = random.Random(12)
    members = [int(v) for v in mid_family.members]
    for _ in range(10):
        sample = sorted(rng.sample(members, 300))
        m = math.lcm(*sample)
        sums = reciprocal_sum(np.array(sample, dtype=np.int64), m)
        assert tree_sum(sample) == Fraction(sum(sums), m)


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


def _check_peak(r, x):
    """check's tracemalloc peak on a real representation's sorted int64
    array, which exists before tracing starts, and the array's length."""
    a = construct_dense(r, x).denominators()
    tracemalloc.start()
    try:
        cert = check(r, a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.all_ok
    return peak, a.size


def test_check_memory_per_denominator():
    """check reads the array in place: a list of Python ints alone would
    cost about 36 B per denominator."""
    peak, size = _check_peak(Fraction(1, 3), 10**6)
    assert peak <= 12 * size


@pytest.mark.skipif(
    os.environ.get("DENSEFRAC_ACCEPT_LARGE") != "1",
    reason="x = 10^7 run enabled with DENSEFRAC_ACCEPT_LARGE=1",
)
def test_check_memory_at_ten_million():
    peak, _ = _check_peak(Fraction(1), 10**7)
    assert peak <= 50 * 10**6
