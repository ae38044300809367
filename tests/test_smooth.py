import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densefrac.arith import factorize, primes_in
from densefrac.errors import DivisibilityError, InfeasibleMass, ParameterError
from densefrac.smooth import (
    SmoothParams,
    build_family,
    choose_lambda,
    pool_modulus,
    reciprocal_sum,
)


def test_toy_family_members(toy_family):
    assert toy_family.members.tolist() == [1, 2, 3, 5, 6, 10, 15, 30]
    assert toy_family.count == 8


def test_lambda_half_family():
    fam = build_family(SmoothParams(x=30, y=5, w=30, lam=Fraction(1, 2), k=2))
    assert fam.members.tolist() == [30]
    assert fam.count == 1


def test_powers_of_two_family():
    fam = build_family(SmoothParams(x=10, y=2, w=10, lam=Fraction(0), k=4))
    assert fam.members.tolist() == [1, 2, 4, 8]
    # only odd member 1 = 1^2+1-1 is excluded from A0
    assert fam.members_a0().tolist() == []


def test_members_a0(toy_family):
    # 1 and 5 are m^2+m-1 for m = 1, 2
    assert toy_family.members_a0().tolist() == [3, 15]
    assert toy_family.count_a0 == 2


def test_slices(toy_family):
    assert toy_family.slice(5, 1).tolist() == [5, 10, 15, 30]
    assert toy_family.slice(3, 1).tolist() == [3, 6]
    assert toy_family.slice(2, 1).tolist() == [2]
    with pytest.raises(ParameterError):
        toy_family.slice(7, 1)  # p > y
    with pytest.raises(ParameterError):
        toy_family.slice(5, 2)  # l >= k
    with pytest.raises(ParameterError):
        toy_family.slice(4, 1)  # not prime


@st.composite
def _sub_family_case(draw):
    """A base A(x, y; w, 0) and one of the two sub-family shapes a
    construction reads off it: a cutoff view (same y, w; lambda > 0) or a
    stage-two pool (w' = y' <= w, x' < x)."""
    k = draw(st.sampled_from([2, 3, 4]))
    x = draw(st.integers(min_value=30, max_value=3000))
    y = draw(st.integers(min_value=2, max_value=x))
    w = draw(st.integers(min_value=2, max_value=x))
    base = SmoothParams(x=x, y=y, w=w, lam=Fraction(0), k=k)
    if draw(st.booleans()):
        den = draw(st.integers(min_value=2, max_value=x))
        lam = Fraction(draw(st.integers(min_value=1, max_value=den - 1)), den)
        sub = SmoothParams(x=x, y=y, w=w, lam=lam, k=k)
    else:
        y_p = draw(st.integers(min_value=2, max_value=min(y, w, x - 1)))
        x_p = draw(st.integers(min_value=y_p, max_value=x - 1))
        sub = SmoothParams(x=x_p, y=y_p, w=y_p, lam=Fraction(0), k=k)
    return base, sub


@settings(max_examples=200, deadline=None)
@given(case=_sub_family_case())
def test_sub_family_matches_fresh_sieve(case):
    base_params, params = case
    view = build_family(base_params).sub_family(params)
    fresh = build_family(params)
    assert view.members.tolist() == fresh.members.tolist()
    assert view.members_a0().tolist() == fresh.members_a0().tolist()
    assert (view.count, view.count_a0) == (fresh.count, fresh.count_a0)
    for p in primes_in(2, params.y):
        for l in range(1, 2 if p > params.w else params.k):
            for a0 in (False, True):
                assert view.slice(p, l, a0).tolist() == fresh.slice(p, l, a0).tolist()
    for l in range(1, params.k + 1):
        for p_max in (1, 2, 3, params.y // 2, params.y):
            got = view.exact_power_of_two_members(l, p_max)
            assert got.tolist() == fresh.exact_power_of_two_members(l, p_max).tolist()
    for n in range(-1, params.x + 3):
        assert (n in view) == (n in fresh)
        assert view.in_a0(n) == fresh.in_a0(n)


def test_sub_family_rejects_non_subsets():
    base = build_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=3))
    cut = base.sub_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(1, 2), k=3))
    for fam, params in [
        (base, SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=2)),  # k
        (base, SmoothParams(x=1001, y=100, w=10, lam=Fraction(0), k=3)),  # x
        (base, SmoothParams(x=1000, y=101, w=10, lam=Fraction(0), k=3)),  # y
        (base, SmoothParams(x=1000, y=50, w=20, lam=Fraction(0), k=3)),  # w
        (base, SmoothParams(x=1000, y=50, w=5, lam=Fraction(0), k=3)),  # w
        (cut, SmoothParams(x=1000, y=100, w=10, lam=Fraction(1, 4), k=3)),  # cutoff
    ]:
        with pytest.raises(ParameterError):
            fam.sub_family(params)
    # w-conditions that agree on y'-smooth integers are a sub-family
    pool = base.sub_family(SmoothParams(x=500, y=7, w=7, lam=Fraction(0), k=3))
    assert pool.members.tolist() == base.members[
        (base.members <= 500) & (base._lpf[base.members] <= 7)
    ].tolist()


def _member_predicates(n, params):
    """Independent membership check straight off the defining conditions."""
    if not (params.cutoff < n <= params.x):
        return False
    f = factorize(n)
    if f.factors and f.factors[-1][0] > params.y:
        return False
    if any(e >= params.k for _, e in f.factors):
        return False
    if any(e >= 2 and p > params.w for p, e in f.factors):
        return False
    return True


def test_membership_rederivation(mid_family):
    rng = random.Random(11)
    params = mid_family.params
    for _ in range(1000):
        n = rng.randint(1, params.x)
        assert (n in mid_family) == _member_predicates(n, params)


def test_partition_identity(mid_family):
    """family = y'-smooth core plus slices over (y', y], exactly."""
    params = mid_family.params
    members = mid_family.members
    for y_prime in (10, 30):
        core = members[mid_family._lpf[members] <= y_prime]
        total = len(core)
        union = set(int(v) for v in core)
        for p in [q for q in range(y_prime + 1, params.y + 1) if factorize(q).factors == ((q, 1),)]:
            lmax = 1 if p > params.w else params.k - 1
            for l in range(1, lmax + 1):
                s = mid_family.slice(p, l)
                total += int(s.size)
                for v in s:
                    assert int(v) not in union
                union.update(int(v) for v in s)
        assert total == mid_family.count
        assert union == set(int(v) for v in mid_family.members)


def test_squarefree_census_mobius():
    x = 100_000
    fam = build_family(SmoothParams(x=x, y=x, w=x, lam=Fraction(0), k=2))
    # independent Mobius oracle: sum mu(d) * floor(x / d^2)
    mu = np.ones(math.isqrt(x) + 1, dtype=np.int64)
    is_prime = np.ones(math.isqrt(x) + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_prime[p]:
            is_prime[2 * p :: p] = False
            mu[p::p] *= -1
            if p * p <= math.isqrt(x):
                mu[p * p :: p * p] = 0
    oracle = sum(int(mu[d]) * (x // (d * d)) for d in range(1, math.isqrt(x) + 1))
    assert fam.count == oracle


def test_reciprocal_sum(toy_family):
    assert reciprocal_sum([2, 3, 6], factorize(6)) == 1
    assert reciprocal_sum([3, 15], factorize(15)) == Fraction(2, 5)
    assert reciprocal_sum([], factorize(30)) == 0
    with pytest.raises(DivisibilityError):
        reciprocal_sum([4], factorize(30))


def test_reciprocal_sum_matches_fractions(mid_family):
    rng = random.Random(5)
    sample = sorted(rng.sample([int(v) for v in mid_family.members], 500))
    modulus = pool_modulus(sample)
    got = reciprocal_sum(sample, modulus)
    want = sum(Fraction(1, n) for n in sample)
    assert got == want


def test_choose_lambda_spec_example():
    lam, chosen, rem = choose_lambda([3, 15], Fraction(41, 100), 30)
    assert chosen == [3, 15]
    assert rem == Fraction(1, 100)
    assert lam == Fraction(2, 30)
    assert rem <= Fraction(1, 2)


def test_choose_lambda_mass_error():
    with pytest.raises(InfeasibleMass):
        choose_lambda([3, 15], Fraction(2, 5) + 1, 30)


def test_choose_lambda_properties(mid_family):
    pool = [int(v) for v in mid_family.members_a0()][:400]
    modulus = pool_modulus(pool)
    rng = random.Random(23)
    for _ in range(25):
        alpha = Fraction(rng.randint(1, 50), rng.randint(51, 400))
        try:
            lam, chosen, rem = choose_lambda(pool, alpha, mid_family.params.x, modulus)
        except InfeasibleMass:
            continue
        assert rem > 0
        boundary = lam.numerator * mid_family.params.x // lam.denominator
        assert rem * boundary <= 1
        assert all(n > boundary for n in chosen)
        assert sum(Fraction(1, n) for n in chosen) + rem == alpha


def test_resource_guard():
    with pytest.raises(ParameterError):
        SmoothParams(x=10**9, y=10**6, w=10**6, lam=Fraction(0), k=2)


def test_census_vs_estimator_diagnostic(mid_family):
    """|Psi_sieve / psi_estimate - 1| is reported, never asserted: the
    asymptotic error term carries no computable constant."""
    from densefrac import dickman

    p = mid_family.params
    est = dickman.psi_estimate(p.x, p.y, p.k)
    ratio = mid_family.count / est
    print(f"census/estimate ratio at (x={p.x}, y={p.y}, k={p.k}): {ratio:.4f}")
    assert est > 0
