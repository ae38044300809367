import functools
import gc
import hashlib
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densefrac import smooth
from densefrac.arith import factorize
from densefrac.construct import modulus_product
from densefrac.errors import (
    DensefracError,
    DivisibilityError,
    InfeasibleMass,
    ParameterError,
    SieveBoundExceeded,
)
from densefrac.modular import eliminate_prime
from densefrac.smooth import (
    SmoothParams,
    build_family,
    choose_lambda,
    limb_remainders,
    mass_prefix,
    reciprocal_sum,
)
from oracles import factor_over, primes_in


def test_toy_family_members(toy_family):
    assert toy_family.members.tolist() == [1, 2, 3, 5, 6, 10, 15, 30]
    assert toy_family.members.size == 8
    mass = reciprocal_sum(toy_family.members, modulus_product([2, 3, 5], 30, 2))
    assert mass == Fraction(12, 5)


def test_lambda_half_family():
    fam = build_family(SmoothParams(x=30, y=5, w=30, lam=Fraction(1, 2), k=2))
    assert fam.members.tolist() == [30]
    assert fam.members.size == 1


def test_powers_of_two_family():
    fam = build_family(SmoothParams(x=10, y=2, w=10, lam=Fraction(0), k=4))
    assert fam.members.tolist() == [1, 2, 4, 8]
    # only odd member 1 = 1^2+1-1 is excluded from A0
    assert fam.members_a0.tolist() == []


def test_members_a0(toy_family):
    # 1 and 5 are m^2+m-1 for m = 1, 2
    assert toy_family.members_a0.tolist() == [3, 15]


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
    assert view.members_a0.tolist() == fresh.members_a0.tolist()
    assert view.members.size == fresh.members.size
    for p in primes_in(2, params.y):
        for l in range(1, 2 if p > params.w else params.k):
            for a0 in (False, True):
                assert view.slice(p, l, a0).tolist() == fresh.slice(p, l, a0).tolist()
    for l in range(1, params.k + 1):
        for p_max in (1, 2, 3, params.y // 2, params.y):
            got = view.exact_power_of_two_members(l, p_max)
            assert got.tolist() == fresh.exact_power_of_two_members(l, p_max).tolist()


@settings(max_examples=100, deadline=None)
@given(case=_sub_family_case(), data=st.data())
def test_census_counts_slices_and_stocks(case, data):
    """census(lo, hi, a0) counts, over lo < n <= hi, the members of every
    slice(p, l, a0) and of exact_power_of_two_members(l, p_max), on the
    planning family and on a view of it."""
    base = build_family(case[0])
    for fam in (base, base.sub_family(case[1])):
        params = fam.params
        lo = data.draw(st.integers(-1, params.x + 1))
        hi = data.draw(st.integers(-1, params.x + 1))

        def in_range(arr):
            return int(((arr > lo) & (arr <= hi)).sum())

        for a0 in (False, True):
            slices, pow2 = fam.census(lo, hi, a0)
            assert slices.shape == (params.y + 1, params.k)
            assert pow2.shape == (params.k, params.y + 1)
            # every member but 1 lies in exactly one slice; 1 counts at [1, 0]
            assert slices.sum() == in_range(fam.members_a0 if a0 else fam.members)
            for p in primes_in(2, params.y):
                for l in range(1, 2 if p > params.w else params.k):
                    assert slices[p, l] == in_range(fam.slice(p, l, a0))
            # the stock changes with p_max only where p_max crosses a prime
            for l in range(1, params.k):
                for p_max in [2, params.y] + primes_in(2, params.y):
                    stock = fam.exact_power_of_two_members(l, p_max)
                    assert pow2[l, p_max] == (0 if a0 else in_range(stock))


@functools.lru_cache(maxsize=None)
def _one_sieve(x):
    """The one sieve of [1, x], at y = x^0.495 (a planner's y at epsilon
    = 0.01); the w and k it is built with play no part in its table."""
    return build_family(
        SmoothParams(x=x, y=int(x**0.495), w=2, lam=Fraction(0), k=2)
    )


@st.composite
def _view_case(draw):
    """x in {10^3, 10^4} and a family A(x', y'; w, lambda) with k in 2..6,
    y' <= y of the one sieve at x, and x' <= x."""
    x = draw(st.sampled_from([10**3, 10**4]))
    y_p = draw(st.integers(2, _one_sieve(x).params.y))
    w = draw(st.one_of(st.integers(2, y_p), st.integers(2, x)))
    k = draw(st.integers(2, 6))
    x_p = draw(st.integers(y_p, x))
    den = draw(st.integers(1, x_p))
    lam = Fraction(draw(st.integers(0, den - 1)), den)
    return x, SmoothParams(x=x_p, y=y_p, w=w, lam=lam, k=k)


@settings(max_examples=120, deadline=None)
@given(case=_view_case(), data=st.data())
def test_one_table_serves_every_view(case, data):
    """A view of the one sieve at x, for any y' <= y, w and k, equals a cold
    build_family at its parameters: members, members_a0, the primes, every
    slice, every powers-of-two stock and the census of a random range. The
    sieve is shared across examples, and each family is checked at x' and
    then at x, so views read members tables that views of other bounds
    made."""
    x, params = case
    full = SmoothParams(x=x, y=params.y, w=params.w, lam=params.lam, k=params.k)
    for params in (params, full):
        view = _one_sieve(x).sub_family(params)
        cold = build_family(params)
        assert view.members.tolist() == cold.members.tolist()
        assert view.members_a0.tolist() == cold.members_a0.tolist()
        assert view.primes == cold.primes
        for p in cold.primes:
            for l in range(1, 2 if p > params.w else params.k):
                for a0 in (False, True):
                    got = view.slice(p, l, a0)
                    assert got.tolist() == cold.slice(p, l, a0).tolist()
        for l in range(1, params.k):
            for p_max in (1, params.y, *cold.primes):
                got = view.exact_power_of_two_members(l, p_max)
                want = cold.exact_power_of_two_members(l, p_max)
                assert got.tolist() == want.tolist()
        lo = data.draw(st.integers(-1, params.x + 1))
        hi = data.draw(st.integers(-1, params.x + 1))
        for a0 in (False, True):
            for got, want in zip(view.census(lo, hi, a0), cold.census(lo, hi, a0)):
                assert got.tolist() == want.tolist()


def test_sub_family_rejects_non_subsets():
    """A view refuses only what the table cannot serve: a larger x or y, or
    a cutoff below this family's. Another k or w is a view of the same
    table, with the members of a fresh sieve at those parameters."""
    base = build_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=3))
    cut = base.sub_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(1, 2), k=3))
    for fam, params in [
        (base, SmoothParams(x=1001, y=100, w=10, lam=Fraction(0), k=3)),  # x
        (base, SmoothParams(x=1000, y=101, w=10, lam=Fraction(0), k=3)),  # y
        (cut, SmoothParams(x=1000, y=100, w=10, lam=Fraction(1, 4), k=3)),  # cutoff
    ]:
        with pytest.raises(ParameterError):
            fam.sub_family(params)
    for params in [
        SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=2),  # k
        SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=6),  # k
        SmoothParams(x=1000, y=50, w=20, lam=Fraction(0), k=3),  # w
        SmoothParams(x=1000, y=50, w=5, lam=Fraction(0), k=3),  # w
    ]:
        view = base.sub_family(params)
        assert view.members.tolist() == build_family(params).members.tolist()
    # w-conditions that agree on y'-smooth integers give the same members
    pool = base.sub_family(SmoothParams(x=500, y=7, w=7, lam=Fraction(0), k=3))
    top = base.table[1][np.searchsorted(base.table[0], base.members)]  # P(n)
    assert pool.members.tolist() == base.members[
        (base.members <= 500) & (top <= 7)
    ].tolist()


def test_family_arrays_are_read_only():
    """A family and its views share one sieve, so every array they hold is
    read-only: the table's columns, the members table's columns, members,
    members_a0, the slice order and keys, the row bounds and each
    powers-of-two row set. A write raises ValueError; the prime list is a
    tuple."""
    base = build_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(0), k=3))
    cut = base.sub_family(SmoothParams(x=1000, y=100, w=10, lam=Fraction(1, 2), k=3))
    pool = base.sub_family(SmoothParams(x=500, y=7, w=7, lam=Fraction(0), k=3))
    for fam in (base, cut, pool):
        for l in (1, 2):
            fam.exact_power_of_two_members(l, 7)
        held = [*fam.table, *fam._columns, *fam._pow2_rows.values(), fam.members_a0]
        held += [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
        assert len(held) == 5 + 4 + 2 + 1 + 4
        for array in held:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
        assert isinstance(fam.primes, tuple)


@pytest.mark.parametrize("y, k", [(100_000, 2), (177, 3)])
def test_family_holds_no_dense_sieve_array(y, k):
    """Nothing reachable from a family or its views is an array longer than
    the members table: the sieve's length-(x+1) arrays die in build_family."""
    x = 100_000
    fam = build_family(SmoothParams(x=x, y=y, w=31, lam=Fraction(0), k=k))
    view = fam.sub_family(SmoothParams(x=x // 2, y=7, w=7, lam=Fraction(0), k=k))
    view.slice(5, 1)
    view.exact_power_of_two_members(1, 7)
    rows = fam.table[0].size  # at most x: one row per member in [1, x]
    seen = set()
    stack = [fam, view]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            assert obj.size <= rows
            if obj.base is not None:
                stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    assert id(fam.table[1]) in seen and id(view.members) in seen


def _member_predicates(n, params):
    """Independent membership check straight off the defining conditions."""
    if not (params.cutoff < n <= params.x):
        return False
    f = factorize(n)
    if f and f[-1][0] > params.y:
        return False
    if any(e >= params.k for _, e in f):
        return False
    if any(e >= 2 and p > params.w for p, e in f):
        return False
    return True


def test_membership_rederivation(mid_family):
    rng = random.Random(11)
    params = mid_family.params
    members = set(mid_family.members.tolist())
    for _ in range(1000):
        n = rng.randint(1, params.x)
        assert (n in members) == _member_predicates(n, params)


_PRIMES_TO_3000 = primes_in(2, 3000)


@functools.lru_cache(maxsize=None)
def _oracle_factors(n):
    """{q: e} for 1 <= n <= 3000 by the stdlib oracle, which raises on a
    missing prime."""
    return factor_over(n, [q for q in _PRIMES_TO_3000 if n % q == 0])


@st.composite
def _family_params(draw):
    """A(x, y; w, lambda) with x <= 3000 and y anywhere from below sqrt(x)
    up to x, w often below y."""
    k = draw(st.sampled_from([2, 3, 4]))
    x = draw(st.integers(min_value=2, max_value=3000))
    y = draw(
        st.one_of(
            st.integers(2, max(2, math.isqrt(x) - 1)), st.integers(2, x), st.just(x)
        )
    )
    w = draw(st.one_of(st.integers(2, y), st.integers(2, x)))
    den = draw(st.integers(1, x))
    lam = Fraction(draw(st.integers(0, den - 1)), den)
    return SmoothParams(x=x, y=y, w=w, lam=lam, k=k)


@settings(max_examples=100, deadline=None)
@given(params=_family_params())
# 11*13 and 7*11*13 have two prime factors above y; 5^2 and 7^2 have w < p <= y
@example(params=SmoothParams(x=1001, y=10, w=3, lam=Fraction(0), k=3))
@example(params=SmoothParams(x=3000, y=3000, w=2, lam=Fraction(1, 7), k=2))
def test_build_family_matches_definition(params):
    """Members, A0, slices and powers-of-two stocks, each against its
    definition: every member but 1 lies in exactly one slice, the one of
    P(n) and its multiplicity."""
    fam = build_family(params)
    members = [n for n in range(1, params.x + 1) if _member_predicates(n, params)]
    m2m1 = {m * m + m - 1 for m in range(1, math.isqrt(params.x) + 2)}
    a0 = {n for n in members if n % 2 and n not in m2m1}
    assert fam.members.tolist() == members
    assert fam.members_a0.tolist() == sorted(a0)

    by_top_power = {}
    for n in members:
        f = _oracle_factors(n)
        top = max(f, default=1)
        by_top_power.setdefault((top, f.get(top, 0)), []).append(n)
    for p in primes_in(2, params.y):
        for l in range(1, 2 if p > params.w else params.k):
            want = by_top_power.pop((p, l), [])
            assert fam.slice(p, l).tolist() == want
            assert fam.slice(p, l, a0=True).tolist() == [n for n in want if n in a0]
    assert list(by_top_power) in ([], [(1, 0)])

    for l in range(1, params.k + 1):
        for p_max in (1, 2, 3, 5, params.y):
            want = [
                n
                for n in members
                if _oracle_factors(n).get(2, 0) == l
                and max(_oracle_factors(n).keys() - {2}, default=1) <= p_max
            ]
            assert fam.exact_power_of_two_members(l, p_max).tolist() == want


def test_partition_identity(mid_family):
    """family = y'-smooth core plus slices over (y', y], exactly."""
    params = mid_family.params
    members = mid_family.members
    top = mid_family.table[1][np.searchsorted(mid_family.table[0], members)]
    for y_prime in (10, 30):
        core = members[top <= y_prime]  # P(n) <= y'
        total = len(core)
        union = set(int(v) for v in core)
        for p in [q for q in range(y_prime + 1, params.y + 1) if factorize(q) == ((q, 1),)]:
            lmax = 1 if p > params.w else params.k - 1
            for l in range(1, lmax + 1):
                s = mid_family.slice(p, l)
                total += int(s.size)
                for v in s:
                    assert int(v) not in union
                union.update(int(v) for v in s)
        assert total == mid_family.members.size
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
    assert fam.members.size == oracle


def test_reciprocal_sum(toy_family):
    assert reciprocal_sum([2, 3, 6], 6) == 1
    assert reciprocal_sum([3, 15], 15) == Fraction(2, 5)
    assert reciprocal_sum([], 30) == 0
    with pytest.raises(DivisibilityError):
        reciprocal_sum([4], 30)


def test_reciprocal_sum_matches_fractions(mid_family):
    rng = random.Random(5)
    sample = sorted(rng.sample([int(v) for v in mid_family.members], 500))
    modulus = math.lcm(*sample)
    got = reciprocal_sum(sample, modulus)
    want = sum(Fraction(1, n) for n in sample)
    assert got == want


def _reciprocal_sum_scalar(elements, m):
    """The one-Python-step-per-element loop reciprocal_sum once was."""
    num = 0
    for n in elements:
        n = int(n)
        if n < 1 or m % n != 0:
            raise DivisibilityError(
                f"element {n} does not divide the modulus",
                failing_parameter="modulus",
            )
        num += m // n
    return Fraction(num, m)


_ODD_PRIMES = primes_in(3, 1000)


@st.composite
def _reciprocal_sum_case(draw):
    """A modulus of a set bit length, divisors of it below 2^32 or below
    2^63 and maybe one more value (a non-divisor, 0 or a negative) at the
    first, a middle or the last position."""
    bits = draw(st.sampled_from([1, 31, 32, 33, 64, 65, 2100]))
    bound = draw(st.sampled_from([2**32, 2**63]))
    flat = []
    value = 1
    for p in draw(st.lists(st.sampled_from(_ODD_PRIMES), max_size=300)):
        if (value * p).bit_length() > bits:
            break
        value *= p
        flat.append(p)
    flat += [2] * (bits - value.bit_length())
    modulus = math.prod(flat)
    assert modulus.bit_length() == bits
    elements = []
    if flat:
        picks = st.lists(st.integers(0, len(flat) - 1), max_size=12, unique=True)
        for pick in draw(st.lists(picks, max_size=40)):
            n = 1
            for i in pick:
                if n * flat[i] < bound:
                    n *= flat[i]
            elements.append(n)
    extra = draw(
        st.one_of(
            st.none(),
            st.integers(1, 2**32 - 1),
            st.integers(2**32, 2**63 - 1),
            st.just(0),
            st.integers(-(2**40), -1),
        )
    )
    if extra is not None:
        at = draw(st.sampled_from([0, len(elements) // 2, len(elements)]))
        elements.insert(at, extra)
    return modulus, elements


def _outcome(fn, elements, modulus):
    try:
        return fn(elements, modulus)
    except DensefracError as e:
        return type(e), e.as_dict()


_AS_INPUT = {
    "list": list,
    "int64 array": lambda v: np.array(v, dtype=np.int64),
    "generator": lambda v: (n for n in v),
}


@settings(max_examples=300, deadline=None)
@given(
    case=_reciprocal_sum_case(),
    form=st.sampled_from(sorted(_AS_INPUT)),
    chunk=st.sampled_from([8, smooth._CHUNK]),
)
@example(  # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657: 1-bit limbs
    case=(
        2**2037 * (2**63 - 1),
        [1, 2, 7, 49, 73 * 127, 2**62, 7 * 2**59, (2**63 - 1) // 7, 2**63 - 1],
    ),
    form="int64 array",
    chunk=8,
)
@example(case=(2**64 - 1, [2**32 - 1, 3, 2**32 + 1]), form="list", chunk=8)
def test_reciprocal_sum_matches_scalar_loop(case, form, chunk):
    """Same Fraction, or same error type and text, as the scalar loop, for
    moduli up to 2100 bits and divisors up to 2^63 - 1 (narrower limbs, 1
    bit wide near 2^63); a chunk of 8 sums across chunks and puts failing
    elements in later chunks."""
    modulus, elements = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth, "_CHUNK", chunk)
        got = _outcome(reciprocal_sum, _AS_INPUT[form](elements), modulus)
    assert got == _outcome(_reciprocal_sum_scalar, elements, modulus)


def _group_sums_scalar(elements, m, group):
    """The sums of m // n per run of group elements, or the scalar loop's
    error."""
    _reciprocal_sum_scalar(elements, m)
    runs = range(0, len(elements), group)
    return tuple(sum(m // int(n) for n in elements[i : i + group]) for i in runs)


@settings(max_examples=200, deadline=None)
@given(
    case=_reciprocal_sum_case(),
    form=st.sampled_from(sorted(_AS_INPUT)),
    chunk=st.sampled_from([8, smooth._CHUNK]),
    group=st.sampled_from([1, 3, 8]),
)
def test_reciprocal_sum_group_sums_match_scalar_loop(case, form, chunk, group):
    """With group=g, the sums of m // n per run of g elements, or the same
    error type and text as the scalar loop: the remainder proof holds in the
    grouped form too, and a group never straddles a chunk (3 does not
    divide a chunk of 8)."""
    modulus, elements = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth, "_CHUNK", chunk)
        got = _outcome(
            lambda v, m: reciprocal_sum(v, m, group), _AS_INPUT[form](elements), modulus
        )
    want = _outcome(lambda v, m: _group_sums_scalar(v, m, group), elements, modulus)
    assert got == want


@pytest.mark.parametrize("group", [0, -1, smooth._CHUNK + 1])
def test_reciprocal_sum_refuses_a_group_outside_the_chunk(group):
    with pytest.raises(ParameterError, match=f"group must lie in .*, got {group}"):
        reciprocal_sum([1, 2], 2, group)


@pytest.mark.parametrize("kernel", [limb_remainders])
@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(
        st.integers(1, 2**64),
        st.integers(2**63, 2**65 - 1),  # 64 and 65 bits
        st.integers(1, 2**2100),
        st.integers(2**2099, 2**2100 - 1),
    ),
    elements=st.lists(
        st.one_of(
            st.integers(1, 2**32 - 1),
            st.integers(2**32 - 2**8, 2**32 - 1),
            st.integers(1, 2**20),
            st.integers(1, 7),
            st.integers(2**32, 2**63 - 1),
            st.integers(2**63 - 2**8, 2**63 - 1),
        ),
        max_size=40,
    ),
    chunk=st.sampled_from([8, smooth._CHUNK]),
)
@example(m=2**64 - 1, elements=[2**32 - 1, 3], chunk=8)
@example(m=2**2100 - 1, elements=[1, 2**32 - 1, 2**63 - 1], chunk=8)
@example(m=2**65 - 1, elements=[], chunk=8)
def test_limb_division_matches_python(kernel, m, elements, chunk):
    """Remainders equal m % n, for elements just below 2^32 and for int64
    elements above it (narrower limbs, 1 bit wide near 2^63).
    limb_remainders reduces an m below 2^64 in its head step alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth, "_CHUNK", chunk)
        remainders = kernel(m, np.array(elements, dtype=np.int64))
    assert remainders.dtype == np.uint64
    assert remainders.tolist() == [m % n for n in elements]


def test_reciprocal_sum_largest_element():
    """r * 2^32 + limb peaks below 2^64 when n = 2^32 - 1 divides m."""
    top = 2**32 - 1  # 3 * 5 * 17 * 257 * 65537
    modulus = 2**2000 * top
    elements = [1, 2, top, 65537, 2**31, 2 * 65537 * 257]
    want = _reciprocal_sum_scalar(elements, modulus)
    for form, as_input in _AS_INPUT.items():
        assert reciprocal_sum(as_input(elements), modulus) == want, form


@pytest.mark.parametrize("big", [2**63, 2**70, -(2**63) - 1])
def test_reciprocal_sum_rejects_elements_from_2_32(big):
    """An element outside int64 is refused before any divisibility check
    (elements from 2^32 up to 2^63 - 1 are summed)."""
    modulus = 30
    for elements in ([7, big], [big, 7], [1, 7, 2, big]):
        for form in ["list", "generator"]:
            with pytest.raises(ParameterError, match=f"element {big} does not fit"):
                reciprocal_sum(_AS_INPUT[form](elements), modulus)


_KERNELS = {
    "reciprocal_sum": lambda S: reciprocal_sum(S, 3),
    "choose_lambda": lambda S: choose_lambda(S, Fraction(1), 3),
    "eliminate_prime": lambda S: eliminate_prime(Fraction(1, 3), 3, S, 3, 1),
}
_NOT_POSITIVE = {
    "reciprocal_sum": (DivisibilityError, "element {} does not divide the modulus"),
    "choose_lambda": (ParameterError, "pool elements must be positive, got {}"),
    "eliminate_prime": (ParameterError, "elements of S must be positive, got {}"),
}


@pytest.mark.parametrize(
    "value",
    [0, -3, 2**63, 2**70, -(2**63) - 1, 2.5]
    + [pytest.param(np.array([2.5, 3.9]), id="float64-array")],
)
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_kernels_refuse_bad_elements_with_typed_errors(kernel, value):
    """0, a negative, a non-integral value and values outside int64 end in
    a typed error in each constructor kernel, from a list, a generator, an
    int64 array or a float64 array, and never in ZeroDivisionError or
    OverflowError; a non-integral value is never truncated."""
    if isinstance(value, np.ndarray):  # the whole input
        inputs = {"float64 array": value}
        error, text = ParameterError, f"element {value[0]} is not an integer"
    else:
        if isinstance(value, float):
            forms = ["list", "generator"]
            error, text = ParameterError, "element {} is not an integer"
        elif -(2**63) <= value < 2**63:
            forms = ["list", "generator", "int64 array"]
            error, text = _NOT_POSITIVE[kernel]
        else:
            forms = ["list", "generator"]
            error, text = ParameterError, "element {} does not fit in int64"
        inputs = {form: _AS_INPUT[form]([value, 3]) for form in forms}
    for form, elements in inputs.items():
        with pytest.raises(DensefracError) as caught:
            _KERNELS[kernel](elements)
        assert type(caught.value) is error, form
        assert str(caught.value) == text.format(value), form


def test_reciprocal_sum_memory_is_chunked():
    """The 173 227-member family at 10^6 is divided chunk by chunk: the
    peak allocation stays well below one full-length uint64 array."""
    fam = build_family(SmoothParams(x=10**6, y=501, w=63, lam=Fraction(0), k=3))
    modulus = modulus_product(primes_in(2, 501), 63, 3)
    assert fam.members.size == 173_227
    tracemalloc.start()
    try:
        reciprocal_sum(fam.members, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fam.members.nbytes / 3


_WALK_M = 2**6 * 3**4 * 5**2 * 7 * 11 * 13
_WALK_DIVISORS = [d for d in range(1, 2**6 * 3**4 + 1) if _WALK_M % d == 0]


def _walk_scalar(elements, m, limit):
    """The element-by-element walk: take each n while the sum of m // n
    stays below limit."""
    taken = total = 0
    for n in elements:
        if total + m // n >= limit:
            break
        total += m // n
        taken += 1
    return taken, total


@settings(max_examples=300, deadline=None)
@given(
    elements=st.lists(st.sampled_from(_WALK_DIVISORS), max_size=60),
    group=st.integers(1, 70),
    cut=st.integers(0, 61),
    shift=st.sampled_from([-1, 0, 1]),
)
@example(elements=[], group=1, cut=0, shift=0)  # empty input
@example(elements=[], group=3, cut=0, shift=1)
@example(elements=[5, 7, 9, 2, 1], group=2, cut=5, shift=1)  # the whole input
@example(elements=[5, 7, 9, 2, 1], group=5, cut=5, shift=1)
@example(elements=[5, 7, 9, 2, 1], group=2, cut=4, shift=0)  # a prefix sum
@example(elements=[5, 7, 9, 2, 1], group=2, cut=2, shift=-1)
@example(elements=[5, 7, 9, 2, 1], group=1, cut=3, shift=1)
def test_mass_prefix_matches_the_element_walk(elements, group, cut, shift):
    """Whole groups first, then elements, takes what the plain walk takes:
    at a limit equal to the sum of m // n over the first cut elements and
    one either side of it, for every group size, the whole input (cut past
    the end, shift 1) and the empty input."""
    limit = sum(_WALK_M // n for n in elements[:cut]) + shift
    as_array = np.array(elements, dtype=np.int64)
    sums = reciprocal_sum(as_array, _WALK_M, group)
    got = mass_prefix(as_array, _WALK_M, sums, group, limit)
    assert got == _walk_scalar(elements, _WALK_M, limit)
    if cut >= len(elements) and shift == 1:
        assert got[0] == len(elements)


def test_choose_lambda_spec_example():
    boundary, chosen, rem = choose_lambda([3, 15], Fraction(41, 100), 15)
    assert chosen == [3, 15]
    assert rem == Fraction(1, 100)
    assert boundary == 2
    assert rem <= Fraction(1, 2)


def test_choose_lambda_mass_error():
    with pytest.raises(InfeasibleMass):
        choose_lambda([3, 15], Fraction(2, 5) + 1, 15)


def test_choose_lambda_refuses_a_pool_element_outside_the_modulus():
    """Every pool element is proven to divide 15 before the walk; 7 does
    not."""
    with pytest.raises(DivisibilityError, match="^element 7 does not divide the modulus"):
        choose_lambda([3, 7, 15], Fraction(1, 2), 15)


def test_choose_lambda_properties(mid_family):
    pool = mid_family.members_a0.tolist()[:400]
    modulus = math.lcm(*pool)
    rng = random.Random(23)
    for _ in range(25):
        alpha = Fraction(rng.randint(1, 50), rng.randint(51, 400))
        try:
            boundary, chosen, rem = choose_lambda(pool, alpha, modulus)
        except InfeasibleMass:
            continue
        assert rem > 0
        assert rem * boundary <= 1
        assert all(n > boundary for n in chosen)
        assert sum(Fraction(1, n) for n in chosen) + rem == alpha


def test_resource_guard():
    with pytest.raises(SieveBoundExceeded) as err:
        SmoothParams(x=10**9, y=10**6, w=10**6, lam=Fraction(0), k=2)
    assert err.value.failing_parameter == "x"


def test_family_census_at_1e6():
    """The family (x, y, w, k) = (10^6, 501, 63, 3), lambda = 0: its member
    counts, and its exact reciprocal mass over D(503) pinned by sha256."""
    fam = build_family(SmoothParams(x=10**6, y=501, w=63, lam=Fraction(0), k=3))
    assert (fam.members.size, fam.members_a0.size) == (173227, 87475)
    mass = reciprocal_sum(fam.members, modulus_product(primes_in(2, 501), 63, 3))
    assert (
        hashlib.sha256(f"{mass.numerator}/{mass.denominator}".encode()).hexdigest()
        == "56b8ab12200a190a2dafe1c9077369a110a85074738be834f5877d67eb3bae66"
    )
    assert float(mass) == 8.883662070533154
