import dataclasses
import gc
import itertools
import math
import random
import time
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densefrac import smooth
from densefrac.arith import exact_multiplicity, factorize, is_prime
from densefrac.construct import (
    MAX_STAGE_TWO_ATTEMPTS,
    ConstructionConfig,
    StagePlan,
    StageTrace,
    _eliminate_step,
    _plan_full,
    _resolve_plan,
    _select_y_prime,
    construct_dense,
    four_set_repair,
    modulus_product,
    stage_one,
    stage_two,
)
from densefrac.errors import (
    DensefracError,
    DivisibilityError,
    EliminationFailed,
    InfeasibleMass,
    ParameterError,
    RemainderNonPositive,
    UnsupportedDenominator,
)
from densefrac.modular import eliminate_prime
from densefrac.smooth import (
    SmoothFamily,
    SmoothParams,
    build_family,
    choose_lambda,
    reciprocal_sum,
)
from densefrac.verify import check, tree_sum
from oracles import factor_over, primes_in


def test_modulus_product_examples():
    assert modulus_product([2, 3, 5], 10, 3) == 900 == 2**2 * 3**2 * 5**2
    assert modulus_product([], 10, 3) == 1
    # primes above w enter to the first power
    assert modulus_product([2, 3, 5, 7, 11], 3, 3) == 4 * 9 * 5 * 7 * 11


def _toy_plan(r):
    # the toy family {1,2,3,5,6,10,15,30} carries reciprocal mass 12/5
    return StagePlan(
        x=30,
        y=5,
        w=5,
        cutoff=0,
        initial_remainder=Fraction(r) - Fraction(12, 5),
        y_prime=3,
        x_prime=10,
        y_doubleprime=2,
        d_p0=modulus_product([2, 3, 5], 5, 2),
        d_pool=modulus_product([2, 3], 3, 2),
    )


def _toy_config(r):
    return ConstructionConfig(
        r=Fraction(r),
        x=30,
        k=2,
        epsilon=0.1,
        delta=Fraction(1, 10),
    )


def test_stage_one_toy_run(toy_family):
    """End-to-end exact-arithmetic oracle on the 30-element toy family.

    r = 5/2 over {1,2,3,5,6,10,15,30}: a0 = 5/2 - 12/5 = 1/10; the prime-5
    step adds 1/15 (residue arithmetic mod 5 over M = 30), the prime-3 step
    adds 1/3, and the powers-of-two cleanup adds 1/2 (y' = 3 is prime here,
    so the cleanup element must be a pure power of two).
    """
    r = Fraction(5, 2)
    kept, rem, trace = stage_one(_toy_config(r), _toy_plan(r), toy_family)
    assert rem == Fraction(1, 1)
    assert kept.tolist() == [1, 5, 6, 10, 30]
    # telescoping: r = remainder + sum over kept
    assert rem + tree_sum(kept.tolist()) == r
    # every remainder divides its divisor certificate
    for step in trace.steps:
        assert step.divisor_certificate % step.remainder_after.denominator == 0
    # processed primes descending with matching slices
    assert [s.prime for s in trace.steps] == [5, 3, 2]
    assert trace.steps[0].removed == (15,)
    assert trace.steps[0].remainder_after == Fraction(1, 6)
    assert trace.steps[1].removed == (3,)
    assert trace.steps[1].remainder_after == Fraction(1, 2)
    assert trace.steps[2].removed == (2,)


def test_stage_one_cleanup_empty_stock():
    """A pinned y' = 4 leaves 23/26 at x = 12578 with no member exactly
    divisible by 2 whose odd part is 4-smooth: the cleanup's elimination
    step refuses with the prime and power it could not cancel."""
    with pytest.raises(EliminationFailed) as ei:
        construct_dense(Fraction(23, 26), 12578, y_prime=4)
    assert (ei.value.prime, ei.value.power) == (2, 1)


def test_stage_one_rejects_nonpositive_remainder(toy_family):
    with pytest.raises(RemainderNonPositive):
        stage_one(_toy_config(Fraction(5, 6)), _toy_plan(Fraction(5, 6)), toy_family)


def test_plan_adaptive_window():
    """The plan's stored remainder is r minus the mass of a freshly sieved
    lambda-family, at the default delta and at two pins; the cutoff is the
    largest element boundary leaving a remainder in (0, delta]. The smaller
    pin leaves a remainder near 2*10^-6, and its walk stops 154 members
    into a group."""
    r = Fraction(1, 2)
    for delta in (None, Fraction(1, 30), Fraction(1, 10**4)):
        config, plan, *_ = _plan_full(r, 10**5, delta=delta)
        fam = build_family(
            SmoothParams(x=10**5, y=plan.y, w=plan.w, cutoff=plan.cutoff, k=config.k)
        )
        d_p0 = modulus_product(primes_in(2, plan.y), plan.w, config.k)
        rem = r - Fraction(sum(reciprocal_sum(fam.members, d_p0)), d_p0)
        assert plan.initial_remainder == rem
        assert 0 < rem <= config.delta
        # the smallest member above the cutoff could not also be given up
        assert rem + Fraction(1, int(fam.members[0])) > config.delta


def test_delta_below_every_remainder_is_refused():
    """No cutoff leaves 1/2 at 10^5 a remainder in (0, 10^-6]: the last
    member the walk may give up takes the remainder below zero. The plan is
    refused on delta, and no plan with a remainder <= 0 is made."""
    with pytest.raises(InfeasibleMass) as ei:
        _plan_full(Fraction(1, 2), 10**5, delta=Fraction(1, 10**6))
    assert ei.value.failing_parameter == "delta"


def test_plan_unsupported_denominator():
    with pytest.raises(UnsupportedDenominator):
        _plan_full(Fraction(1, 2**20), 10**6, k=3)


@pytest.mark.parametrize("b", [2**61 - 1, 2**89 - 1])
def test_plan_refuses_a_huge_prime_factor_without_factoring(b):
    """A cofactor of b left at or above (10^6 + 1)^2 by trial division up to
    10^6 has every prime factor above 10^6 > y, so r is refused at once
    with a message naming y, before the k checks (4b is not 2-free)."""
    for k in (None, 2):
        t0 = time.perf_counter()
        with pytest.raises(UnsupportedDenominator) as ei:
            _plan_full(Fraction(1, 4 * b), 1000, k=k)
        assert time.perf_counter() - t0 < 1.0
        assert ei.value.failing_parameter == "r"
        assert str(ei.value) == f"P({4 * b}) > 1000000 exceeds y = 22"


def test_plan_names_a_prime_factor_found_by_trial_division():
    """10^12 + 39 is prime and below (10^6 + 1)^2: trial division up to 10^6
    proves it, and the refusal names P(b) and w as before."""
    with pytest.raises(UnsupportedDenominator) as ei:
        _plan_full(Fraction(1, 10**12 + 39), 1000)
    assert str(ei.value) == "P(1000000000039) = 1000000000039 exceeds w = 7"


def test_plan_infeasible_mass():
    with pytest.raises(InfeasibleMass) as ei:
        _plan_full(10, 1000)
    assert ei.value.exit_code == 2


@pytest.mark.parametrize("x_prime", [0, -5])
def test_plan_rejects_malformed_request(x_prime):
    """x' < 1 is a malformed request, not an infeasible one."""
    with pytest.raises(ParameterError) as ei:
        _plan_full(Fraction(1, 2), 10**4, x_prime=x_prime)
    assert ei.value.failing_parameter == "x_prime"


def test_plan_bounds_invariants():
    config, plan, *_ = _plan_full(Fraction(1, 3), 10**5)
    assert plan.y_doubleprime <= plan.y_prime <= plan.w <= plan.y <= plan.x
    assert plan.x_prime <= plan.cutoff
    # the moduli are the products over the primes <= y and <= y'
    assert plan.d_p0 == modulus_product(primes_in(2, plan.y), plan.w, config.k)
    y_p = plan.y_prime
    assert plan.d_pool == modulus_product(primes_in(2, y_p), y_p, config.k)


@pytest.mark.parametrize(
    "r, x, y_prime, deficits",
    [
        (Fraction(2, 3), 10**4, 10, (0, 3)),
        (Fraction(1, 2), 2000, 6, (0, 2)),
        (Fraction(1, 8), 10**5, 10, (1, 0)),
    ],
)
def test_select_y_prime_thin_fallback(r, x, y_prime, deficits):
    """When every candidate leaves thin slices, the least deficient y' is
    chosen and the warning names its (stage-one, ladder) deficit counts."""
    _, plan, fam0, _ = _plan_full(r, x)
    warning = (
        f"every y' candidate leaves thin slices (best {y_prime}, deficits "
        f"{deficits}); relying on opportunistic eliminations"
    )
    assert _select_y_prime(fam0, plan.cutoff, None, None) == (y_prime, [warning])
    assert (plan.y_prime, plan.warnings) == (y_prime, [warning])


def test_stage_two_empty_loop_expansion():
    """With no q'-loop primes, stage two is choose-cut plus odd expansion."""
    plan = StagePlan(
        x=10**5,
        y=300,
        w=20,
        cutoff=5000,
        initial_remainder=Fraction(1, 20),
        y_prime=6,
        x_prime=100,
        y_doubleprime=6,
        d_p0=modulus_product(primes_in(2, 300), 20, 2),
        d_pool=modulus_product([2, 3, 5], 6, 2),
    )
    pool = build_family(SmoothParams(x=100, y=6, w=6, cutoff=0, k=2))
    kept = np.empty(0, dtype=np.int64)
    res = stage_two(Fraction(2, 15), plan, pool, kept)
    total = (
        tree_sum(res.a_prime)
        + tree_sum(sorted(set(res.c_terms) - set(res.a_prime)))
        + tree_sum(res.d1)
        + tree_sum(res.d2)
    )
    assert total == Fraction(2, 15)
    # the squarefree 5-smooth odd pool is {3, 15}; the cut keeps {15}, the
    # residual 1/15 expands to {15} as well, and the collision is repaired:
    # 2/15 = 1/15 + 1/16 + 1/240 exactly.
    assert res.a_prime == [15]
    assert res.c_terms == [15]
    assert res.d1 == [16] and res.d2 == [240]
    assert all(n % 2 == 1 for n in res.a_prime + res.c_terms)
    assert all(n % 2 == 0 for n in res.d1 + res.d2)


def test_stage_two_denominator_one_rejected(toy_family):
    kept = np.empty(0, dtype=np.int64)
    with pytest.raises(ParameterError):
        stage_two(Fraction(2, 1), _toy_plan(Fraction(5, 2)), toy_family, kept)


def test_four_set_repair_collision_example():
    a, c_minus, d1, d2 = four_set_repair({15, 21}, {15, 9})
    assert a == [15, 21] and c_minus == [9]
    assert d1 == [16] and d2 == [240]
    assert set(d1).isdisjoint(d2)


def test_four_set_repair_random_exact():
    rng = random.Random(77)
    pool = [n for n in range(3, 4000, 2) if math.isqrt(n + 1) ** 2 + math.isqrt(n + 1) - 1 != n]
    for _ in range(50):
        a = set(rng.sample(pool, rng.randint(1, 40)))
        c = set(rng.sample(pool, rng.randint(1, 20)))
        if not a & c:
            c.add(next(iter(a)))
        ap, cm, d1, d2 = four_set_repair(a, c)
        parts = [ap, cm, d1, d2]
        union = set()
        for part in parts:
            assert union.isdisjoint(part)
            union.update(part)
        want = tree_sum(sorted(a)) + tree_sum(sorted(c))
        got = sum(tree_sum(p) for p in parts)
        assert got == want


def test_four_set_repair_rejects_m2m1():
    with pytest.raises(ParameterError):
        four_set_repair({5}, {5})  # 5 = 2^2 + 2 - 1
    with pytest.raises(ParameterError):
        four_set_repair({4}, {9})  # even input


def test_construct_dense_smoke():
    rep = construct_dense(Fraction(1, 2), 10**5)
    cert = rep.certificate
    assert cert.sum_exact and cert.distinct and cert.max_ok and cert.harmonic_bound_ok
    assert cert.density > Fraction(1, 50)
    denoms = rep.denominators()
    assert len(denoms) == cert.size
    assert int(denoms[-1]) <= 10**5
    # parts pairwise disjoint and consistent with the union
    parts = rep.parts()
    union = set()
    for vals in parts.values():
        vs = {int(v) for v in vals}
        assert union.isdisjoint(vs)
        union |= vs
    assert len(union) == cert.size
    # stage-two elements all at or below lambda*x; stage-one all above
    assert all(int(v) > rep.plan.cutoff for v in rep.a)
    small = [int(v) for v in rep.stage_two.a_prime + rep.stage_two.c_minus]
    assert all(v <= rep.plan.cutoff for v in small)


def test_construct_dense_deterministic():
    from densefrac.certificate import document_from_representation

    a = document_from_representation(construct_dense(Fraction(1, 3), 10**5)).to_json()
    b = document_from_representation(construct_dense(Fraction(1, 3), 10**5)).to_json()
    assert a == b


def test_construct_dense_infeasible():
    with pytest.raises(InfeasibleMass):
        construct_dense(10, 1000)


@pytest.mark.parametrize("r, x", [(Fraction(3, 2), 3), (Fraction(7, 4), 4)])
@pytest.mark.parametrize(
    "options",
    [{}, {"delta": 1}],
    ids=["default", "delta=1"],
)
def test_r_equal_to_the_full_family_mass_is_refused(r, x, options):
    """The whole family ({1, 2} at x = 3, {1, 2, 4} at x = 4) sums to r;
    no option set lets the family alone cover r."""
    family = build_family(SmoothParams(x=x, y=2, w=2, cutoff=0, k=3))
    assert sum(Fraction(1, int(n)) for n in family.members) == r
    with pytest.raises(InfeasibleMass):
        construct_dense(r, x, **options)


def test_construct_error_carries_parameter():
    try:
        construct_dense(10, 1000)
    except InfeasibleMass as err:
        assert err.failing_parameter == "x"
        assert err.suggestion


@st.composite
def _target(draw):
    """r = a/b <= 6/5 with cube-free b <= 30."""
    b = draw(st.sampled_from([b for b in range(1, 31) if b % 8 and b % 27]))
    return Fraction(draw(st.integers(1, 6 * b // 5)), b)


@settings(max_examples=30, deadline=None)
@given(
    r=_target(),
    x=st.integers(10**4, 10**5),
    share=st.one_of(st.none(), st.integers(1, 99)),
)
def test_construct_ends_in_certificate_or_typed_refusal(r, x, share):
    """A well-formed request, with delta left to the planner or pinned in
    (0, r), yields an all_ok certificate or a typed error other than
    ParameterError and RemainderNonPositive (the plan's remainder lies in
    (0, delta]); an AssertionError fails the test."""
    options = {} if share is None else {"delta": r * Fraction(share, 100)}
    try:
        rep = construct_dense(r, x, **options)
    except DensefracError as err:
        assert not isinstance(err, (ParameterError, RemainderNonPositive)), err
    else:
        assert rep.certificate.all_ok


@st.composite
def _request(draw):
    """(r, x, options): r = a/b <= 3 with b <= 40, x in [10^2, 10^3],
    [10^3, 10^4] or [10^4, 10^5], and any of epsilon, k (up to 6), delta,
    y' and x' pinned, each now and then outside its domain."""
    b = draw(st.integers(1, 40))
    r = Fraction(draw(st.integers(1, 3 * b)), b)
    low = draw(st.sampled_from([10**2, 10**3, 10**4]))
    x = draw(st.integers(low, 10 * low))
    options = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "epsilon": st.floats(0.0, 0.5),
                "k": st.integers(1, 6),
                "delta": st.integers(0, 110).map(lambda s: r * Fraction(s, 100)),
                "y_prime": st.integers(2, 30),
                "x_prime": st.integers(0, x),
            },
        )
    )
    return r, x, options


def _invalid_options(r, options):
    """The pinned options outside their domains: delta in (0, r), epsilon
    in (0, 1/2), k >= 2, y' >= 4 and x' >= 1."""
    valid = {
        "delta": lambda v: 0 < v < r,
        "epsilon": lambda v: 0 < v < 0.5,
        "k": lambda v: v >= 2,
        "y_prime": lambda v: v >= 4,
        "x_prime": lambda v: v >= 1,
    }
    return {name for name, v in options.items() if not valid[name](v)}


@settings(max_examples=200, deadline=None)
@given(request=_request())
def test_every_option_ends_in_certificate_or_typed_refusal(request):
    """Over the whole option space a request yields an all_ok certificate
    or a typed refusal. A ParameterError names one of the invalid options,
    and only a request with one is refused so; no refusal is
    RemainderNonPositive. Pinned k up to 6 and thin ladders of pinned y'
    run elimination steps on capped and thin slices alike. Every certified
    plan has its bounds in order, y'' <= y' <= w <= y <= x, and its pool
    below the cutoff, x' <= lambda*x."""
    r, x, options = request
    invalid = _invalid_options(r, options)
    try:
        rep = construct_dense(r, x, **options)
    except DensefracError as err:
        assert not isinstance(err, RemainderNonPositive), err
        if isinstance(err, ParameterError):
            assert err.failing_parameter in invalid, err
    else:
        assert not invalid
        assert rep.certificate.all_ok
        plan = rep.plan
        assert plan.y_doubleprime <= plan.y_prime <= plan.w <= plan.y <= plan.x
        assert plan.x_prime <= plan.cutoff


@pytest.mark.parametrize(
    "r, x, options",
    [
        (Fraction(5, 3), 2969, {"delta": Fraction(1)}),
        (Fraction(29, 10), 6793, {"epsilon": 0.3, "k": 2, "delta": Fraction(203, 100)}),
    ],
)
def test_an_integer_stage_one_remainder_is_refused_on_delta(r, x, options):
    """A delta pin this large leaves stage one an integer remainder (1 and
    2), which stage two refuses as a malformed input: the request is valid,
    so it is refused as infeasible on delta, not as a usage error."""
    with pytest.raises(InfeasibleMass) as ei:
        construct_dense(r, x, **options)
    assert ei.value.failing_parameter == "delta"
    assert "is an integer" in str(ei.value)


def test_stage_trace_smoothing_monotonicity():
    """Primes leave the remainder's denominator from the top: after the step
    for prime p, every prime of the denominator is below p (the powers-of-two
    cleanup then leaves it odd). At x = 10^5 every stage-one slice that 1/3
    draws on holds at least p-1 members; 1/12 eliminates on thinner ones,
    and the document's trace counts them."""
    from densefrac.certificate import document_from_representation

    for r, thin in ((Fraction(1, 3), False), (Fraction(1, 12), True)):
        rep = construct_dense(r, 10**5)
        for step in rep.stage_one_trace.steps:
            den = step.remainder_after.denominator
            cert = step.divisor_certificate
            assert cert % den == 0
            if step.stage in ("p-loop", "q-loop"):
                f = factor_over(den, [q for q, _ in factorize(cert)])
                assert f.get(step.prime, 0) <= step.power - 1
                if step.power == 1:
                    assert max(f, default=1) < step.prime
        last = rep.stage_one_trace.steps[-1]
        assert last.remainder_after.denominator % 2 == 1
        counted = document_from_representation(rep).trace["stage_one"]
        assert counted["thin_eliminations"] == rep.stage_one_trace.thin_eliminations
        assert (counted["thin_eliminations"] > 0) == thin


@pytest.mark.parametrize("r", [Fraction(19, 21), Fraction(1)])
def test_retries_leave_no_construct_frame_in_cyclic_garbage(r):
    """A caught stage-two error kept in a local would tie its traceback to
    the frame holding it (and that frame's families and pools) until a full
    collection. 19/21 retries after BoundExceeded and 1 after
    EliminationFailed at x = 10^5; neither may leave such a cycle behind."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rep = construct_dense(r, 10**5)
        gc.collect()
        frames = [
            o.f_code.co_name
            for o in gc.garbage
            if isinstance(o, types.FrameType)
            and o.f_globals.get("__name__") == "densefrac.construct"
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert rep.certificate.all_ok
    assert frames == []


@pytest.mark.parametrize(
    "r, retried",
    [(Fraction(1), False), (Fraction(10, 11), True), (Fraction(19, 21), True)],
)
def test_one_sieve_per_construction(r, retried, monkeypatch):
    """Every family a construction uses is a view of the planning sieve,
    through delta retunes (all three at 10^5) and stage-two retries (10/11
    and 19/21); the stage-two pool is taken once per plan, outside stage
    two and the retune's target search, which read it as an argument. The
    sieve and the table arith.SMALL_PRIMES are the only sources of primes:
    construct, smooth and expand never sieve for primes (primes_in) and
    trial-divide (is_prime, largest_prime_factor, factorize) only once,
    factorize on r's denominator in planning. The kept planning sieve is
    cleared first, so the construction sieves."""
    import densefrac.arith as arith
    import densefrac.construct as construct
    import densefrac.expand as expand
    import densefrac.smooth as smooth
    import oracles

    construct._clear_planning_sieve()
    calls = []
    sieve = construct.build_family

    def counting(params):
        calls.append(params)
        return sieve(params)

    inside = []
    views_inside = []
    view = SmoothFamily.sub_family

    def marking(name):
        fn = getattr(construct, name)

        def run(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return run

    def counting_views(self, params):
        if inside:
            views_inside.append((inside[-1], params))
        return view(self, params)

    monkeypatch.setattr(construct, "build_family", counting)
    monkeypatch.setattr(construct, "stage_two", marking("stage_two"))
    monkeypatch.setattr(construct, "_alpha_targets", marking("_alpha_targets"))
    monkeypatch.setattr(SmoothFamily, "sub_family", counting_views)
    prime_calls = []

    def spying(name):
        fn = getattr(arith, name, None) or getattr(oracles, name)

        def run(*args):
            prime_calls.append((name, args))
            return fn(*args)

        return run

    # arith too, for a call through the module (arith.factorize); modular's
    # own is_prime, eliminate_prime's prime check, is left unspied
    for module in (construct, smooth, expand, arith):
        for name in ("primes_in", "is_prime", "largest_prime_factor", "factorize"):
            # raising=False: a module that does not import the name would
            # resolve a call to it here, so the spy sees it either way
            monkeypatch.setattr(module, name, spying(name), raising=False)
    rep = construct_dense(r, 10**5)
    assert rep.certificate.all_ok
    assert rep.config.delta != Fraction(1, 20)  # delta was retuned
    assert (rep.stage_two_attempts > 1) == retried
    assert len(calls) == 1
    assert views_inside == []
    assert prime_calls == [("factorize", (r.denominator,))]


def _spy_planning(monkeypatch):
    """Wrap construct.build_family and construct.reciprocal_sum. Records
    each sieve's params (sieves) and member count (sizes), whether the
    family of the sieve before it was still alive on entry (alive), and
    the element count (terms) and result (sums) of each mass-pass call: a
    call made inside construct._planning_sieve. A delta retune's target
    sums are made outside it, and are not mass passes."""
    import densefrac.construct as construct

    spy = types.SimpleNamespace(sieves=[], sizes=[], alive=[], terms=[], sums=[])
    refs = []
    sieve, plan, mass = (
        construct.build_family,
        construct._planning_sieve,
        construct.reciprocal_sum,
    )
    planning = []  # non-empty while _planning_sieve runs

    def building(params):
        spy.alive.append(bool(refs) and refs[-1]() is not None)
        spy.sieves.append(params)
        fam = sieve(params)
        refs.append(weakref.ref(fam))
        spy.sizes.append(fam.members.size)
        return fam

    def planning_sieve(*args):
        planning.append(args)
        try:
            return plan(*args)
        finally:
            planning.pop()

    def summing(elements, m):
        sums = mass(elements, m)
        if planning:
            spy.terms.append(len(elements))
            spy.sums.append(sums)
        return sums

    monkeypatch.setattr(construct, "build_family", building)
    monkeypatch.setattr(construct, "_planning_sieve", planning_sieve)
    monkeypatch.setattr(construct, "reciprocal_sum", summing)
    return spy


def _document(rep) -> str:
    from densefrac.certificate import document_from_representation

    return document_from_representation(rep).to_json()


def _cold_document(r, x, **options) -> str:
    """The document of r at x built from a cleared planning sieve."""
    import densefrac.construct as construct

    construct._clear_planning_sieve()
    return _document(construct_dense(r, x, **options))


def test_planning_sieve_is_kept_across_targets(monkeypatch):
    """1/3 and 1 at 10^5 plan over the same (x, y, w, k): after a clear,
    one sieve and one mass pass over its members serve both, and that pass
    sums the mass per group of _MASS_GROUP members."""
    import densefrac.construct as construct

    construct._clear_planning_sieve()
    spy = _spy_planning(monkeypatch)
    for r in (Fraction(1, 3), Fraction(1)):
        assert construct_dense(r, 10**5).certificate.all_ok
    assert len(spy.sieves) == 1
    assert spy.terms == spy.sizes
    assert len(spy.sums[0]) == -(-spy.sizes[0] // smooth._MASS_GROUP)


def test_one_sieve_serves_every_k_at_one_x(monkeypatch):
    """3/8 needs k = 4 between 1/3 and 1 (k = 3) at 10^5: the one sieve
    serves all three, and each (y, w, k) gets its own view and mass pass,
    kept for the next target at that key."""
    import densefrac.construct as construct

    construct._clear_planning_sieve()
    spy = _spy_planning(monkeypatch)
    for r in (Fraction(1, 3), Fraction(3, 8), Fraction(1)):
        assert construct_dense(r, 10**5).certificate.all_ok
    assert [params.k for params in spy.sieves] == [3]
    sieve, views = construct._planning
    assert list(views) == [(177, 31, 3), (177, 13, 4)]
    fam3, fam4 = (view[0] for view in views.values())
    assert fam3 is sieve and fam4.table[0] is sieve.table[0]
    assert spy.terms == [fam3.members.size, fam4.members.size]


def test_another_key_drops_the_kept_sieve_first(monkeypatch):
    """The sieve is kept by (x, y) and serves every smaller y: another x,
    even one with the same (y, w, k), or a larger y (a smaller epsilon)
    sieves anew, and a smaller y reads a view. Each family is dead by the
    time the next sieve starts: a miss never holds two sieves. Every
    document equals the one made from a cleared planning sieve."""
    import densefrac.construct as construct

    targets = [
        (Fraction(1, 3), 10**4, {}),
        (Fraction(1, 3), 10**5, {}),
        (Fraction(1, 2), 10**5, {"epsilon": 0.05}),  # y = 237 > 177
        (Fraction(1), 10**5, {}),  # a view at y = 177
        (Fraction(1, 3), 10**5 - 1, {}),  # y, w and k as at 10^5
    ]
    cold = [_cold_document(r, x, **options) for r, x, options in targets]
    construct._clear_planning_sieve()
    spy = _spy_planning(monkeypatch)
    warm = [_document(construct_dense(r, x, **options)) for r, x, options in targets]
    assert [(params.x, params.y) for params in spy.sieves] == [
        (10**4, 63),
        (10**5, 177),
        (10**5, 237),
        (10**5 - 1, 177),
    ]
    assert spy.alive == [False, False, False, False]
    assert [spy.terms[i] for i in (0, 1, 2, 4)] == spy.sizes
    assert len(spy.terms) == 5
    assert warm == cold


def test_planning_key_holds_k():
    """Keys that differ only in k, or in y below the sieve's, are views of
    one sieve, each with its own D(p0) and mass; the same key is the same
    view."""
    import densefrac.construct as construct

    construct._clear_planning_sieve()
    fam3 = construct._planning_sieve(10**4, 63, 10, 3)[0]
    fam4, d_p0, mass = construct._planning_sieve(10**4, 63, 10, 4)
    assert fam3.params.k == 3 and fam4.params.k == 4
    assert construct._planning_sieve(10**4, 63, 10, 4)[0] is fam4
    assert construct._planning_sieve(10**4, 63, 10, 3)[0] is fam3
    assert d_p0 == modulus_product(fam4.primes, 10, 4)
    assert mass == reciprocal_sum(fam4.members, d_p0)
    small, d_small, _ = construct._planning_sieve(10**4, 40, 10, 3)
    assert small.primes == fam3.primes[: len(small.primes)] and small.primes[-1] == 37
    assert d_small == modulus_product(small.primes, 10, 3)
    for fam in (fam4, small):
        assert fam.table[0] is fam3.table[0]


def test_kept_sieve_documents_match_cold_ones():
    """Every document made through the kept sieve, on a hit or a miss, is
    byte-identical to the one made from a cleared planning sieve."""
    import densefrac.construct as construct

    targets = [
        (Fraction(1, 2), {"epsilon": 0.05}),  # y = 237: the sieve
        (Fraction(1, 3), {}),  # y = 177: a view
        (Fraction(1), {}),  # hit
        (Fraction(1, 2), {"delta": Fraction(1, 40)}),  # hit
        (Fraction(3, 8), {}),  # k = 4: a new view
        (Fraction(5, 8), {"delta": Fraction(1, 30)}),  # hit
        (Fraction(1, 2), {}),  # hit
    ]
    construct._clear_planning_sieve()
    warm = [_document(construct_dense(r, 10**5, **opts)) for r, opts in targets]
    assert warm == [_cold_document(r, 10**5, **opts) for r, opts in targets]


def _elimination_failed(prime, multiples):
    return {
        "code": "elimination_failed",
        "message": f"no subset of {multiples} multiples reaches the residue "
        f"needed to cancel {prime}^2",
        "failing_parameter": "S",
        "suggestion": "enlarge S (lower lambda'), or switch x",
        "prime": prime,
        "power": 2,
    }


_NO_CUT = {
    "code": "breusch_precondition",
    "message": "stage two exhausted the pool without a viable cut",
    "failing_parameter": None,
    "suggestion": "increase x or delta",
}

# (r, x, options, stage_one calls, the refusal's as_dict()): one target per
# way out of the two retry loops, then pins of x' and y' that the plan cannot
# honour. A change meant to keep refusals as they are must keep these.
GOLDEN_REFUSALS = [
    # three retunes, then stage two's last cut fails
    ("23/26", 12578, {}, 4, _elimination_failed(7, 0)),
    # three retunes, then stage two has no cut to try
    ("3/2", 1342, {}, 4, _NO_CUT),
    # the retuned plan's _resolve_plan finds no y'
    ("1/4", 1022, {}, 1, {
        "code": "infeasible_mass",
        "message": "no stage-two bound y' admits a pool below lambda*x",
        "failing_parameter": "x",
        "suggestion": "increase x or delta, or decrease r",
    }),
    # no pool target yields a new delta in (0, r)
    ("10/33", 3132, {}, 1, _elimination_failed(7, 1)),
    # delta pinned, so no retune
    ("50/33", 8611, {"delta": Fraction(1, 30)}, 1, _NO_CUT),
    ("25/17", 22549, {"delta": Fraction(1, 30)}, 1, _elimination_failed(5, 1)),
    # x' pinned above lambda*x
    ("1/2", 533, {"x_prime": 50}, 0, {
        "code": "infeasible_mass",
        "message": "x'=50 exceeds lambda*x=44; stage-two pool would collide "
        "with the kept family",
        "failing_parameter": "x_prime",
        "suggestion": "lower x' or increase x",
    }),
    # y' pinned above min(w, 30, y)
    ("2/5", 1672, {"y_prime": 12}, 0, {
        "code": "infeasible_mass",
        "message": "y' override 12 outside [4, min(w, 30, y)] = [4, 9]",
        "failing_parameter": "y_prime",
        "suggestion": "lower y' or increase x",
    }),
    # y' pinned where min(w, 30, y) < 4 leaves no y' at all
    ("7/8", 451, {"y_prime": 4}, 0, {
        "code": "infeasible_mass",
        "message": "y' override 4 exceeds min(w, 30, y) = 3",
        "failing_parameter": "y_prime",
        "suggestion": "increase x",
    }),
]


@pytest.mark.parametrize(
    "r, x, options, calls, refusal",
    GOLDEN_REFUSALS,
    ids=[f"{r}-{x}" for r, x, *_ in GOLDEN_REFUSALS],
)
def test_refusals_are_pinned(r, x, options, calls, refusal, monkeypatch):
    """Each golden refusal ends in the same error after the same number of
    stage-one runs (one per delta tried)."""
    import densefrac.construct as construct

    runs = []
    run_stage_one = construct.stage_one

    def counting(*args):
        runs.append(args)
        return run_stage_one(*args)

    monkeypatch.setattr(construct, "stage_one", counting)
    with pytest.raises(DensefracError) as refused:
        construct_dense(Fraction(r), x, **options)
    assert (len(runs), refused.value.as_dict()) == (calls, refusal)


@pytest.mark.parametrize(
    "r, x, cuts", [(Fraction(1, 3), 10**4, 10), (Fraction(1, 3), 10**5, 164)]
)
def test_stage_two_attempts_are_capped(r, x, cuts, monkeypatch):
    """When every attempt fails, stage two tries min(MAX_STAGE_TWO_ATTEMPTS
    + 1, len(chosen)) cuts, each retried error type in turn, and raises the
    last attempt's error."""
    import densefrac.construct as construct

    config, plan, fam0, _ = _plan_full(r, x)
    fam_l = fam0.sub_family(SmoothParams(x, plan.y, plan.w, plan.cutoff, config.k))
    kept, alpha, _ = stage_one(config, plan, fam_l)
    y_p = plan.y_prime
    pool = fam0.sub_family(SmoothParams(plan.x_prime, y_p, y_p, 0, config.k))
    assert len(choose_lambda(pool.members_a0, alpha, plan.d_pool)[1]) == cuts
    attempts = []

    def failing(*args):
        attempts.append(args)
        error = construct._RETRIED[len(attempts) % len(construct._RETRIED)]
        raise error(f"attempt {len(attempts)}")

    monkeypatch.setattr(construct, "_stage_two_attempt", failing)
    want = min(MAX_STAGE_TWO_ATTEMPTS + 1, cuts)
    with pytest.raises(construct._RETRIED, match=f"^attempt {want}$"):
        stage_two(alpha, plan, pool, kept)
    assert len(attempts) == want


def test_representation_holds_no_sieve():
    """The plan and the representation hold no view of the sieve: nothing
    reachable from a Representation is a SmoothFamily or an array longer
    than x, so keeping a representation never keeps a sieve alive; only
    construct's one planning-sieve entry holds it between constructions."""
    x = 10**5
    rep = construct_dense(Fraction(1, 3), x)
    seen = set()
    stack = [rep]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        ):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, SmoothFamily)
        if isinstance(obj, np.ndarray):
            assert obj.size <= x
            if obj.base is not None:
                stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    assert {id(rep.a), id(rep.plan), id(rep.certificate)} <= seen


def _dropping_last(fn, part):
    """fn, except that the list at index part of its result loses its last
    element whenever it has one."""

    def lying(*args):
        out = list(fn(*args))
        if out[part]:
            out[part] = out[part][:-1]
        return tuple(out)

    return lying


def _eliminate_off_by_one_over_n(c_over_d, N, S, p, l):
    """eliminate_prime, except that its remainder is off by 1/N while its T
    is right."""
    T, rem = eliminate_prime(c_over_d, N, S, p, l)
    return T, rem + Fraction(1, N)


def _stage_two_reusing_a_kept_member(*args):
    result = stage_two(*args)
    kept = args[3]
    result.d1 = result.d1 + [int(kept[0])]
    return result


def _check_denying_the_sum(*args):
    return dataclasses.replace(check(*args), sum_exact=False)


@pytest.mark.parametrize(
    "name, liar, message",
    [
        ("eliminate_prime", _dropping_last(eliminate_prime, 0), "telescoping broke"),
        ("eliminate_prime", _eliminate_off_by_one_over_n, "telescoping broke"),
        ("four_set_repair", _dropping_last(four_set_repair, 1), "four-set identity broke"),
        ("stage_two", _stage_two_reusing_a_kept_member, "representation parts overlap"),
        ("check", _check_denying_the_sum, "final certificate failed"),
    ],
    ids=[
        "eliminate_prime",
        "eliminate_prime-remainder",
        "four_set_repair",
        "stage_two",
        "check",
    ],
)
def test_constructor_guard_fires_on_a_lying_layer(name, liar, message, monkeypatch):
    """Each run-time guard of the constructor catches the layer below it
    when that layer lies: an elimination that returns one member fewer than
    it added, one whose remainder is off by 1/N, a four-set repair that
    loses an element of C minus A', a stage two that reuses a stage-one
    member, and a final check that denies the exact sum."""
    import densefrac.construct as construct

    monkeypatch.setattr(construct, name, liar)
    with pytest.raises(AssertionError, match=message):
        construct_dense(Fraction(1, 3), 10**4)


def _plan_lacking(field, q):
    """_resolve_plan, except that the plan's modulus field lacks the prime q."""

    def lying(*args):
        plan = _resolve_plan(*args)
        d = getattr(plan, field)
        return dataclasses.replace(plan, **{field: d // q ** exact_multiplicity(d, q)})

    return lying


def _stage_one_gaining_a_prime_above_y_prime(config, plan, family):
    """stage_one, except that the remainder it returns gains 1/q for q the
    next prime above y'."""
    kept, rem, trace = stage_one(config, plan, family)
    return kept, rem + Fraction(1, _next_prime(plan.y_prime)), trace


@pytest.mark.parametrize(
    "name, liar, error, message",
    [
        ("_resolve_plan", _plan_lacking("d_p0", 3), DivisibilityError,
         r"^b = 3 does not divide D\(p0\)$"),
        ("_resolve_plan", _plan_lacking("d_pool", 3), AssertionError,
         r"^stage-one remainder denominator escapes D0\(y'\)$"),
        ("stage_one", _stage_one_gaining_a_prime_above_y_prime, DivisibilityError,
         r"^remainder denominator does not divide D0\(y'=10\)$"),
    ],
    ids=["d_p0-lacks-3", "d_pool-lacks-3", "remainder-gains-11"],
)
def test_modulus_guard_fires_on_a_lying_layer(name, liar, error, message, monkeypatch):
    """The checks of each stage against the plan's moduli catch a layer
    that lies: a plan whose D(p0) lacks a prime of b (stage one's entry), a
    plan whose D(p0') lacks a prime the stage-one remainder keeps (stage
    one's exit), and a stage one whose remainder gains a prime above y'
    (stage two's entry)."""
    import densefrac.construct as construct

    monkeypatch.setattr(construct, name, liar)
    with pytest.raises(error, match=message):
        construct_dense(Fraction(1, 3), 10**4)


def _eliminate_repeating_its_first_pick():
    """eliminate_prime, except that once it has picked a set T, each later
    step that picks returns that T again, with the remainder it implies."""
    first = []

    def lying(c_over_d, N, S, p, l):
        T, rem = eliminate_prime(c_over_d, N, S, p, l)
        if first and T:
            T = first[0]
            rem = c_over_d + sum(Fraction(1, n) for n in T)
        elif T:
            first.append(T)
        return T, rem

    return lying


def _eliminate_picking_nothing():
    """eliminate_prime, except that it returns c/d unchanged, as if the
    prime had been cancelled with no member."""
    return lambda c_over_d, N, S, p, l: ([], c_over_d)


@pytest.mark.parametrize(
    "liar, message",
    [
        (_eliminate_repeating_its_first_pick, "B-sets overlap"),
        (_eliminate_picking_nothing, "remainder escaped the divisor certificate"),
    ],
    ids=["repeated-pick", "nothing-picked"],
)
def test_elimination_step_guard_fires_on_a_lying_layer(liar, message, monkeypatch):
    """_eliminate_step's own guards catch an elimination that telescopes
    but lies: one that picks members an earlier step already took, and one
    that leaves p^l in the remainder's denominator."""
    import densefrac.construct as construct

    monkeypatch.setattr(construct, "eliminate_prime", liar())
    with pytest.raises(AssertionError, match=message):
        construct_dense(Fraction(1, 3), 10**4)


def test_elimination_step_refuses_a_certificate_without_the_prime():
    """Dividing p out of a divisor certificate that p does not divide is
    refused even where the floor quotient would still pass the escape
    check: 33 // 5 = 6 is a multiple of the remainder's denominator 3."""
    message = "^q-loop divisor certificate lacks the prime 5$"
    with pytest.raises(AssertionError, match=message):
        _eliminate_step(StageTrace(), "q-loop", set(), Fraction(1, 3), 33, [], 5, 1)


def test_every_elimination_is_handed_the_p_minus_1_largest_members(monkeypatch):
    """In all four loops (p-, q- and q'-loops and the powers-of-two cleanup)
    eliminate_prime receives exactly the min(|S|, p-1) largest members of
    the step's ascending slice S, and a step that succeeds counts as thin
    iff |S| < p-1. 1/12 and 1/2 at k = 4 reach thin slices and slices of
    exactly p-1 members; k = 4 eliminates q^3 as well."""
    import densefrac.construct as construct

    step, handed, seen = construct._eliminate_step, [], []

    def spy_step(trace, stage, removed, rem, n_mod, S, p, l):
        handed.clear()
        before, thin = trace.thin_eliminations, None
        try:
            out = step(trace, stage, removed, rem, n_mod, S, p, l)
            thin = trace.thin_eliminations - before
            return out
        finally:  # thin stays None when the elimination raised
            if handed:
                seen.append((stage, np.array(S), handed[0], p, l, thin))

    def spy_eliminate(c_over_d, N, S, p, l):
        handed.append(np.array(S))
        return eliminate_prime(c_over_d, N, S, p, l)

    monkeypatch.setattr(construct, "_eliminate_step", spy_step)
    monkeypatch.setattr(construct, "eliminate_prime", spy_eliminate)
    for r, options in (
        (Fraction(1, 3), {}),
        (Fraction(1, 12), {}),
        (Fraction(1, 2), {"k": 4}),
    ):
        construct_dense(r, 10**5, **options)

    kinds = set()
    for stage, whole, got, p, l, thin in seen:
        assert (whole[1:] > whole[:-1]).all()
        assert got.tolist() == whole[max(whole.size - (p - 1), 0) :].tolist()
        assert thin is None or thin == (whole.size < p - 1)
        kinds.add((stage, (whole.size > p - 1) - (whole.size < p - 1)))
    assert {stage for stage, _ in kinds} == {"p-loop", "q-loop", "2-cleanup", "q'-loop"}
    assert {size for _, size in kinds} == {-1, 0, 1}  # thin, p-1 and capped
    assert max(l for *_, l, _ in seen) == 3


def _next_prime(n):
    return next(q for q in itertools.count(n + 1) if is_prime(q))


_INTRUDERS = pytest.mark.parametrize(
    "intruder",
    [
        lambda params: 2 * _next_prime(params.y),
        lambda params: 2**params.k,
        lambda params: _next_prime(params.w) ** 2,
    ],
    ids=["not-y-smooth", "divisible-by-p^k", "square-of-a-prime-above-w"],
)


def _lying_sieve(intruder, admitted: list):
    """build_family, except that each family also holds intruder(params),
    an integer it must exclude; the intruders are appended to admitted.
    The intruder's table row, added or overwritten, records the facts of a
    member: its P(n) and multiplicity over the primes <= y, largest
    exponent 1 and no square factor."""

    def lying(params):
        fam = build_family(params)
        n = intruder(params)
        assert params.cutoff < n <= params.x and n not in fam.members
        admitted.append(n)
        row = int(np.searchsorted(fam.table[0], n))
        # P and its multiplicity as the sieve records them: over primes <= y
        top, mult = [(q, e) for q, e in factorize(n) if q <= params.y][-1]
        values = (n, top, mult, 1, 0)
        if row < fam.table[0].size and fam.table[0][row] == n:
            table = tuple(np.where(np.arange(col.size) == row, v, col)
                          for col, v in zip(fam.table, values))
        else:
            table = tuple(np.insert(col, row, v) for col, v in zip(fam.table, values))
        return SmoothFamily(params, table, fam.primes)

    return lying


@_INTRUDERS
def test_mass_pass_refuses_a_lying_sieve(intruder, monkeypatch):
    """A sieve that admits one integer its family must exclude is caught by
    the planning mass pass: the intruder does not divide D(p0), so
    reciprocal_sum's remainder proof raises before any plan is made. The
    kept planning sieve is cleared first, so the lying sieve runs."""
    import densefrac.construct as construct

    construct._clear_planning_sieve()
    admitted = []
    monkeypatch.setattr(construct, "build_family", _lying_sieve(intruder, admitted))
    with pytest.raises(DivisibilityError) as err:
        construct_dense(Fraction(1, 3), 10**4)
    assert str(err.value) == f"element {admitted[0]} does not divide the modulus"
    assert err.traceback[-1].name == "reciprocal_sum"


@_INTRUDERS
def test_a_refused_sieve_is_not_kept(intruder, monkeypatch):
    """After the lying sieve's DivisibilityError, an honest construction at
    the same (x, y, w, k) sieves anew and certifies, with the document of a
    construction from a cleared planning sieve."""
    import densefrac.construct as construct

    cold = _cold_document(Fraction(1, 3), 10**4)
    construct._clear_planning_sieve()
    with monkeypatch.context() as patched:
        patched.setattr(construct, "build_family", _lying_sieve(intruder, []))
        with pytest.raises(DivisibilityError):
            construct_dense(Fraction(1, 3), 10**4)
    spy = _spy_planning(monkeypatch)
    rep = construct_dense(Fraction(1, 3), 10**4)
    assert rep.certificate.all_ok
    assert len(spy.sieves) == 1
    assert _document(rep) == cold
