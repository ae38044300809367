import gc
import math
import random
import types
from fractions import Fraction

import pytest

from densefrac import dickman
from densefrac.construct import (
    ConstructionConfig,
    StagePlan,
    construct_dense,
    four_set_repair,
    modulus_product,
    plan_parameters,
    stage_one,
    stage_two,
)
from densefrac.errors import (
    InfeasibleMass,
    ParameterError,
    RemainderNonPositive,
    UnsupportedDenominator,
)
from densefrac.smooth import SmoothParams, build_family, reciprocal_sum
from densefrac.verify import tree_sum


def test_modulus_product_examples():
    d = modulus_product(7, 10, 3)
    assert d.value == 900
    assert d.factors == ((2, 2), (3, 2), (5, 2))
    assert d.odd_part().value == 225
    assert modulus_product(2, 10, 3).value == 1
    # primes above w enter to the first power
    d = modulus_product(12, 3, 3)
    assert d.value == 4 * 9 * 5 * 7 * 11


def _toy_plan(r):
    # the toy family {1,2,3,5,6,10,15,30} carries reciprocal mass 12/5
    return StagePlan(
        x=30,
        y=5,
        w=5,
        lam=Fraction(0),
        cutoff=0,
        initial_remainder=Fraction(r) - Fraction(12, 5),
        y_prime=3,
        x_prime=10,
        y_doubleprime=2,
        p0=7,
        p_primes=[],
        q_primes=[5, 3],
        q2_primes=[],
    )


def _toy_config(r):
    return ConstructionConfig(
        r=Fraction(r),
        x=30,
        eta=0.01,
        k=2,
        epsilon=0.1,
        delta=Fraction(1, 10),
        lambda_mode="adaptive",
        elimination_mode="strict",
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
        assert step.divisor_certificate.value % step.remainder_after.denominator == 0
    # processed primes descending with matching slices
    assert [s.prime for s in trace.steps] == [5, 3, 2]
    assert trace.steps[0].removed == (15,)
    assert trace.steps[0].remainder_after == Fraction(1, 6)
    assert trace.steps[1].removed == (3,)
    assert trace.steps[1].remainder_after == Fraction(1, 2)
    assert trace.steps[2].removed == (2,)


def test_stage_one_rejects_nonpositive_remainder(toy_family):
    with pytest.raises(RemainderNonPositive):
        stage_one(_toy_config(Fraction(5, 6)), _toy_plan(Fraction(5, 6)), toy_family)


def test_plan_formula_lambda():
    config, plan = plan_parameters(
        1, 0.01, 10**6, k=3, epsilon=0.1, delta=Fraction(1, 20), lambda_mode="formula"
    )
    lam_expected = math.exp(
        -float(Fraction(19, 20)) * dickman.zeta(3) / dickman.rho(2.0 / 0.9)
    )
    assert abs(float(plan.lam) - lam_expected) <= 2.0 / 10**6
    assert config.k == 3


def test_plan_adaptive_window():
    """The plan's stored remainder is r minus the mass of a freshly sieved
    lambda-family, in both lambda modes; the adaptive cutoff is the largest
    element boundary leaving a remainder in (0, delta]."""
    r = Fraction(1, 2)
    for mode in ("adaptive", "formula"):
        config, plan = plan_parameters(r, 0.01, 10**5, lambda_mode=mode)
        fam = build_family(
            SmoothParams(x=10**5, y=plan.y, w=plan.w, lam=plan.lam, k=config.k)
        )
        rem = r - reciprocal_sum(
            fam.members, modulus_product(plan.p0, plan.w, config.k)
        )
        assert plan.initial_remainder == rem
        if mode == "adaptive":
            assert 0 < rem <= config.delta
            # the smallest member above the cutoff could not also be given up
            assert rem + Fraction(1, int(fam.members[0])) > config.delta


def test_plan_unsupported_denominator():
    with pytest.raises(UnsupportedDenominator):
        plan_parameters(Fraction(1, 2**20), 0.01, 10**6, k=3)


def test_plan_infeasible_mass():
    with pytest.raises(InfeasibleMass) as ei:
        plan_parameters(10, 0.01, 1000)
    assert ei.value.exit_code == 2


def test_plan_bounds_invariants():
    config, plan = plan_parameters(Fraction(1, 3), 0.01, 10**5)
    assert plan.y_doubleprime <= plan.y_prime <= plan.w <= plan.y <= plan.x
    assert plan.x_prime <= plan.cutoff
    assert plan.p_primes == sorted(plan.p_primes, reverse=True)
    assert all(plan.w < p <= plan.y for p in plan.p_primes)
    assert all(plan.y_prime <= q <= plan.w for q in plan.q_primes)


def test_stage_two_empty_loop_expansion():
    """With no q'-loop primes, stage two is choose-cut plus odd expansion."""
    config = ConstructionConfig(
        r=Fraction(1, 2),
        x=10**5,
        eta=0.01,
        k=2,
        epsilon=0.1,
        delta=Fraction(1, 20),
        lambda_mode="adaptive",
        elimination_mode="strict",
    )
    plan = StagePlan(
        x=10**5,
        y=300,
        w=20,
        lam=Fraction(5000, 10**5),
        cutoff=5000,
        initial_remainder=Fraction(1, 20),
        y_prime=6,
        x_prime=100,
        y_doubleprime=6,
        p0=307,
        p_primes=[],
        q_primes=[],
        q2_primes=[],
    )
    family = build_family(SmoothParams(x=10**5, y=300, w=20, lam=Fraction(0), k=2))
    res = stage_two(Fraction(2, 15), plan, config, family)
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
    config = _toy_config(Fraction(5, 2))
    with pytest.raises(ParameterError):
        stage_two(Fraction(2, 1), _toy_plan(Fraction(5, 2)), config, toy_family)


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
    assert rep.density > Fraction(1, 50)
    denoms = rep.denominators()
    assert len(denoms) == rep.size
    assert int(denoms[-1]) <= 10**5
    # parts pairwise disjoint and consistent with the union
    parts = rep.parts()
    union = set()
    for vals in parts.values():
        vs = {int(v) for v in vals}
        assert union.isdisjoint(vs)
        union |= vs
    assert len(union) == rep.size
    # stage-two elements all at or below lambda*x; stage-one all above
    assert all(int(v) > rep.plan.cutoff for v in rep.a)
    small = [int(v) for v in rep.a_prime] + [int(v) for v in rep.c_minus_a_prime]
    assert all(v <= rep.plan.cutoff for v in small)


def test_construct_dense_deterministic():
    from densefrac.certificate import document_from_representation

    a = document_from_representation(construct_dense(Fraction(1, 3), 10**5)).to_json()
    b = document_from_representation(construct_dense(Fraction(1, 3), 10**5)).to_json()
    assert a == b


def test_construct_dense_infeasible():
    with pytest.raises(InfeasibleMass):
        construct_dense(10, 1000)


def test_construct_error_carries_parameter():
    try:
        construct_dense(10, 1000)
    except InfeasibleMass as err:
        assert err.failing_parameter == "x"
        assert err.suggestion


def test_stage_trace_smoothing_monotonicity():
    """Primes leave the remainder's denominator from the top: after the step
    for prime p, every prime of the denominator is below p (the powers-of-two
    cleanup then leaves it odd)."""
    from densefrac.modular import factored_divisor

    rep = construct_dense(Fraction(1, 3), 10**5)
    for step in rep.stage_one_trace.steps:
        den = step.remainder_after.denominator
        cert = step.divisor_certificate
        assert cert.value % den == 0
        if step.stage in ("p-loop", "q-loop"):
            f = factored_divisor(den, cert)
            assert f.multiplicity(step.prime) <= step.power - 1
            if step.power == 1:
                assert f.largest_prime() < step.prime
    last = rep.stage_one_trace.steps[-1]
    assert last.remainder_after.denominator % 2 == 1


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
    and 19/21)."""
    import densefrac.construct as construct

    calls = []
    sieve = construct.build_family

    def counting(params):
        calls.append(params)
        return sieve(params)

    monkeypatch.setattr(construct, "build_family", counting)
    rep = construct_dense(r, 10**5)
    assert rep.certificate.all_ok
    assert rep.config.delta != Fraction(1, 20)  # delta was retuned
    assert (rep.stage_two_attempts > 1) == retried
    assert len(calls) == 1
