"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them live);
a failed assertion marks the criterion FAIL. The x = 10^7 end-to-end run
is included only when DENSEFRAC_ACCEPT_LARGE=1 (resource budget).
"""

import itertools
import math
import os
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from densefrac import dickman
from densefrac.construct import (
    construct_dense,
    four_set_repair,
    modulus_product,
)
from densefrac.expand import expand_odd
from densefrac.modular import _solve, eliminate_prime
from densefrac.smooth import SmoothParams, build_family, reciprocal_sum
from densefrac.verify import tree_sum
from oracles import primes_in, reciprocal_sum as oracle_sum, subset_sums_mod_p


def report(num, label, t0):
    print(f"[criterion {num}] PASS {label} ({time.time() - t0:.2f}s)")


def test_criterion_1_dickman_values():
    t0 = time.time()
    ev = dickman.RhoEvaluator()
    assert abs(ev.rho(2.0) - (1 - math.log(2))) < 1e-8
    assert abs(ev.rho(2.0) - 0.30685281944) < 1e-8
    for i in range(20):
        u = 1.0 + (i + 1) / 20.0
        assert abs(ev.rho(u) - (1 - math.log(u))) < 1e-8
    with mpmath.workdps(30):
        oracle = float(
            (1 - mpmath.log(2))
            - mpmath.quad(lambda t: (1 - mpmath.log(t - 1)) / t, [2, 3])
        )
    assert abs(oracle - 0.0486083883) < 1e-9
    assert abs(ev.rho(3.0) - 0.0486083883) < 1e-7
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.2f}s >= 1s"
    report(1, "rho(2), rho on [1,2], rho(3) vs quadrature oracle", t0)


def test_criterion_2_theorem_constant_relations():
    t0 = time.time()
    for i in range(1, 51):
        r = i / 10.0
        c = dickman.c_of_r(r)
        ub = dickman.density_upper_bound(r)
        assert c < ub
        assert c / ub > 1 - math.log(2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "C(r) < 1-e^-r and ratio > 1-log2 on r = 0.1..5.0", t0)


def test_criterion_3_subset_sum_oracle_equivalence():
    t0 = time.time()
    for p in (2, 3, 5, 7, 11, 13):
        for t in range(0, 7):
            for residues in itertools.combinations_with_replacement(
                range(1, p), t
            ):
                rs = list(residues)
                got = {
                    target
                    for target in range(p)
                    if _solve(rs, target, p, len(rs)) is not None
                }
                want = subset_sums_mod_p(rs, p)
                assert got == want, (p, rs)
                assert len(got) >= min(p, t + 1)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, "solver reaches what 2^t enumeration reaches, p <= 13, |multiset| <= 6", t0)


def test_criterion_4_eliminate_prime_property_suite():
    t0 = time.time()
    rng = random.Random(20240601)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    done = 0
    while done < 1000:
        p = rng.choice(primes)
        l = rng.randint(1, 2)
        others = [q for q in (2, 3, 5, 7, 11, 13) if q != p]
        rng.shuffle(others)
        others = others[:3]
        exps = {q: rng.randint(3, 4) for q in others}
        N = p**l * math.prod(q**e for q, e in exps.items())
        divisors = [1]
        for q, e in exps.items():
            divisors = [d * q**j for d in divisors for j in range(e + 1)]
        if len(divisors) < p - 1:
            continue
        rng.shuffle(divisors)
        S = [p**l * d for d in divisors[: p - 1 + rng.randint(0, 4)]]
        d = rng.choice(divisors) * p ** rng.randint(0, l)
        c = rng.randint(1, 60)
        value = Fraction(c, d)
        T, res = eliminate_prime(value, N, S, p, l)
        assert len(T) < p
        assert (N // p) % res.denominator == 0
        assert res == value + sum(Fraction(1, n) for n in T)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, "1000 randomized eliminations: |T| < p and d' | N/p", t0)


def test_criterion_5_sieve_ground_truth():
    t0 = time.time()
    x = 10**6
    fam = build_family(SmoothParams(x=x, y=x, w=x, lam=Fraction(0), k=2))
    # independent Mobius-sieve oracle
    root = math.isqrt(x)
    mu = np.ones(root + 1, dtype=np.int64)
    sieve = np.ones(root + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[2 * p :: p] = False
            mu[p::p] *= -1
            p2 = p * p
            if p2 <= root:
                mu[p2::p2] = 0
    oracle = sum(int(mu[d]) * (x // (d * d)) for d in range(1, root + 1))
    assert oracle == 607926
    assert fam.members.size == 607926
    # disjoint-union partition identity for y' in {10, 30}
    members = fam.members
    _, lpf, expo, _ = fam.table
    assert np.all(expo[members > 1] == 1)  # squarefree: every slice level is 1
    for y_prime in (10, 30):
        core = int(np.count_nonzero(lpf <= y_prime))
        rest = int(np.count_nonzero(lpf > y_prime))
        assert core + rest == fam.members.size
    # slice op agrees with the lpf grouping on sampled primes
    rng = random.Random(5)
    sample = rng.sample(primes_in(11, 997), 25) + [2, 3, 5, 7, 999983]
    for p in sample:
        want = set(int(v) for v in members[lpf == p])
        got = set(int(v) for v in fam.slice(p, 1))
        assert got == want, p
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(5, "census 607926 vs Mobius oracle; partition identity y'=10,30", t0)


def test_criterion_6_summation_cross_check(mid_family):
    t0 = time.time()
    rng = random.Random(606)
    members = [int(v) for v in mid_family.members]
    primes = primes_in(2, 180)
    plan_modulus = modulus_product(primes, mid_family.params.w, mid_family.params.k)
    for _ in range(100):
        sample = sorted(rng.sample(members, 1000))
        fixed = reciprocal_sum(sample, plan_modulus)
        pairwise = tree_sum(sample)
        assert fixed == pairwise
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(6, "fixed-denominator == balanced-tree on 100 x 1000 subsets", t0)


densities = {}


@pytest.mark.parametrize(
    "r", [Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)], ids=["r=1_3", "r=1_2", "r=1"]
)
def test_criterion_7_end_to_end_million(r):
    t0 = time.time()
    reps = {}
    for x in (10**5, 10**6):
        rep = construct_dense(r, x)
        cert = rep.certificate
        assert cert.sum_exact, f"sum not exact at x={x}"
        assert cert.distinct and cert.max_ok
        assert cert.harmonic_bound_ok, "H(x) - H(x-|S|) <= r failed"
        assert cert.density > Fraction(1, 50), f"density {cert.density} <= 0.02"
        reps[x] = rep
    assert reps[10**6].certificate.density >= reps[10**5].certificate.density, (
        "density trend decreased from 1e5 to 1e6"
    )
    densities[str(r)] = {x: float(reps[x].certificate.density) for x in reps}
    report(
        7,
        f"r={r}: exact, distinct, max<=x, density "
        f"{float(reps[10**6].certificate.density):.4f} > 0.02, trend up",
        t0,
    )


@pytest.mark.skipif(
    os.environ.get("DENSEFRAC_ACCEPT_LARGE") != "1",
    reason="x = 10^7 run enabled with DENSEFRAC_ACCEPT_LARGE=1",
)
def test_criterion_7_ten_million():
    t0 = time.time()
    rep = construct_dense(Fraction(1, 1), 10**7)
    cert = rep.certificate
    assert cert.sum_exact and cert.distinct and cert.max_ok
    assert cert.harmonic_bound_ok
    assert cert.density > Fraction(1, 50)
    report(7, f"r=1, x=1e7: density {float(cert.density):.4f}", t0)


def test_criterion_8_breusch_contract():
    t0 = time.time()
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        d = 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2) * 7 ** rng.randint(0, 2)
        if d < 9:
            continue
        cmax = (d - 1) // 7
        if cmax < 1:
            continue
        c = rng.randint(1, cmax)
        v = Fraction(c, d)
        if v * 7 >= 1:
            continue
        e = expand_odd(v)
        assert oracle_sum(e) == v
        assert all(t % 2 == 1 for t in e)
        assert len(set(e)) == len(e)
        assert max(e) <= 5 * math.lcm(v.denominator, 9 * 5 * 7)
        checked += 1
    # pipeline-realistic residuals: denominators divide D0 of the hand-off
    # moduli; terms stay under x^(2/3) for x = 10^6 via the sqrt(x) tier.
    x_tier = math.isqrt(10**6) - 1
    for c in range(1, 45):
        v = Fraction(c, 225)
        if v * 5 >= 1:
            break
        e = expand_odd(v, max_term=x_tier)
        assert oracle_sum(e) == v
        assert max(e) <= x_tier < 10**4
    for c in rng.sample(range(12, 2205), 30):
        v = Fraction(c, 11025)
        if v * 7 >= 1:
            continue
        e = expand_odd(v, max_term=x_tier)
        assert oracle_sum(e) == v
        assert max(e) < 10**4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, "odd expansions exact, bounded; residual terms < x^(2/3)", t0)


def test_criterion_9_disjointness_repair():
    t0 = time.time()
    rng = random.Random(909)
    pool = [
        n
        for n in range(3, 3000, 2)
        if all(m * m + m - 1 != n for m in range(1, math.isqrt(n) + 2))
    ]
    for _ in range(100):
        a = set(rng.sample(pool, rng.randint(2, 60)))
        c = set(rng.sample(pool, rng.randint(2, 25)))
        c.add(rng.choice(sorted(a)))  # force an overlap
        ap, cm, d1, d2 = four_set_repair(a, c)
        union = set()
        for part in (ap, cm, d1, d2):
            assert union.isdisjoint(part)
            union.update(part)
        assert tree_sum(sorted(a)) + tree_sum(sorted(c)) == sum(
            tree_sum(p) for p in (ap, cm, d1, d2)
        )
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(9, "100 synthetic overlaps: four disjoint sets, sum preserved", t0)
