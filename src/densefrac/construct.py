"""The two-stage dense Egyptian-fraction construction.

Stage one subtracts from r the reciprocals of a sieved family of smooth,
k-free integers in (lambda*x, x], then cancels every denominator prime
down to y' by adding back reciprocals of a few family members per prime
power (descending primes; within a prime, powers k-1 down to 1), and
finally clears the powers of two the same way, from members exactly
divisible by 2^l with a y'-smooth odd part. The remainder's denominator
then divides the odd modulus D0(y').

Stage two repeats the scheme inside (lambda'*x', x'] using odd members
only, hands the tiny residual to the odd expander, and repairs any overlap
between the expansion and the kept set through the splitting identity
1/n = 1/(n+1) + 1/(n(n+1)), whose two new denominators are even and
therefore disjoint from everything odd; the not-m^2+m-1 membership rule
makes the two repair sets disjoint from each other.

Planning sieves [1, x] once and fixes every stage input: the cutoff, the
bounds y' and x', and the moduli D(p0) and D(p0'), the products over the
primes <= y and <= y' (the odd part of D(p0') is D0(y')), kept as plain
ints. The moduli, the y' candidates and both stages' prime loops read the
sieve's prime list (SmoothFamily.primes); the bound y'' and the exit
prime, which may lie above y, and the odd expander read the table
arith.SMALL_PRIMES, so no prime is found anew; r's denominator alone is
trial-divided (arith.factorize). The family's exact mass is summed once,
per group of _MASS_GROUP members, and the cutoff and stage-one remainder
take the members below the cutoff off it with smooth.mass_prefix, whole
groups first, the walk that also sets stage two's cut (choose_lambda).
The sieve depends on r only through (x, y), and D(p0) and that mass
through (x, y, w, k), so the module keeps one entry: the sieve of one x,
which serves every y up to its own and every w and k, and per (y, w, k)
the family as a view of it, with its D(p0) and mass. A construction at the
same x and a y the sieve covers reads them, making a new view and mass
pass for a new (y, w, k); another x or a larger y drops the entry before it
sieves. A sieve is stored only once its first mass pass has succeeded, and
a view only once its own has. The candidates for y' are judged on slice
sizes that one census of the planning family's members table counts per
range (SmoothFamily.census); no slice is built to be measured. Per plan,
construct_dense takes the stage-one family and the stage-two pool as views
of the sieve and passes each stage the view it reads as an argument; the
plan holds no view, so no view outlives the construction. The sieve and
the planning views outlive it in the entry, which is safe to share because
a family's arrays are read-only.

Every step divides one prime out of its divisor certificate (an int that p
must divide) and re-verifies that certificate and the exact telescoping;
nothing is trusted from asymptotics. Where the source analysis needs "x
sufficiently large" (notably the sub-y' prime ladders, which are log-thin
at desk scale), the planner substitutes runtime-checked parameter policy:
y' is lowered until slice censuses support the eliminations, and the
stage-two descending prime loop exits early once the residual already
satisfies the odd-expansion precondition within the size budget. Two
bounded retries cover the rest: stage two shifts its cut up one element at
a time, and construct_dense retunes delta (unless the caller pinned it)
from the measured stage-one remainder. Both catch the same typed stage
errors (_RETRIED) and re-raise the last one when their cap is reached.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import SMALL_PRIMES, TRIAL_BOUND, exact_multiplicity, factorize
from .errors import (
    BoundExceeded,
    BreuschPreconditionFailed,
    DivisibilityError,
    EliminationFailed,
    InfeasibleMass,
    ParameterError,
    RemainderNonPositive,
    UnsupportedDenominator,
)
from .expand import _factor, breusch_bound, expand_odd
from .modular import eliminate_prime
from .smooth import (
    _MASS_GROUP,
    SmoothFamily,
    SmoothParams,
    build_family,
    choose_lambda,
    mass_prefix,
    reciprocal_sum,
)
from .verify import Certificate, check

MAX_STAGE_TWO_ATTEMPTS = 48
MAX_DELTA_RETUNES = 3
MAX_K = 64
# The stage errors after which stage two shifts its cut and construct_dense
# retunes delta; any other error ends the construction at once.
_RETRIED = (EliminationFailed, BreuschPreconditionFailed, BoundExceeded)
# The planning sieve: (family, {(y, w, k): (view, D(p0), mass)}), or None.
_planning = None


@dataclass(frozen=True)
class ConstructionConfig:
    """Resolved run parameters; b = r.denominator is k-free with P(b) <= w."""

    r: Fraction
    x: int
    k: int
    epsilon: float
    delta: Fraction
    y_prime_override: Optional[int] = None
    x_prime_override: Optional[int] = None


@dataclass
class StagePlan:
    """Derived bounds and moduli; each stage reads its primes between them."""

    x: int
    y: int
    w: int
    lam: Fraction
    cutoff: int
    initial_remainder: Fraction  # r minus the family's mass above the cutoff
    y_prime: int
    x_prime: int
    y_doubleprime: int
    d_p0: int  # D(p0), over the primes <= y
    d_pool: int  # D(p0'), over the primes <= y'; odd part D0(y')
    warnings: list = field(default_factory=list)

    def validate(self):
        if not (self.y_doubleprime <= self.y_prime <= self.w <= self.y <= self.x):
            raise ParameterError(
                f"plan bounds out of order: y''={self.y_doubleprime} "
                f"y'={self.y_prime} w={self.w} y={self.y} x={self.x}"
            )
        if self.x_prime > self.cutoff:  # only a pinned x' can get here
            raise InfeasibleMass(
                f"x'={self.x_prime} exceeds lambda*x={self.cutoff}; stage-two "
                "pool would collide with the kept family",
                failing_parameter="x_prime",
                suggestion="lower x' or increase x",
            )


@dataclass(frozen=True)
class StageStep:
    stage: str
    prime: int
    power: int
    removed: tuple
    remainder_after: Fraction
    divisor_certificate: int


@dataclass
class StageTrace:
    steps: list = field(default_factory=list)
    # Eliminations run on a slice S with |S| < p-1, where the subset-sum
    # solver has no success guarantee.
    thin_eliminations: int = 0

    def record(self, stage, prime, power, removed, remainder, modulus):
        self.steps.append(
            StageStep(stage, prime, power, tuple(removed), remainder, modulus)
        )

    @property
    def removed_total(self) -> int:
        return sum(len(s.removed) for s in self.steps)


@dataclass
class StageTwoResult:
    a_prime: list
    c_terms: list
    c_minus: list
    d1: list
    d2: list
    lam_prime: Fraction
    trace: StageTrace
    early_exit_prime: Optional[int]
    attempts: int = 1


@dataclass
class Representation:
    """Final denominator set, partitioned, with its verification certificate.

    Each value has one owner: r and x are the config's, the stage-two parts,
    cut and trace are the StageTwoResult's, size and density are the
    certificate's. No field reaches the sieve or any view of it.
    """

    config: ConstructionConfig
    plan: StagePlan
    a: np.ndarray  # the stage-one set, ascending
    stage_two: StageTwoResult
    certificate: Certificate
    stage_one_trace: StageTrace

    @property
    def stage_two_attempts(self) -> int:
        return self.stage_two.attempts

    def denominators(self) -> np.ndarray:
        parts = [np.asarray(p, dtype=np.int64) for p in self.parts().values()]
        return np.sort(np.concatenate(parts))

    def parts(self) -> dict:
        """The five pairwise disjoint parts, keyed as in the certificate
        document: A (stage one, ascending array), and the stage-two lists
        A_prime, C_minus_A_prime (C without A'), D1 and D2 (the splitting
        repair n+1 and n(n+1) of each n in both A' and C)."""
        s2 = self.stage_two
        return {
            "A": self.a,
            "A_prime": s2.a_prime,
            "C_minus_A_prime": s2.c_minus,
            "D1": s2.d1,
            "D2": s2.d2,
        }


def modulus_product(primes: list, w: int, k: int) -> int:
    """prod_{p<=w} p^(k-1) * prod_{p>w} p over the primes given: D(z) over
    the primes below z (1 for none); its odd part is D0(z)."""
    return math.prod(p ** (k - 1) if p <= w else p for p in primes)


def _between(primes: list, lo: int, hi: int) -> list:
    """The primes lo <= p <= hi of the ascending list primes, descending."""
    return primes[bisect_left(primes, lo) : bisect_right(primes, hi)][::-1]


def _spec_y_doubleprime(x: int, k: int) -> int:
    """Largest bound with prod_{p <= y''} p^k <= x^(2/3) (exact compare)."""
    prod = 1
    last = 1
    for p in SMALL_PRIMES:  # y'' may lie above y
        cand = prod * p**k
        if cand**3 > x * x:
            break
        prod = cand
        last = p
    return max(last, 2)


def _planning_sieve(x: int, y: int, w: int, k: int):
    """(A(x, y; w, 0), D(p0), the sums of D(p0) // n over its members per
    group of _MASS_GROUP), from the module's entry: one sieve of [1, x] and,
    per (y, w, k) asked of it, that family as a view with its D(p0) and
    mass. The sieve serves every y up to its own; another x or a larger y
    drops the entry before it sieves, so two sieves are never held at once.
    A sieve is stored only after its first mass pass, and a view only after
    its own, so a refused family is never kept."""
    global _planning
    params = SmoothParams(x=x, y=y, w=w, lam=Fraction(0), k=k)
    key = (y, w, k)
    if _planning is None or _planning[0].params.x != x or _planning[0].params.y < y:
        _planning = None
        sieve = fam0 = build_family(params)
        views = {}
    else:
        sieve, views = _planning
        if key in views:
            return views[key]
        fam0 = sieve.sub_family(params)
    d_p0 = modulus_product(fam0.primes, w, k)  # no prime lies in (y, p0)
    mass = reciprocal_sum(fam0.members, d_p0, _MASS_GROUP)
    views[key] = fam0, d_p0, mass
    _planning = sieve, views
    return fam0, d_p0, mass


def _clear_planning_sieve() -> None:
    """Drop the kept planning sieve; the next construction sieves anew."""
    global _planning
    _planning = None


def _resolve_cutoff(fam0: SmoothFamily, m: int, mass: tuple, r, delta):
    """(cutoff, r - sum_{n > cutoff} 1/n) over the members of fam0: the
    largest element-boundary cutoff with remainder in (0, delta].

    mass holds the sums of m // n (m the modulus) over the members, per
    group of _MASS_GROUP. The walk (mass_prefix) goes upward taking mass
    off the total and stops before the mass above would drop below
    r - delta. So delta alone sets the cutoff: pinning it to a remainder
    that some cutoff leaves reaches that cutoff's family.
    """
    total = sum(mass)
    dn = r - delta
    floor = -(-dn.numerator * m // dn.denominator)  # ceil(dn * m)
    if total < floor:
        raise InfeasibleMass(
            f"family mass sum falls short of r - delta = {dn}",
            failing_parameter="x",
            suggestion="increase x or delta, or decrease r",
        )
    # (total - below) / m < r - delta  <=>  below >= total - floor + 1
    members = fam0.members
    taken, below = mass_prefix(members, m, mass, _MASS_GROUP, total - floor + 1)
    num = total - below
    if num * r.denominator >= r.numerator * m:  # remainder not positive
        raise InfeasibleMass(
            "no cutoff leaves a remainder in (0, delta]",
            failing_parameter="delta",
            suggestion="increase delta or x",
        )
    cutoff = int(members[taken - 1]) if taken else 0
    return cutoff, r - Fraction(num, m)


def _ladder_threshold(q: int) -> int:
    """Slice size regarded as ample for a mod-q subset sum below the
    |S| >= q-1 guarantee."""
    return min(q - 1, max(6, q.bit_length() + 3))


def _exit_prime(cutoff: int, k: int) -> int:
    """Largest prime q_e whose worst residual denominator (dividing D0(q_e))
    still odd-expands within the term budget: primes >= q_e must be
    eliminated in stage two, primes below are left to the expander."""
    best = 3
    worst = 5 * 3 ** max(k - 1, 2)
    if worst > cutoff:
        return best
    for q in SMALL_PRIMES[2:]:  # the exit prime may lie above y
        if worst > cutoff:
            break
        best = q
        worst *= q ** (k - 1)
    return best


def _x_prime(y_p: int, k: int, cutoff: int, override: Optional[int]) -> int:
    """The stage-two bound x': the override, else min(y'^(2k), lambda*x / 2)."""
    return min(y_p ** (2 * k), cutoff // 2) if override is None else override


def _select_y_prime(
    fam0: SmoothFamily,
    cutoff: int,
    override: Optional[int],
    x_prime_override: Optional[int],
):
    """Largest non-prime y' in [6, min(w, 30)] such that (a) every stage-one
    q-loop slice holds |S| >= q-1 members above the current cutoff and
    (b) every stage-two ladder that the early Breusch hand-off cannot absorb
    is thick enough for the subset-sum heuristic. Falls back to the least
    deficient candidate with a warning.

    Candidates read sizes off censuses of the planning family: one over
    (cutoff, x] for the stage-one slices and powers-of-two stocks, one over
    A0 in (0, x'] per distinct x' for the pool A(x', y'; y', 0)'s ladders.
    A pinned y' below 4 is malformed (ParameterError); one above
    min(w, 30, y) is a request this x cannot honour (InfeasibleMass)."""
    k = fam0.params.k
    top = min(fam0.params.w, 30, fam0.params.y)
    primes = fam0.primes[: bisect_right(fam0.primes, fam0.params.w)]
    if override is not None:
        y_p = override
        if y_p < 4 or y_p > top:
            message = f"y' override {y_p} outside [4, min(w, 30, y)] = [4, {top}]"
            if y_p < 4:
                raise ParameterError(message, failing_parameter="y_prime")
            suggestion = "lower y' or increase x"
            if top < 4:  # no y' at all fits below this x
                message = f"y' override {y_p} exceeds min(w, 30, y) = {top}"
                suggestion = "increase x"
            raise InfeasibleMass(
                message, failing_parameter="y_prime", suggestion=suggestion
            )
        while y_p in primes:
            y_p -= 1
        return max(y_p, 4), []
    if top < 6:
        raise InfeasibleMass(
            f"w = {fam0.params.w} leaves no room for a stage-two bound y' >= 6",
            failing_parameter="x",
            suggestion="increase x",
        )
    candidates = [v for v in range(top, 5, -1) if v not in primes]
    q_e = _exit_prime(cutoff, k)
    slices, pow2 = fam0.census(cutoff, fam0.params.x)
    # per prime q, the levels l < k that are thin: in stage one (|S| < q-1)
    # and, per x', in the stage-two ladders (|S| < _ladder_threshold(q))
    thin_one = (slices[primes, 1:] < np.array(primes)[:, None] - 1).sum(axis=1)
    ample = np.array([[_ladder_threshold(q)] for q in primes])
    thin_ladders = {}
    best = best_score = None
    for y_p in candidates:
        # The powers-of-two cleanup needs one exactly divisible element with
        # a y'-smooth odd part per level; an empty stock is a hard veto.
        if not pow2[1:, y_p].all():
            continue
        x_p = _x_prime(y_p, k, cutoff, x_prime_override)
        if x_p < y_p:
            continue
        if x_p > cutoff:  # plan.validate() rejects this x' whatever y' is
            return y_p, []
        if x_p not in thin_ladders:
            ladders = fam0.census(0, x_p, a0=True)[0][primes, 1:]
            thin_ladders[x_p] = (ladders < ample).sum(axis=1)
        i = bisect_left(primes, y_p)  # stage one: [y', w]; ladders: [q_e, y')
        deficit1 = int(thin_one[i:].sum())
        deficit2 = int(thin_ladders[x_p][bisect_left(primes, q_e) : i].sum())
        if not deficit1 and not deficit2:
            return y_p, []
        score = (deficit1, deficit2)
        if best_score is None or score < best_score:
            best, best_score = y_p, score
    if best is None:
        raise InfeasibleMass(
            "no stage-two bound y' admits a pool below lambda*x",
            failing_parameter="x",
            suggestion="increase x or delta, or decrease r",
        )
    warnings = [
        f"every y' candidate leaves thin slices (best {best}, deficits "
        f"{best_score}); relying on opportunistic eliminations"
    ]
    return best, warnings


def _plan_full(
    r,
    x: int,
    *,
    k: Optional[int] = None,
    epsilon: float = 0.1,
    delta=None,
    y_prime: Optional[int] = None,
    x_prime: Optional[int] = None,
):
    """(config, plan, planning family, its sums of D(p0) // n per group)."""
    r = Fraction(r)
    if r <= 0:
        raise ParameterError(f"r must be positive, got {r}", failing_parameter="r")
    x = int(x)
    if x < 3:
        raise ParameterError(f"x must be >= 3, got {x}", failing_parameter="x")
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(
            f"epsilon must be in (0, 1/2), got {epsilon}", failing_parameter="epsilon"
        )
    if x_prime is not None:
        x_prime = int(x_prime)
        if x_prime < 1:
            raise ParameterError(
                f"x' must be >= 1, got {x_prime}", failing_parameter="x_prime"
            )

    b = r.denominator
    b_factors = factorize(b)
    y = max(2, int(x ** ((1.0 - epsilon) / 2.0)))
    if b_factors is None:
        raise UnsupportedDenominator(
            f"P({b}) > {TRIAL_BOUND} exceeds y = {y}",
            failing_parameter="r",
            suggestion="use a denominator with smaller prime factors",
        )
    b_maxexp = max((e for _, e in b_factors), default=0)
    if k is None:
        k_res = max(3, b_maxexp + 1)
        if k_res > MAX_K:
            raise UnsupportedDenominator(
                f"denominator {b} needs k > {MAX_K}",
                failing_parameter="r",
                suggestion="use a k-free denominator",
            )
    else:
        k_res = int(k)
        if k_res < 2:
            raise ParameterError(f"k must be >= 2, got {k_res}", failing_parameter="k")
        if b_maxexp >= k_res:
            raise UnsupportedDenominator(
                f"denominator {b} is not {k_res}-free",
                failing_parameter="k",
                suggestion=f"raise k above {b_maxexp}",
            )

    w = min(max(2, int(x ** ((1.0 - epsilon) / k_res))), y)
    p_b = b_factors[-1][0] if b_factors else 1
    if p_b > w:
        raise UnsupportedDenominator(
            f"P({b}) = {p_b} exceeds w = {w}",
            failing_parameter="r",
            suggestion="increase x or decrease epsilon",
        )

    if delta is None:
        delta = min(Fraction(r, 4), Fraction(1, 20))
    delta = Fraction(delta)
    if not (0 < delta < r):
        raise ParameterError(
            f"delta must lie in (0, r), got {delta}", failing_parameter="delta"
        )

    fam0, d_p0, mass = _planning_sieve(x, y, w, k_res)
    total = Fraction(sum(mass), d_p0)
    if total < r:
        raise InfeasibleMass(
            f"family reciprocal mass {float(total):.6f} < r = {r}",
            failing_parameter="x",
            suggestion="increase x or decrease r",
        )

    config = ConstructionConfig(
        r=r,
        x=x,
        k=k_res,
        epsilon=epsilon,
        delta=delta,
        y_prime_override=y_prime,
        x_prime_override=x_prime,
    )
    plan = _resolve_plan(config, fam0, d_p0, mass)
    return config, plan, fam0, mass


def _resolve_plan(
    config: ConstructionConfig,
    fam0: SmoothFamily,
    d_p0: int,
    mass: tuple,
) -> StagePlan:
    """Turn a config into a full plan."""
    x, k = config.x, config.k
    cutoff, rem0 = _resolve_cutoff(fam0, d_p0, mass, config.r, config.delta)
    lam = Fraction(cutoff, x)

    y_p, warnings = _select_y_prime(
        fam0, cutoff, config.y_prime_override, config.x_prime_override
    )
    x_p = _x_prime(y_p, k, cutoff, config.x_prime_override)
    if x_p < y_p:
        raise InfeasibleMass(
            f"stage-two bound x' = {x_p} below y' = {y_p}: lambda*x = {cutoff} "
            "leaves no room for the small-denominator stage",
            failing_parameter="x",
            suggestion="increase x or delta, or decrease r",
        )
    y, w = fam0.params.y, fam0.params.w
    y_pp = min(_spec_y_doubleprime(x, k), y_p)
    plan = StagePlan(
        x=x,
        y=y,
        w=w,
        lam=lam,
        cutoff=cutoff,
        initial_remainder=rem0,
        y_prime=y_p,
        x_prime=x_p,
        y_doubleprime=y_pp,
        d_p0=d_p0,
        d_pool=modulus_product(fam0.primes[: bisect_right(fam0.primes, y_p)], y_p, k),
        warnings=warnings,
    )
    plan.validate()
    return plan


def _sum_recips(elements) -> Fraction:
    """The sum of 1/n over the elements' lcm: the telescoping and four-set
    assertions' cross-check, on a path apart from reciprocal_sum."""
    elements = [int(n) for n in elements]
    lcm = math.lcm(*elements)
    return Fraction(sum(lcm // n for n in elements), lcm)


def _eliminate_step(trace, stage, removed, rem, n_mod, S, p, l):
    """One elimination step of stage one (the p- and q-loops and the
    powers-of-two cleanup) or of stage two's q'-loop: when p^l divides the
    remainder's denominator, add back members of the slice S that cancel it;
    then divide one p out of the divisor certificate n_mod.

    Records the step in trace (counting it as thin when |S| < p-1), adds the
    members taken to the set removed and returns (remainder, certificate).
    """
    t_set = ()
    if exact_multiplicity(rem.denominator, p) >= l:
        before = rem
        t_set, rem = eliminate_prime(before, n_mod, S, p, l)
        if len(S) < p - 1:
            trace.thin_eliminations += 1
        if rem - before != _sum_recips(t_set):
            raise AssertionError(f"{stage} telescoping broke at prime {p}")
        overlap = removed.intersection(t_set)
        if overlap:
            raise AssertionError(f"B-sets overlap at {sorted(overlap)}")
        removed.update(t_set)
    n_mod, residue = divmod(n_mod, p)
    if residue:
        raise AssertionError(f"{stage} divisor certificate lacks the prime {p}")
    if n_mod % rem.denominator != 0:
        raise AssertionError(f"{stage} remainder escaped the divisor certificate")
    trace.record(stage, p, l, t_set, rem, n_mod)
    return rem, n_mod


def stage_one(
    config: ConstructionConfig,
    plan: StagePlan,
    family: SmoothFamily,
):
    """Run the descending loops over the sieve's primes in (w, y] and
    [y', w] and the powers-of-two cleanup, each step through _eliminate_step,
    over family, the view A(x, y; w, lambda) of the planning sieve.

    The cleanup eliminates 2^l for l = k-1 down to 1 from the members
    exactly divisible by 2^l whose odd part is y'-smooth; at p = 2 one
    element always suffices, and the largest is taken. Starts from the
    plan's initial remainder and its modulus D(p0). Returns (kept members
    array, remainder, trace); the remainder's denominator divides D0(y'),
    the odd part of the plan's pool modulus.
    """
    r, k = config.r, config.k
    if family.params.cutoff != plan.cutoff or family.params.y != plan.y:
        raise ParameterError("family was not built with the plan's parameters")
    n_mod = plan.d_p0
    if n_mod % r.denominator != 0:
        raise DivisibilityError(
            f"b = {r.denominator} does not divide D(p0)", failing_parameter="r"
        )
    rem = plan.initial_remainder
    if not (0 < rem < r):
        raise RemainderNonPositive(
            f"initial remainder {rem} outside (0, {r})",
            failing_parameter="delta",
            suggestion="plan from a delta in (0, r)",
        )
    trace = StageTrace()
    removed_all: set = set()

    for p in _between(family.primes, plan.w + 1, plan.y):
        rem, n_mod = _eliminate_step(
            trace, "p-loop", removed_all, rem, n_mod, family.slice(p, 1), p, 1
        )

    for q in _between(family.primes, plan.y_prime, plan.w):
        for l in range(k - 1, 0, -1):
            rem, n_mod = _eliminate_step(
                trace, "q-loop", removed_all, rem, n_mod, family.slice(q, l), q, l
            )

    # When y' itself is prime the q-loop has eliminated it, so the cleanup
    # element's odd part must stay strictly below y' (plans normalize y'
    # non-prime; the guard keeps hand-built plans honest).
    odd_cap = plan.y_prime - 1 if plan.y_prime in family.primes else plan.y_prime
    for l in range(k - 1, 0, -1):
        stock = family.exact_power_of_two_members(l, odd_cap)
        rem, n_mod = _eliminate_step(
            trace, "2-cleanup", removed_all, rem, n_mod, stock, 2, l
        )

    d0 = plan.d_pool >> exact_multiplicity(plan.d_pool, 2)  # D0(y')
    if d0 % rem.denominator != 0:
        raise AssertionError("stage-one remainder denominator escapes D0(y')")
    if not (0 < rem < r):
        raise RemainderNonPositive(f"stage-one remainder {rem} left (0, r)")
    keep_mask = np.ones(family.members.size, dtype=bool)
    if removed_all:
        removed_arr = np.fromiter(removed_all, dtype=np.int64)
        keep_mask[np.searchsorted(family.members, np.sort(removed_arr))] = False
    kept = family.members[keep_mask]
    return kept, rem, trace


def four_set_repair(a_prime, c_terms):
    """Split the A'/C overlap through 1/n = 1/(n+1) + 1/(n(n+1)).

    Returns (a_prime, c_minus_a_prime, d1, d2), pairwise disjoint and each
    ascending, with sum of reciprocals equal to sum over a_prime plus sum
    over c_terms. The inputs must be odd and free of m^2+m-1 values (the
    membership rule that makes d1 and d2 disjoint); violations raise
    ParameterError.
    """
    a_set = {int(n) for n in a_prime}
    c_set = {int(n) for n in c_terms}
    for n in a_set | c_set:
        if n < 1 or n % 2 == 0:
            raise ParameterError(f"four-set repair needs odd inputs, got {n}")
    for n in a_set:
        m = math.isqrt(n + 1)
        if m * m + m - 1 == n:
            raise ParameterError(
                f"{n} = m^2+m-1 breaks the repair disjointness argument"
            )
    overlap = sorted(a_set & c_set)
    d1 = [n + 1 for n in overlap]
    d2 = [n * (n + 1) for n in overlap]
    if set(d1) & set(d2):
        raise AssertionError("splitting repair sets collide (m^2+m-1 guard)")
    return sorted(a_set), sorted(c_set - a_set), d1, d2


def _try_expansion(c: Fraction, cap: int, x: int) -> Optional[tuple]:
    """Tiered odd expansion: first with every term below sqrt(x) (any
    collision repair then stays inside x), then below the full cap."""
    d = c.denominator
    pd = max(_factor(d), default=1)
    if d == 1 or c * pd >= 1:
        return None
    t1 = min(cap, math.isqrt(x) - 1)
    tiers = [t1, cap] if cap > t1 else [t1]
    for mt in tiers:
        if mt < 3:
            continue
        try:
            return expand_odd(c, max_term=mt)
        except BoundExceeded:
            continue
    return None


def stage_two(
    remainder: Fraction,
    plan: StagePlan,
    pool: SmoothFamily,
    kept: np.ndarray,
) -> StageTwoResult:
    """Represent the stage-one remainder over (0, lambda*x] denominators.

    pool is the plan's odd pool A(x', y'; y', 0), a view of the planning
    sieve whose k the ladders use, and the plan's D(p0') is its modulus;
    repair elements must avoid the ascending stage-one set kept. Chooses
    the odd pool cut, runs the q'-loop down the sieve's primes in [y'', y')
    (exiting early once the residual already satisfies the odd-expansion
    precondition within the size budget), expands, and repairs overlaps.
    After a _RETRIED error the cut shifts up one element and the attempt
    repeats with fresh residue targets, at most MAX_STAGE_TWO_ATTEMPTS
    times; the last attempt's error is raised. Everything is deterministic.
    """
    if remainder <= 0:
        raise RemainderNonPositive(f"stage-two input {remainder} not positive")
    if remainder.denominator == 1:
        raise ParameterError(
            f"stage-two input {remainder} has denominator 1; nothing to expand",
            failing_parameter="remainder",
        )
    d0 = plan.d_pool >> exact_multiplicity(plan.d_pool, 2)  # D0(y')
    if d0 % remainder.denominator != 0:
        raise DivisibilityError(
            f"remainder denominator does not divide D0(y'={plan.y_prime})",
            failing_parameter="remainder",
        )
    boundary, chosen, c_start = choose_lambda(pool.members_a0, remainder, plan.d_pool)
    ladders = {
        q: {l: pool.slice(q, l, a0=True) for l in range(pool.params.k - 1, 0, -1)}
        for q in _between(pool.primes, plan.y_doubleprime, plan.y_prime - 1)
    }

    # Each attempt drops one more of the smallest chosen elements back into
    # the residual; at least one chosen element stays.
    attempts = min(MAX_STAGE_TWO_ATTEMPTS + 1, len(chosen))
    for drop in range(attempts):
        if drop:
            boundary = chosen[drop - 1]
            c_start += Fraction(1, boundary)
        try:
            result = _stage_two_attempt(
                c_start, chosen[drop:], boundary, ladders, plan, kept
            )
        except _RETRIED:
            if drop == attempts - 1:
                raise
            continue
        # c_start + sum(chosen[drop:]) is the remainder whatever the drop.
        parts = result.a_prime + result.c_minus + result.d1 + result.d2
        if _sum_recips(parts) != remainder:
            raise AssertionError("stage-two four-set identity broke")
        result.attempts = drop + 1
        return result
    raise BreuschPreconditionFailed(
        "stage two exhausted the pool without a viable cut",
        suggestion="increase x or delta",
    )


def _stage_two_attempt(
    c_start: Fraction,
    selection: list,
    boundary: int,
    ladders: dict,
    plan: StagePlan,
    kept: np.ndarray,
) -> StageTwoResult:
    """Stage two at one cut: the q'-loop over the members above boundary of
    the pool's ladders {q: {l: slice}}, primes and powers descending
    (eliminating over the pool modulus D(p0')), the odd expansion and the
    four-set repair."""
    x, cap = plan.x, plan.cutoff
    c, n_mod = c_start, plan.d_pool
    trace = StageTrace()
    removed: set = set()
    early_prime: Optional[int] = None
    expansion: Optional[tuple] = None

    for q, rungs in ladders.items():
        if breusch_bound(c.denominator) <= cap:
            expansion = _try_expansion(c, cap, x)
            if expansion is not None:
                early_prime = q
                break
        for l, rung in rungs.items():
            rung = rung[rung > boundary]
            c, n_mod = _eliminate_step(trace, "q'-loop", removed, c, n_mod, rung, q, l)

    if expansion is None:
        expansion = _try_expansion(c, cap, x)
        if expansion is None:
            raise BreuschPreconditionFailed(
                f"residual {c} cannot be odd-expanded within term bound {cap}",
                failing_parameter="remainder",
                suggestion="increase x or decrease delta",
            )

    c_terms = list(expansion)
    a_prime, c_minus, d1, d2 = four_set_repair(
        set(selection).difference(removed), c_terms
    )
    for v in d2:
        if v > x:
            raise BoundExceeded(
                f"splitting repair produced {v} > x", failing_parameter="x"
            )
    # Expansion terms are at most cap = lambda*x, below every kept member;
    # only the even repair elements can reach the stage-one set.
    for v in d1 + d2:
        i = np.searchsorted(kept, v)
        if i < kept.size and kept[i] == v:
            raise BoundExceeded(
                f"repair element {v} collides with the stage-one set"
            )
    return StageTwoResult(
        a_prime=a_prime,
        c_terms=c_terms,
        c_minus=c_minus,
        d1=d1,
        d2=d2,
        lam_prime=Fraction(boundary, plan.x_prime),
        trace=trace,
        early_exit_prime=early_prime,
    )


def _alpha_targets(plan: StagePlan, pool: SmoothFamily) -> list:
    """Masses of the plan's stage-two pool that would park the cut boundary
    below the rungs of the ladders the early Breusch hand-off cannot absorb
    (primes q in [q_e, y'), powers 1..k-1, over the pool's A0): most
    ambitious first (the full heuristic threshold per ladder), then graded
    fallbacks keeping fewer rungs, for runs whose delta budget cannot afford
    the full cut."""
    members = pool.members_a0
    if not members.size:
        return []
    k = pool.params.k
    q_e = _exit_prime(plan.cutoff, k)
    ladders = [
        (q, ladder)
        for q in _between(pool.primes, q_e, pool.params.y - 1)
        for ladder in (pool.slice(q, l, a0=True) for l in range(1, k))
        if ladder.size
    ]
    targets = []
    for keep_cap in (None, 4, 3, 2):
        bound = None
        for q, ladder in ladders:
            keep = min(_ladder_threshold(q), int(ladder.size))
            if keep_cap is not None:
                keep = min(keep, keep_cap)
            rung = int(ladder[-keep]) - 1
            bound = rung if bound is None else min(bound, rung)
        if bound is None:
            bound = max(int(members[-1]) // 2, 1)
        kept = members[members > bound]
        slack = min(Fraction(1, 2 * (bound + 1)), Fraction(1, 16))
        t = reciprocal_sum(kept, plan.d_pool) + slack
        if t not in targets:
            targets.append(t)
    return targets


def construct_dense(r, x: int, **options) -> Representation:
    """End-to-end construction of a dense Egyptian fraction for r below x.

    Plans parameters, runs both stages, assembles the five-part
    representation and certifies it independently. When stage two fails
    with a _RETRIED error, delta is retuned from the measured stage-one
    remainder and the plan resolved again, at most MAX_DELTA_RETUNES times
    and never when the caller pinned delta; the last error is raised. Every
    representation comes from both stages; an r equal to the whole family's
    mass is refused, as no cutoff leaves it a positive remainder. All errors
    carry the failing parameter.
    """
    config, plan, fam0, mass = _plan_full(r, x, **options)
    r, x, k = config.r, config.x, config.k
    retunes = MAX_DELTA_RETUNES if options.get("delta") is None else 0

    for retune in range(retunes + 1):
        fam_l = fam0.sub_family(SmoothParams(x, plan.y, plan.w, plan.lam, k))
        kept, alpha, trace1 = stage_one(config, plan, fam_l)
        y_p = plan.y_prime  # the pool A(x', y'; y', 0)
        pool = fam0.sub_family(SmoothParams(plan.x_prime, y_p, y_p, Fraction(0), k))
        try:
            s2 = stage_two(alpha, plan, pool, kept)
            break
        except _RETRIED:
            if retune == retunes:
                raise
            deltas = (config.delta + (t - alpha) for t in _alpha_targets(plan, pool))
            delta = next((d for d in deltas if 0 < d < r and d != config.delta), None)
            if delta is None:
                raise
        config = replace(config, delta=delta)
        plan = _resolve_plan(config, fam0, plan.d_p0, mass)

    rep = Representation(config, plan, kept, s2, None, trace1)  # certified below
    denominators = rep.denominators()
    repeated = denominators[1:][denominators[1:] == denominators[:-1]]
    if repeated.size:
        raise AssertionError(f"representation parts overlap: {repeated[:5].tolist()}")
    cert = rep.certificate = check(r, denominators, x)
    if not (cert.sum_exact and cert.distinct and cert.max_ok):
        raise AssertionError("final certificate failed: " + repr(cert))
    return rep
