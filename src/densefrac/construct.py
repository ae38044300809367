"""The two-stage dense Egyptian-fraction construction.

Stage one subtracts from r the reciprocals of a sieved family of smooth,
k-free integers in (lambda*x, x], then cancels every denominator prime
down to y' by adding back reciprocals of a few family members per prime
power (descending primes; within a prime, powers k-1 down to 1), and
finally clears powers of two with single exactly-divisible elements. The
remainder's denominator then divides the odd modulus D0(y').

Stage two repeats the scheme inside (lambda'*x', x'] using odd members
only, hands the tiny residual to the odd expander, and repairs any overlap
between the expansion and the kept set through the splitting identity
1/n = 1/(n+1) + 1/(n(n+1)), whose two new denominators are even and
therefore disjoint from everything odd; the not-m^2+m-1 membership rule
makes the two repair sets disjoint from each other.

Planning sieves [1, x] once; the stage-one family and every stage-two
pool are views of that sieve. The family's exact mass is summed once, and
the cutoff and stage-one remainder take the members below the cutoff off it.

Every step re-verifies its divisibility certificate and exact telescoping;
nothing is trusted from asymptotics. Where the source analysis needs "x
sufficiently large" (notably the sub-y' prime ladders, which are log-thin
at desk scale), the planner substitutes runtime-checked parameter policy:
y' is lowered until slice censuses support the eliminations, and the
stage-two descending prime loop exits early once the residual already
satisfies the odd-expansion precondition within the size budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import dickman
from .arith import (
    FactoredInt,
    exact_multiplicity,
    factorize,
    is_prime,
    largest_prime_factor,
    primes_in,
)
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
from .expand import OddExpansion, breusch_bound, expand_odd
from .modular import OPPORTUNISTIC, STRICT, eliminate_prime
from .smooth import (
    SmoothFamily,
    SmoothParams,
    build_family,
    choose_lambda,
    reciprocal_sum,
)
from .verify import Certificate, check

MAX_STAGE_TWO_ATTEMPTS = 48
MAX_DELTA_RETUNES = 3
MAX_K = 64


@dataclass(frozen=True)
class ConstructionConfig:
    """Resolved run parameters; b = r.denominator is k-free with P(b) <= w."""

    r: Fraction
    x: int
    eta: float
    k: int
    epsilon: float
    delta: Fraction
    lambda_mode: str
    elimination_mode: str
    stage_two_mode: str = OPPORTUNISTIC
    y_prime_override: Optional[int] = None
    x_prime_override: Optional[int] = None


@dataclass
class StagePlan:
    """Derived bounds and descending prime lists for both stages."""

    x: int
    y: int
    w: int
    lam: Fraction
    cutoff: int
    initial_remainder: Fraction  # r minus the family's mass above the cutoff
    y_prime: int
    x_prime: int
    y_doubleprime: int
    p0: int
    p_primes: list
    q_primes: list
    q2_primes: list
    warnings: list = field(default_factory=list)

    def validate(self):
        if not (self.y_doubleprime <= self.y_prime <= self.w <= self.y <= self.x):
            raise ParameterError(
                f"plan bounds out of order: y''={self.y_doubleprime} "
                f"y'={self.y_prime} w={self.w} y={self.y} x={self.x}"
            )
        if self.x_prime > self.cutoff:
            raise ParameterError(
                f"x'={self.x_prime} exceeds lambda*x={self.cutoff}; stage-two "
                "pool would collide with the kept family",
                failing_parameter="x_prime",
            )


@dataclass(frozen=True)
class StageStep:
    stage: str
    prime: int
    power: int
    removed: tuple
    remainder_after: Fraction
    divisor_certificate: FactoredInt


@dataclass
class StageTrace:
    steps: list = field(default_factory=list)

    def record(self, stage, prime, power, removed, remainder, modulus):
        self.steps.append(
            StageStep(stage, prime, power, tuple(removed), remainder, modulus)
        )

    @property
    def removed_total(self) -> int:
        return sum(len(s.removed) for s in self.steps)

    def summary(self) -> dict:
        return {
            "steps": len(self.steps),
            "removed_total": self.removed_total,
            "primes": [s.prime for s in self.steps],
        }


@dataclass
class StageTwoResult:
    a_prime: list
    c_terms: list
    d1: list
    d2: list
    lam_prime: Fraction
    removed: list
    trace: StageTrace
    residual: Fraction
    expansion: OddExpansion
    early_exit_prime: Optional[int]
    attempts: int


@dataclass
class Representation:
    """Final denominator set, partitioned, with its verification certificate."""

    r: Fraction
    x: int
    config: ConstructionConfig
    plan: StagePlan
    a: np.ndarray
    a_prime: list
    c_minus_a_prime: list
    d1: list
    d2: list
    lam_prime: Optional[Fraction]
    certificate: Certificate
    density: Fraction
    stage_one_trace: StageTrace
    stage_two_trace: Optional[StageTrace]
    stage_two_attempts: int = 0
    early_exit_prime: Optional[int] = None

    @property
    def size(self) -> int:
        return (
            len(self.a)
            + len(self.a_prime)
            + len(self.c_minus_a_prime)
            + len(self.d1)
            + len(self.d2)
        )

    def denominators(self) -> np.ndarray:
        parts = [np.asarray(self.a, dtype=np.int64)]
        for p in (self.a_prime, self.c_minus_a_prime, self.d1, self.d2):
            if p:
                parts.append(np.asarray(sorted(p), dtype=np.int64))
        return np.sort(np.concatenate(parts))

    def parts(self) -> dict:
        return {
            "A": self.a,
            "A'": self.a_prime,
            "C\\A'": self.c_minus_a_prime,
            "D1": self.d1,
            "D2": self.d2,
        }


def modulus_product(z: int, w: int, k: int) -> FactoredInt:
    """D(z) = prod_{p<z, p<=w} p^(k-1) * prod_{w<p<z} p (1 when z <= 2).

    The odd part D0(z) is modulus_product(z, w, k).odd_part().
    """
    if z <= 2:
        return FactoredInt.one()
    return FactoredInt.from_factors(
        [(p, k - 1 if p <= w else 1) for p in primes_in(2, z - 1)]
    )


def _next_prime_above(n: int) -> int:
    # Bertrand: a prime exists in (n, 2n); scan a couple of windows anyway.
    lo = n + 1
    while True:
        ps = primes_in(lo, 2 * lo + 16)
        if ps:
            return ps[0]
        lo = 2 * lo + 17


def _primes_between(lo: int, hi: int) -> list:
    return primes_in(lo, hi) if lo <= hi else []


def _count_above(arr: np.ndarray, cutoff: int) -> int:
    return int(arr.size - np.searchsorted(arr, cutoff, side="right"))


def _spec_y_doubleprime(x: int, k: int) -> int:
    """Largest bound with prod_{p <= y''} p^k <= x^(2/3) (exact compare)."""
    prod = 1
    last = 1
    for p in primes_in(2, 64):
        cand = prod * p**k
        if cand**3 > x * x:
            break
        prod = cand
        last = p
    return max(last, 2)


def _resolve_cutoff(
    fam0: SmoothFamily, modulus: FactoredInt, total: Fraction, r, delta, cutoff=None
):
    """(cutoff, r - sum_{n > cutoff} 1/n) over the members of fam0.

    Walks the members upward, taking each m // n off the total mass (over
    the modulus m), so only members at or below the cutoff are visited. A
    given cutoff (formula lambda) ends the walk there; without one
    (adaptive lambda) it ends before the mass above would drop below
    r - delta: the largest element-boundary cutoff with remainder in
    (0, delta].
    """
    m = modulus.value
    num = total.numerator * (m // total.denominator)
    dn = r - delta
    # (num - step) / m < r - delta  <=>  num - step < ceil(dn * m)
    floor = -(-dn.numerator * m // dn.denominator)
    adaptive = cutoff is None
    if adaptive and num < floor:
        raise InfeasibleMass(
            f"family mass sum falls short of r - delta = {dn}",
            failing_parameter="x",
            suggestion="increase x or delta, or decrease r",
        )
    members = fam0.members
    taken = 0
    for e in members:
        step = m // int(e)
        if (num - step < floor) if adaptive else (e > cutoff):
            break
        num -= step
        taken += 1
    if adaptive:
        if num * r.denominator >= r.numerator * m:  # remainder not positive
            raise InfeasibleMass(
                "no cutoff leaves a remainder in (0, delta]",
                failing_parameter="delta",
                suggestion="increase delta or x",
            )
        cutoff = int(members[taken - 1]) if taken else 0
    return cutoff, r - Fraction(num, m)


def _ladder_threshold(q: int) -> int:
    """Slice size regarded as ample for an opportunistic mod-q subset sum."""
    return min(q - 1, max(6, q.bit_length() + 3))


def _exit_prime(cutoff: int, k: int) -> int:
    """Largest prime q_e whose worst residual denominator (dividing D0(q_e))
    still odd-expands within the term budget: primes >= q_e must be
    eliminated in stage two, primes below are left to the expander."""
    best = 3
    worst = 5 * 3 ** max(k - 1, 2)
    if worst > cutoff:
        return best
    for q in primes_in(5, 64):
        if worst > cutoff:
            break
        best = q
        worst *= q ** (k - 1)
    return best


def _stage_one_deficit(fam0: SmoothFamily, y_p: int, w: int, k: int, cutoff: int):
    """(q, l) pairs of the stage-one q-loop too thin for strict elimination."""
    out = []
    for q in _primes_between(y_p, w):
        for l in range(1, k):
            if _count_above(fam0.slice(q, l), cutoff) < q - 1:
                out.append((q, l))
    return out


def _stage_two_pool(fam0: SmoothFamily, y_p: int, x_p: int, k: int) -> SmoothFamily:
    """A(x', y'; y', 0), a view of the planning sieve."""
    return fam0.sub_family(SmoothParams(x=x_p, y=y_p, w=y_p, lam=Fraction(0), k=k))


def _stage_two_deficit(fam2: SmoothFamily, y_p: int, q_e: int, k: int):
    """Needed q'-ladders (primes in [q_e, y')) thinner than the heuristic
    coverage threshold, measured over the full pool."""
    out = []
    for q in _primes_between(q_e, y_p - 1):
        for l in range(1, k):
            if int(fam2.slice(q, l, a0=True).size) < _ladder_threshold(q):
                out.append((q, l))
    return out


def _select_y_prime(
    fam0: SmoothFamily,
    w: int,
    y: int,
    k: int,
    cutoff: int,
    override: Optional[int],
    x_prime_override: Optional[int] = None,
):
    """Largest non-prime y' in [6, min(w, 30)] such that (a) every stage-one
    q-loop slice can feed a strict elimination at the current cutoff and
    (b) every stage-two ladder that the early Breusch hand-off cannot absorb
    is thick enough for the subset-sum heuristic. Falls back to the least
    deficient candidate with a warning."""
    top = min(w, 30, y)
    if override is not None:
        y_p = override
        if y_p > top or y_p < 4:
            raise ParameterError(
                f"y' override {y_p} outside [4, min(w, 30, y)] = [4, {top}]",
                failing_parameter="y_prime",
            )
        while is_prime(y_p):
            y_p -= 1
        return max(y_p, 4), []
    if top < 6:
        raise InfeasibleMass(
            f"w = {w} leaves no room for a stage-two bound y' >= 6",
            failing_parameter="x",
            suggestion="increase x",
        )
    candidates = [v for v in range(top, 5, -1) if not is_prime(v)]
    q_e = _exit_prime(cutoff, k)
    best = None
    best_score = None
    for y_p in candidates:
        # The powers-of-two cleanup needs one exactly divisible element with
        # a y'-smooth odd part per level; an empty stock is a hard veto.
        if any(
            not _count_above(fam0.exact_power_of_two_members(l, y_p), cutoff)
            for l in range(1, k)
        ):
            continue
        x_p = x_prime_override or min(y_p ** (2 * k), cutoff // 2)
        if x_p < y_p:
            continue
        if x_p > cutoff:  # plan.validate() rejects this x' whatever y' is
            return y_p, []
        deficit1 = _stage_one_deficit(fam0, y_p, w, k, cutoff)
        try:
            fam2 = _stage_two_pool(fam0, y_p, x_p, k)
        except ParameterError:
            continue
        deficit2 = _stage_two_deficit(fam2, y_p, q_e, k)
        if not deficit1 and not deficit2:
            return y_p, []
        score = (len(deficit1), len(deficit2))
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
    eta: float,
    x: int,
    *,
    k: Optional[int] = None,
    epsilon: float = 0.1,
    delta=None,
    lambda_mode: str = "adaptive",
    elimination_mode: str = STRICT,
    stage_two_mode: str = OPPORTUNISTIC,
    y_prime: Optional[int] = None,
    x_prime: Optional[int] = None,
):
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
    if elimination_mode not in (STRICT, OPPORTUNISTIC):
        raise ParameterError(f"unknown elimination mode {elimination_mode!r}")
    if lambda_mode not in ("adaptive", "formula"):
        raise ParameterError(f"unknown lambda mode {lambda_mode!r}")

    b = r.denominator
    b_fact = factorize(b)
    b_maxexp = max((e for _, e in b_fact.factors), default=0)
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

    y = max(2, int(x ** ((1.0 - epsilon) / 2.0)))
    w = max(2, int(x ** ((1.0 - epsilon) / k_res)))
    w = min(w, y)
    if largest_prime_factor(b) > w:
        raise UnsupportedDenominator(
            f"P({b}) = {largest_prime_factor(b)} exceeds w = {w}",
            failing_parameter="r",
            suggestion="increase x or decrease epsilon",
        )

    delta_pinned = delta is not None
    if delta is None:
        delta = min(Fraction(r, 4), Fraction(1, 20))
    delta = Fraction(delta)
    if not (0 < delta < r):
        raise ParameterError(
            f"delta must lie in (0, r), got {delta}", failing_parameter="delta"
        )

    fam0 = build_family(SmoothParams(x=x, y=y, w=w, lam=Fraction(0), k=k_res))
    p0 = _next_prime_above(y)
    d_p0 = modulus_product(p0, w, k_res)
    total = reciprocal_sum(fam0.members, d_p0)
    if total < r:
        raise InfeasibleMass(
            f"family reciprocal mass {float(total):.6f} < r = {r}",
            failing_parameter="x",
            suggestion="increase x or decrease r",
        )

    config = ConstructionConfig(
        r=r,
        x=x,
        eta=eta,
        k=k_res,
        epsilon=epsilon,
        delta=delta,
        lambda_mode=lambda_mode,
        elimination_mode=elimination_mode,
        stage_two_mode=stage_two_mode,
        y_prime_override=y_prime,
        x_prime_override=x_prime,
    )
    plan = _resolve_plan(config, fam0, d_p0, total)
    aux = {
        "family0": fam0,
        "d_p0": d_p0,
        "total": total,
        "delta_pinned": delta_pinned,
    }
    return config, plan, aux


def _resolve_plan(
    config: ConstructionConfig,
    fam0: SmoothFamily,
    d_p0: FactoredInt,
    total: Fraction,
    delta: Optional[Fraction] = None,
) -> StagePlan:
    """Turn a config (plus an optional retuned delta) into a full plan."""
    r, x, k = config.r, config.x, config.k
    y, w = fam0.params.y, fam0.params.w
    delta = config.delta if delta is None else delta
    cutoff = None
    if config.lambda_mode == "formula":
        lam_f = math.exp(
            -float(r - delta) * dickman.zeta(k) / dickman.rho(2.0 / (1.0 - config.epsilon))
        )
        cutoff = int(lam_f * x)
    cutoff, rem0 = _resolve_cutoff(fam0, d_p0, total, r, delta, cutoff)
    lam = Fraction(cutoff, x)

    y_p, warnings = _select_y_prime(
        fam0, w, y, k, cutoff, config.y_prime_override, config.x_prime_override
    )
    x_p = config.x_prime_override
    if x_p is None:
        x_p = min(y_p ** (2 * k), cutoff // 2)
    x_p = int(x_p)
    if x_p < y_p:
        raise InfeasibleMass(
            f"stage-two bound x' = {x_p} below y' = {y_p}: lambda*x = {cutoff} "
            "leaves no room for the small-denominator stage",
            failing_parameter="x",
            suggestion="increase x or delta, or decrease r",
        )
    y_pp = min(_spec_y_doubleprime(x, k), y_p)
    p0 = _next_prime_above(y)
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
        p0=p0,
        p_primes=sorted(_primes_between(w + 1, y), reverse=True),
        q_primes=sorted(_primes_between(y_p, w), reverse=True),
        q2_primes=sorted(_primes_between(y_pp, y_p - 1), reverse=True),
        warnings=warnings,
    )
    plan.validate()
    return plan


def plan_parameters(r, eta: float, x: int, **overrides):
    """Resolve every run parameter; see ConstructionConfig and StagePlan.

    Raises InfeasibleMass when the family below x cannot carry r, and
    UnsupportedDenominator when r's denominator defeats every allowed k.
    """
    config, plan, _aux = _plan_full(r, eta, x, **overrides)
    return config, plan


def _sum_recips(elements) -> Fraction:
    return sum((Fraction(1, int(n)) for n in elements), Fraction(0))


def stage_one(
    config: ConstructionConfig,
    plan: StagePlan,
    family: SmoothFamily,
):
    """Run the descending prime loops and the powers-of-two cleanup.

    Starts from the plan's initial remainder. Returns (kept members array,
    remainder, trace); the remainder's denominator divides D0(y').
    """
    r, k = config.r, config.k
    if family.params.cutoff != plan.cutoff or family.params.y != plan.y:
        raise ParameterError("family was not built with the plan's parameters")
    n_mod = modulus_product(plan.p0, plan.w, k)
    if n_mod.value % r.denominator != 0:
        raise DivisibilityError(
            f"b = {r.denominator} does not divide D(p0)", failing_parameter="r"
        )
    rem = plan.initial_remainder
    if not (0 < rem < r):
        raise RemainderNonPositive(
            f"initial remainder {rem} outside (0, {r})",
            failing_parameter="lambda",
            suggestion="use adaptive lambda mode or adjust delta",
        )
    trace = StageTrace()
    removed_all: set = set()
    mode = config.elimination_mode

    def run_step(stage, p, l, slice_arr):
        nonlocal rem, n_mod
        if exact_multiplicity(rem.denominator, p) >= l:
            s_elems = [int(v) for v in slice_arr]
            before = rem
            t_set, rem = eliminate_prime(before, n_mod, s_elems, p, l, mode)
            if rem - before != _sum_recips(t_set):
                raise AssertionError("telescoping broke at prime %d" % p)
            overlap = removed_all.intersection(t_set)
            if overlap:
                raise AssertionError(f"B-sets overlap at {sorted(overlap)}")
            removed_all.update(t_set)
        else:
            t_set = ()
        n_mod = n_mod.div_prime(p, 1)
        if n_mod.value % rem.denominator != 0:
            raise AssertionError("remainder escaped the divisor certificate")
        trace.record(stage, p, l, t_set, rem, n_mod)

    for p in plan.p_primes:
        run_step("p-loop", p, 1, family.slice(p, 1))

    for q in plan.q_primes:
        for l in range(k - 1, 0, -1):
            run_step("q-loop", q, l, family.slice(q, l))

    # Powers-of-two cleanup: one exactly divisible element per leftover level.
    # When y' itself is prime the q-loop has eliminated it, so the element's
    # odd part must stay strictly below y' (plans normalize y' non-prime; the
    # guard keeps hand-built plans honest).
    odd_cap = plan.y_prime - 1 if is_prime(plan.y_prime) else plan.y_prime
    for j in range(2, k + 1):
        l = k - j + 1
        if exact_multiplicity(rem.denominator, 2) == l:
            cands = family.exact_power_of_two_members(l, odd_cap)
            cands = [int(v) for v in cands if int(v) not in removed_all]
            if not cands:
                raise EliminationFailed(
                    f"no family element exactly divisible by 2^{l} below y'",
                    prime=2,
                    power=l,
                    suggestion="increase x or lower y'",
                )
            n_pick = cands[-1]
            rem = rem + Fraction(1, n_pick)
            if exact_multiplicity(rem.denominator, 2) >= l:
                raise AssertionError("power-of-two cleanup failed to reduce")
            removed_all.add(n_pick)
            t_set = (n_pick,)
        else:
            t_set = ()
        n_mod = n_mod.div_prime(2, 1)
        if n_mod.value % rem.denominator != 0:
            raise AssertionError("cleanup remainder escaped the certificate")
        trace.record("2-cleanup", 2, l, t_set, rem, n_mod)

    d0_yp = modulus_product(_next_prime_above(plan.y_prime), plan.w, k).odd_part()
    if d0_yp.value % rem.denominator != 0:
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

    Returns (a_prime, c_minus_a_prime, d1, d2), pairwise disjoint, with
    sum of reciprocals equal to sum over a_prime plus sum over c_terms.
    The inputs must be odd and free of m^2+m-1 values (the membership rule
    that makes d1 and d2 disjoint); violations raise ParameterError.
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


def _try_expansion(c: Fraction, cap: int, x: int) -> Optional[OddExpansion]:
    """Tiered odd expansion: first with every term below sqrt(x) (any
    collision repair then stays inside x), then below the full cap."""
    d = c.denominator
    pd = largest_prime_factor(d)
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
    config: ConstructionConfig,
    family: SmoothFamily,
    kept: Optional[np.ndarray] = None,
) -> StageTwoResult:
    """Represent the stage-one remainder over (0, lambda*x] denominators.

    The odd pool is a view of the planning family's sieve; repair elements
    must avoid the ascending stage-one set kept. Chooses the odd pool cut,
    runs the descending q'-loop (exiting early once the residual already
    satisfies the odd-expansion precondition within the size budget),
    expands, and repairs overlaps. On failure the cut is shifted up one
    element and the attempt repeats with fresh residue targets; everything
    is deterministic.
    """
    k = config.k
    if remainder <= 0:
        raise RemainderNonPositive(f"stage-two input {remainder} not positive")
    if remainder.denominator == 1:
        raise ParameterError(
            f"stage-two input {remainder} has denominator 1; nothing to expand",
            failing_parameter="remainder",
        )
    y_p, x_p = plan.y_prime, plan.x_prime
    d0_yp = modulus_product(_next_prime_above(y_p), plan.w, k).odd_part()
    if d0_yp.value % remainder.denominator != 0:
        raise DivisibilityError(
            f"remainder denominator does not divide D0(y'={y_p})",
            failing_parameter="remainder",
        )
    fam2 = _stage_two_pool(family, y_p, x_p, k)
    pool = [int(v) for v in fam2.members_a0()]
    p0p = _next_prime_above(y_p)
    d_pool = modulus_product(p0p, y_p, k)
    lam_p, chosen, c0 = choose_lambda(pool, remainder, x_p, modulus=d_pool)

    cap = plan.cutoff
    last_err: Optional[Exception] = None
    max_attempts = min(MAX_STAGE_TWO_ATTEMPTS, len(chosen))
    for drop in range(0, max_attempts + 1):
        selection = chosen[drop:]
        if not selection:
            break
        c_start = c0 + _sum_recips(chosen[:drop])
        boundary = chosen[drop - 1] if drop else lam_p.numerator * x_p // lam_p.denominator
        lam_att = Fraction(boundary, x_p)
        try:
            result = _stage_two_attempt(
                c_start,
                selection,
                boundary,
                lam_att,
                fam2,
                plan,
                config,
                cap,
                kept,
            )
            result.attempts = drop + 1
            last_err = None  # its traceback holds this frame: break the cycle
            return result
        except (EliminationFailed, BreuschPreconditionFailed, BoundExceeded) as err:
            last_err = err
    if last_err is None:
        last_err = BreuschPreconditionFailed(
            "stage two exhausted the pool without a viable cut",
            suggestion="increase x or delta",
        )
    try:
        raise last_err
    finally:
        last_err = None


def _stage_two_attempt(
    c_start: Fraction,
    selection: list,
    boundary: int,
    lam_att: Fraction,
    fam2: SmoothFamily,
    plan: StagePlan,
    config: ConstructionConfig,
    cap: int,
    kept: Optional[np.ndarray],
) -> StageTwoResult:
    k = config.k
    x = config.x
    mode = config.stage_two_mode
    n_mod = modulus_product(_next_prime_above(plan.y_prime), plan.y_prime, k)
    c = c_start
    trace = StageTrace()
    removed: list = []
    removed_set: set = set()
    early_prime: Optional[int] = None
    expansion: Optional[OddExpansion] = None

    for q in plan.q2_primes:
        d = c.denominator
        if breusch_bound(d) <= cap:
            attempt = _try_expansion(c, cap, x)
            if attempt is not None:
                early_prime = q
                expansion = attempt
                break
        for l in range(k - 1, 0, -1):
            if exact_multiplicity(c.denominator, q) >= l:
                s_all = fam2.slice(q, l, a0=True)
                s_sel = [
                    int(v) for v in s_all if v > boundary and int(v) not in removed_set
                ]
                if mode == STRICT and len(s_sel) < q - 1:
                    raise EliminationFailed(
                        f"strict stage two: slice({q},{l}) holds {len(s_sel)} < q-1",
                        prime=q,
                        power=l,
                    )
                before = c
                t_set, c = eliminate_prime(before, n_mod, s_sel, q, l, OPPORTUNISTIC)
                if c - before != _sum_recips(t_set):
                    raise AssertionError("stage-two telescoping broke")
                removed.extend(t_set)
                removed_set.update(t_set)
            else:
                t_set = ()
            n_mod = n_mod.div_prime(q, 1)
            if n_mod.value % c.denominator != 0:
                raise AssertionError("stage-two remainder escaped the certificate")
            trace.record("q'-loop", q, l, t_set, c, n_mod)

    if expansion is None:
        expansion = _try_expansion(c, cap, x)
        if expansion is None:
            raise BreuschPreconditionFailed(
                f"residual {c} cannot be odd-expanded within term bound {cap}",
                failing_parameter="remainder",
                suggestion="increase x or decrease delta",
            )

    c_terms = sorted(expansion.terms)
    a_prime, c_minus, d1, d2 = four_set_repair(
        set(selection) - removed_set, c_terms
    )
    for v in d2:
        if v > x:
            raise BoundExceeded(
                f"splitting repair produced {v} > x", failing_parameter="x"
            )
    # Expansion terms are at most cap = lambda*x, below every kept member;
    # only the even repair elements can reach the stage-one set.
    if kept is not None:
        for v in d1 + d2:
            i = np.searchsorted(kept, v)
            if i < kept.size and kept[i] == v:
                raise BoundExceeded(
                    f"repair element {v} collides with the stage-one set"
                )
    total = (
        _sum_recips(a_prime)
        + _sum_recips(c_minus)
        + _sum_recips(d1)
        + _sum_recips(d2)
    )
    alpha = c_start + _sum_recips(selection)
    if total != alpha:
        raise AssertionError("stage-two four-set identity broke")
    return StageTwoResult(
        a_prime=a_prime,
        c_terms=c_terms,
        d1=sorted(d1),
        d2=sorted(d2),
        lam_prime=lam_att,
        removed=sorted(removed),
        trace=trace,
        residual=c,
        expansion=expansion,
        early_exit_prime=early_prime,
        attempts=1,
    )


def _alpha_targets(
    plan: StagePlan, config: ConstructionConfig, family: SmoothFamily
) -> list:
    """Pool-derived stage-two masses that would park the cut boundary below
    the needed ladders' rungs: most ambitious first (the full heuristic
    threshold per ladder), then graded fallbacks keeping fewer rungs, for
    runs whose delta budget cannot afford the full cut."""
    try:
        fam2 = _stage_two_pool(family, plan.y_prime, plan.x_prime, config.k)
    except ParameterError:
        return []
    pool = [int(v) for v in fam2.members_a0()]
    if not pool:
        return []
    q_e = _exit_prime(plan.cutoff, config.k)
    ladders = []
    for q in _primes_between(q_e, plan.y_prime - 1):
        for l in range(1, config.k):
            ladder = fam2.slice(q, l, a0=True)
            if ladder.size:
                ladders.append((q, ladder))
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
            bound = max(pool[-1] // 2, 1)
        kept = [n for n in pool if n > bound]
        t = _sum_recips(kept) + min(Fraction(1, 2 * (bound + 1)), Fraction(1, 16))
        if t not in targets:
            targets.append(t)
    return targets


def construct_dense(r, x: int, eta: float = 0.01, **options) -> Representation:
    """End-to-end construction of a dense Egyptian fraction for r below x.

    Plans parameters, runs both stages (retuning delta from the measured
    stage-one remainder when stage two proves infeasible and delta was not
    pinned by the caller), assembles the five-part representation and
    certifies it independently. All errors carry the failing parameter.
    """
    config, plan, aux = _plan_full(r, eta, x, **options)
    fam0, total = aux["family0"], aux["total"]
    r = config.r

    if total == r:
        members = fam0.members
        cert = check(r, members.tolist(), x, eta)
        if not (cert.sum_exact and cert.distinct and cert.max_ok):
            raise AssertionError("exact-cover certificate failed")
        return Representation(
            r=r,
            x=x,
            config=config,
            plan=plan,
            a=members,
            a_prime=[],
            c_minus_a_prime=[],
            d1=[],
            d2=[],
            lam_prime=None,
            certificate=cert,
            density=Fraction(int(members.size), x),
            stage_one_trace=StageTrace(),
            stage_two_trace=None,
        )

    delta_current = config.delta
    for retune in range(MAX_DELTA_RETUNES + 1):
        fam_l = fam0.sub_family(
            SmoothParams(x=x, y=plan.y, w=plan.w, lam=plan.lam, k=config.k)
        )
        kept, alpha, trace1 = stage_one(config, plan, fam_l)
        try:
            s2 = stage_two(alpha, plan, config, fam0, kept)
            break
        except (
            EliminationFailed,
            BreuschPreconditionFailed,
            BoundExceeded,
            InfeasibleMass,
            RemainderNonPositive,
        ):
            if retune == MAX_DELTA_RETUNES or aux["delta_pinned"]:
                raise
            delta_new = None
            for target in _alpha_targets(plan, config, fam0):
                cand = delta_current + (target - alpha)
                if 0 < cand < r and cand != delta_current:
                    delta_new = cand
                    break
            if delta_new is None:
                raise
            delta_current = delta_new
            plan = _resolve_plan(config, fam0, aux["d_p0"], total, delta=delta_new)

    c_minus = sorted(set(s2.c_terms) - set(s2.a_prime))
    small = np.array(s2.a_prime + c_minus + s2.d1 + s2.d2, dtype=np.int64)
    denominators = np.sort(np.concatenate([kept, small]))
    repeated = denominators[1:][denominators[1:] == denominators[:-1]]
    if repeated.size:
        raise AssertionError(f"representation parts overlap: {repeated[:5].tolist()}")
    cert = check(r, denominators.tolist(), x, eta)
    if not (cert.sum_exact and cert.distinct and cert.max_ok):
        raise AssertionError("final certificate failed: " + repr(cert))
    density = Fraction(int(denominators.size), x)
    return Representation(
        r=r,
        x=x,
        config=replace(config, delta=delta_current),
        plan=plan,
        a=kept,
        a_prime=s2.a_prime,
        c_minus_a_prime=c_minus,
        d1=s2.d1,
        d2=s2.d2,
        lam_prime=s2.lam_prime,
        certificate=cert,
        density=density,
        stage_one_trace=trace1,
        stage_two_trace=s2.trace,
        stage_two_attempts=s2.attempts,
        early_exit_prime=s2.early_exit_prime,
    )
