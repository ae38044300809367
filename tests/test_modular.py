import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densefrac.arith import exact_multiplicity, factorize
from densefrac.errors import DivisibilityError, EliminationFailed, ParameterError
import densefrac.modular as modular
from densefrac.modular import _check_prime, _solve, eliminate_prime
from oracles import factor_over, first_found_witness, subset_sums_mod_p


def _int64(values):
    return np.array(values, dtype=np.int64)


def solve(residues, target, p):
    """The solver on a list of residues in [1, p) and a target in [0, p)."""
    return _solve(residues, target, p, len(residues))


def solver_reaches(residues, p):
    """The residues mod p for which the solver finds a witness."""
    return {t for t in range(p) if solve(residues, t, p) is not None}


def test_witness_examples():
    w = solve([1, 1, 1, 1], 3, 5)
    assert w == (0, 1, 2)
    w = solve([2, 3], 5, 7)
    assert w == (0, 1)
    assert solve([1, 1], 4, 5) is None
    assert solver_reaches([1, 1], 5) == {0, 1, 2}
    w = solve([4, 2, 6], 0, 7)
    assert w == ()


def test_witness_sums_to_target():
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        t = rng.randint(0, 5)
        residues = [rng.randint(1, p - 1) for _ in range(t)]
        target = rng.randint(0, p - 1)
        w = solve(residues, target, p)
        if w is None:
            assert target not in subset_sums_mod_p(residues, p)
        else:
            assert sum(residues[i] for i in w) % p == target % p
            assert len(set(w)) == len(w)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_witness_is_the_first_found(data):
    """The solver's witness is the dict reference's: the first one found."""
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 61, 127, 251]))
    residues = data.draw(st.lists(st.integers(1, p - 1), max_size=min(2 * p, 300)))
    target = data.draw(st.integers(0, p - 1))
    w = solve(residues, target, p)
    want = first_found_witness(residues, p, target)
    assert w == want
    if w is not None:
        assert sum(residues[i] for i in w) % p == target


def test_coverage_examples():
    assert len(solver_reaches([1, 1, 1, 1], 5)) == 5
    assert len(solver_reaches([3, 3], 7)) == 3
    assert len(solver_reaches([], 5)) == 1


def test_oracle_equivalence_small():
    """The solver reaches exactly what 2^t enumeration reaches, and that is
    at least min(p, t+1) residues."""
    for p in (2, 3, 5, 7):
        for t in range(0, 5):
            for residues in itertools.combinations_with_replacement(range(1, p), t):
                got = solver_reaches(list(residues), p)
                want = subset_sums_mod_p(list(residues), p)
                assert got == want
                assert len(got) >= min(p, t + 1)


def test_guarantee_with_p_minus_1():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13])
        residues = [rng.randint(1, p - 1) for _ in range(p - 1)]
        for target in range(p):
            assert solve(residues, target, p) is not None


def test_determinism():
    residues = [3, 5, 2, 6, 1]
    a = solve(residues, 4, 7)
    b = _solve(iter(residues), 4, 7, len(residues))
    assert a == b


def test_eliminate_examples():
    T, res = eliminate_prime(Fraction(1, 3), 12, _int64([3, 6, 12]), 3, 1)
    assert T == [6] and res == Fraction(1, 2)
    assert (12 // 3) % res.denominator == 0
    T, res = eliminate_prime(Fraction(1, 4), 12, _int64([3, 6]), 3, 1)
    assert T == [] and res == Fraction(1, 4)
    T, res = eliminate_prime(Fraction(1, 5), 60, _int64([5, 10, 15, 20]), 5, 1)
    assert T == [20] and res == Fraction(1, 4)
    assert (60 // 5) % res.denominator == 0


def test_eliminate_preconditions():
    with pytest.raises(ParameterError):
        eliminate_prime(Fraction(1, 3), 12, _int64([3, 6]), 3, 2)  # 3^2 not || 12
    with pytest.raises(DivisibilityError):
        # 7 does not divide 12
        eliminate_prime(Fraction(1, 7), 12, _int64([3, 6]), 3, 1)
    with pytest.raises(ParameterError, match="p-multiplicity"):
        # element with wrong multiplicity
        eliminate_prime(Fraction(1, 5), 300, _int64([10, 25]), 5, 2)
    with pytest.raises(ParameterError, match="every element of S"):
        # empty S, and d = 4 lacks the 3^1 that exactly divides N = 12
        eliminate_prime(Fraction(1, 4), 12, _int64([]), 3, 1)
    for S in ([6, 3, 12], [3, 6, 6, 12]):  # out of order, a repeat
        with pytest.raises(ParameterError, match="^S must be strictly ascending$"):
            eliminate_prime(Fraction(1, 3), 12, _int64(S), 3, 1)


@pytest.mark.parametrize("p", [4, 9, 15, 91, 561])
def test_eliminate_refuses_a_composite_p_on_every_call(p):
    """The prime check's verdict is cached per p, and a p that is not
    prime is refused on each call, the first and every later one."""
    for _ in range(3):
        with pytest.raises(ParameterError, match=f"^{p} is not prime$"):
            eliminate_prime(Fraction(1, p), p, _int64([p]), p, 1)
    for q in (2, 3, 7, 2**31 - 1):
        assert eliminate_prime(Fraction(0), q, _int64([q]), q, 1) == ([], Fraction(0))


def test_eliminate_unreachable():
    # two equal residues cannot reach every target mod 7
    N = 7 * 16
    got = subset_sums_mod_p([(N // 7) % 7, (N // 14) % 7], 7)
    assert len(got) < 7
    with pytest.raises(EliminationFailed):
        # craft a c/d whose target falls outside the reachable set
        for c in range(1, 7):
            eliminate_prime(Fraction(c, 7), N, _int64([7, 14]), 7, 1)


def _random_valid_instance(rng):
    p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    l = rng.randint(1, 2)
    others = rng.sample([2, 3, 5, 7, 11, 13], k=4)
    others = [q for q in others if q != p][:3]
    exps = {q: rng.randint(2, 4) for q in others}
    n_f = p**l * math.prod(q**e for q, e in exps.items())
    # S: distinct divisors of N / p^l times p^l
    divisors = [1]
    for q, e in exps.items():
        divisors = [d * q**j for d in divisors for j in range(e + 1)]
    rng.shuffle(divisors)
    want = min(len(divisors), p - 1 + rng.randint(0, 3))
    S = [p**l * d for d in divisors[:want]]
    # c/d with d a divisor of N
    d = rng.choice(divisors) * p ** rng.randint(0, l)
    c = rng.randint(1, 50)
    while c % p == 0 and d % p == 0:
        c += 1
    return Fraction(c, d), n_f, S, p, l


def _eliminate_via_lcm(c_over_d, N, S, p, l):
    """Reference elimination: residues of M/n mod p, where M is the lcm of d
    and S."""
    c, d = c_over_d.numerator, c_over_d.denominator
    elements = sorted(S, reverse=True)
    M = math.lcm(d, *elements)
    assert factor_over(M, [q for q, _ in factorize(N)])[p] == l
    m0 = M // d
    target = (-c * m0) % p
    if target == 0:
        return [], c_over_d
    residues = [(M // n) % p for n in elements]
    witness = solve(residues, target, p)
    T = [elements[i] for i in witness]
    num = c * m0 + sum(M // n for n in T)
    return sorted(T), Fraction(num, M)


def _eliminate_scalar(c_over_d, N, S, p, l):
    """Reference elimination that checks and reduces S one Python integer at
    a time (the element-wise form of eliminate_prime); S must be a strictly
    ascending 1-D int64 array."""
    _check_prime(p)
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    if exact_multiplicity(N, p) != l:
        raise ParameterError(
            f"p^l = {p}^{l} must exactly divide N (multiplicity "
            f"{exact_multiplicity(N, p)})"
        )
    c, d = c_over_d.numerator, c_over_d.denominator
    if N % d != 0:
        raise DivisibilityError(f"denominator {d} does not divide N")
    if not (isinstance(S, np.ndarray) and S.dtype == np.int64 and S.ndim == 1):
        form = f"{S.ndim}-D {S.dtype} array" if isinstance(S, np.ndarray) else type(S).__name__
        raise ParameterError(f"elements must be a 1-D int64 array, got {form}")
    elements = sorted({int(n) for n in S}, reverse=True)
    if elements[::-1] != S.tolist():
        raise ParameterError("S must be strictly ascending")
    split = []
    for n in elements:
        if n < 1:
            raise ParameterError(f"elements of S must be positive, got {n}")
        if N % n != 0:
            raise DivisibilityError(f"element {n} does not divide N")
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        split.append((n, e, m))
    d_cof, d_mult = d, 0
    while d_cof % p == 0:
        d_cof //= p
        d_mult += 1
    if max([d_mult] + [e for _, e, _ in split]) != l:
        raise ParameterError(
            f"every element of S must be exactly divisible by {p}^{l}"
        )
    for n, e, _ in split:
        if e != l:
            raise ParameterError(
                f"element {n} has p-multiplicity {e}, expected exactly {l}"
            )
    if d_mult < l:
        return [], c_over_d
    unit = N // p**l % p
    target = -c * unit * pow(d_cof % p, -1, p) % p
    if target == 0:
        return [], c_over_d
    residues = [unit * pow(m % p, -1, p) % p for _, _, m in split]
    witness = solve(residues, target, p)
    if witness is None:
        raise EliminationFailed(
            f"no subset of {len(elements)} multiples reaches the residue "
            f"needed to cancel {p}^{l}",
            prime=p,
            power=l,
            failing_parameter="S",
            suggestion="enlarge S (lower lambda'), or switch x",
        )
    T = [elements[i] for i in witness]
    result = Fraction(c * (N // d) + sum(N // n for n in T), N)
    return sorted(T), result


def test_eliminate_randomized_properties():
    rng = random.Random(101)
    done = 0
    for _ in range(300):
        c_over_d, N, S, p, l = _random_valid_instance(rng)
        if len(S) < p - 1:
            continue
        T, res = eliminate_prime(c_over_d, N, _int64(sorted(S)), p, l)
        assert len(T) < p
        assert (N // p) % res.denominator == 0
        assert res == c_over_d + sum(Fraction(1, n) for n in T)
        # residues taken from N, not from the lcm, pick the same witness
        assert (T, res) == _eliminate_via_lcm(c_over_d, N, S, p, l)
        done += 1
    assert done > 100


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)


@st.composite
def _elimination_case(draw):
    """Elimination inputs, mostly valid, else with one or more faults:
    duplicates, 0 and negative elements, elements not dividing N, elements
    of the wrong p-multiplicity, an empty S, a denominator not dividing N,
    an S out of order or given as a list."""

    def sometimes(strategy, empty):
        return draw(strategy) if draw(st.integers(0, 3)) == 3 else empty

    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    l = draw(st.integers(1, 2))
    others = [q for q in (2, 3, 5, 7, 11) if q != p][:3]
    exps = [draw(st.integers(1, 3)) for _ in others]
    N = p**l * math.prod(q**e for q, e in zip(others, exps))
    cofactors = [1]
    for q, e in zip(others, exps):
        cofactors = [m * q**j for m in cofactors for j in range(e + 1)]
    pl = p**l
    floor = sometimes(st.just(0), min(p - 1, len(cofactors)))
    valid = draw(
        st.lists(st.sampled_from(cofactors), unique=True, min_size=floor, max_size=24)
    )
    S = [pl * m for m in valid]
    for bad in (
        [0, -1, -pl],  # non-positive
        [17, pl * 17],  # not dividing N
        [p ** (l - 1) * cofactors[-1]] + cofactors[1:4],  # wrong multiplicity
    ):
        faults = st.lists(st.sampled_from(bad), min_size=1, max_size=2, unique=True)
        S += sometimes(faults, [])
    if S:
        S += sometimes(st.lists(st.sampled_from(S), max_size=2), [])
    form = draw(st.sampled_from(["list", "shuffled", "ascending", "ascending"]))
    if form == "list":
        S = sorted(S)
    elif form == "shuffled":
        S = _int64(draw(st.permutations(S)))
    else:
        S = _int64(sorted(S))
    d = draw(st.sampled_from(cofactors)) * p ** sometimes(st.integers(0, l - 1), l)
    d *= sometimes(st.just(19), 1)
    c = draw(st.integers(1, 60))
    return Fraction(c, d), N, S, p, l


@settings(max_examples=400, deadline=None)
@given(case=_elimination_case())
@example(case=(Fraction(1, 3), 12, _int64([3, 3, 6]), 3, 1))  # ascending, not strictly
@example(case=(Fraction(1, 3), 12, [3, 6], 3, 1))  # a list
def test_eliminate_matches_scalar_reference(case):
    """Same (T, result), or the same exception type and text, as the
    element-wise reference, for any input form and any mix of faults: a
    list, or an S not strictly ascending, is refused first."""
    want = _outcome(_eliminate_scalar, *case)
    got = _outcome(eliminate_prime, *case)
    assert got == want
    if isinstance(got[0], list):
        assert all(type(n) is int for n in got[0])


_PRIMES_TO_100 = [q for q in range(2, 101) if all(q % d for d in range(2, q))]


@st.composite
def _ample_slice_case(draw):
    """A valid elimination on a strictly ascending slice of at least p-1
    members: p prime up to 100, p^l exactly dividing N, each member p^l
    times a divisor of N/p^l (256 to choose from), and c/d with d | N."""
    p = draw(st.sampled_from(_PRIMES_TO_100))
    l = draw(st.integers(1, 3))
    others = [q for q in (2, 3, 5, 7, 11) if q != p][:4]
    N = p**l * math.prod(q**3 for q in others)
    cofactors = [1]
    for q in others:
        cofactors = [m * q**j for m in cofactors for j in range(4)]
    chosen = draw(
        st.lists(
            st.sampled_from(cofactors), unique=True, min_size=p - 1, max_size=p + 20
        )
    )
    S = np.array(sorted(p**l * m for m in chosen), dtype=np.int64)
    d = draw(st.sampled_from(cofactors)) * p ** draw(st.sampled_from([l, l, l, 0]))
    c = draw(st.integers(1, 4 * p))
    return Fraction(c, d), N, S, p, l


@settings(max_examples=200, deadline=None)
@given(case=_ample_slice_case())
def test_the_p_minus_1_largest_members_give_the_whole_slices_result(case):
    """With |S| >= p-1 the solver's first witness lies among the p-1
    largest members, so eliminating on S[1 - p:] returns the (T, result)
    of the whole slice; the constructor hands over only those."""
    c_over_d, N, S, p, l = case
    assert eliminate_prime(c_over_d, N, S[1 - p :], p, l) == eliminate_prime(
        c_over_d, N, S, p, l
    )


def test_eliminate_rejects_elements_beyond_int64():
    N = 2**70 * 3
    with pytest.raises(ParameterError, match="int64"):
        eliminate_prime(Fraction(1, 3), N, [3 * 2**62, 3 * 2**63], 3, 1)
    with pytest.raises(ParameterError, match="int64"):
        eliminate_prime(Fraction(1, 3), N, np.array([3 * 2**62, 3 * 2**63], object), 3, 1)


@pytest.mark.parametrize(
    "S, message",
    [
        ([5, 5 * 2**33, 5 * 2**40 * 7], "element 38482906972160 does not divide N"),
        ([5, 5 * 7, 5 * 2**33], "element 35 does not divide N"),
        ([5, 5 * 3, 5 * 2**32, 5 * 2**33], None),
    ],
    ids=["large-fails", "small-fails", "all-divide"],
)
def test_eliminate_checks_elements_from_2_32_exactly(S, message):
    """Elements from 2^32 up (never family members) are checked exactly
    too, the largest failing element is reported, and the outcome is the
    element-wise reference's."""
    N = 2**40 * 3**2 * 5
    for d in (5, 15):
        case = (Fraction(1, d), N, _int64(S), 5, 1)
        got = _outcome(eliminate_prime, *case)
        assert got == _outcome(_eliminate_scalar, *case)
        if message:
            assert got == (DivisibilityError, message)
        else:
            assert sum(Fraction(1, n) for n in got[0]) == got[1] - Fraction(1, d)


def test_eliminate_power_beyond_int64():
    """p^l >= 2^63: no int64 element is a multiple of it."""
    N = 2**64 * 3
    for S in ([], [3], [3, 2**62]):
        for d in (1, 2**64):
            case = (Fraction(1, d), N, _int64(S), 2, 64)
            assert _outcome(eliminate_prime, *case) == _outcome(_eliminate_scalar, *case)


@st.composite
def _division_boundary_case(draw):
    """Eliminations with N of 64, 65 or 2100 bits (wider when the elements
    it must hold need more) and elements near 2^32, near 2^63 - 1 or small,
    each p times a cofactor prime to p. Each element is left out of N now
    and then, so that it fails to divide N; S may be empty."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    raw = draw(
        st.lists(
            st.one_of(
                st.integers(2**32 - 2**8, 2**32 + 2**8),
                st.integers(2**63 - 2**8, 2**63 - 1),
                st.integers(1, 2**20),
            ),
            max_size=6,
        )
    )
    cofactors = {m - (m % p == 0) for m in (max(r // p, 1) for r in raw)}
    S = sorted(p * m for m in cofactors)
    held = [n // p for n in S if draw(st.integers(0, 5))]
    M = p * math.lcm(1, *held)
    filler = 2 ** (draw(st.sampled_from([64, 65, 2100])) - 1) // M + 1
    N = M * (filler + (filler % p == 0))
    d = draw(st.sampled_from([1, p]))
    return Fraction(draw(st.integers(1, 50)), d), N, _int64(S), p, 1


@settings(max_examples=200, deadline=None)
@given(case=_division_boundary_case())
@example(case=(Fraction(1, 73), 2 * (2**63 - 1), _int64([73, 146, 2**63 - 1]), 73, 1))
@example(case=(Fraction(1, 17), 2**64 - 1, _int64([17, 17 * 257, 2**32 - 1]), 17, 1))
@example(case=(Fraction(1, 3), 2**65 - 2, _int64([3, 2**32 - 1, 2**32 + 1]), 3, 1))
@example(case=(Fraction(1, 5), 5 * 2**2095, _int64([]), 5, 1))
def test_eliminate_matches_scalar_at_division_boundaries(case):
    """The n | N proof and the elimination agree with the element-wise
    reference for N of 64, 65 and 2100 bits, for elements near 2^32 and up
    to 2^63 - 1 (= 7^2 * 73 * 127 * 337 * 92737 * 649657, so 73 divides it
    exactly once), and for an empty S."""
    assert _outcome(eliminate_prime, *case) == _outcome(_eliminate_scalar, *case)


def _witness_one_short(rs, target, p, t):
    return _solve(rs, target, p, t)[:-1]


def _witness_of_p_elements(rs, target, p, t):
    return tuple(range(p))


@pytest.mark.parametrize(
    "liar, case, message",
    [
        (
            _witness_one_short,
            (Fraction(1, 5), 60, _int64([5, 10, 15, 20]), 5, 1),
            r"postcondition d' \| N/p violated",
        ),
        (
            _witness_of_p_elements,
            (Fraction(1, 3), 12, _int64([3, 6, 12]), 3, 1),
            "witness cardinality >= p",
        ),
    ],
    ids=["one-index-short", "p-indices"],
)
def test_eliminate_guard_fires_on_a_lying_solver(liar, case, message, monkeypatch):
    """eliminate_prime re-checks the solver's witness: one that drops its
    last index leaves p in the denominator, and one of p indices is too
    large to be the solver's."""
    monkeypatch.setattr(modular, "_solve", liar)
    with pytest.raises(AssertionError, match=message):
        eliminate_prime(*case)
