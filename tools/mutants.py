"""Run the committed mutants: each one a small edit that a guard's tests must catch.

    python tools/mutants.py [--out]

Run from anywhere inside a checkout. For each mutant in MUTANTS, copies
src/, tests/ and pyproject.toml into a temporary directory, applies the
mutant's edits there (each old text must occur exactly once in its file),
and runs `python -m pytest -q -x` on the mutant's test files. A failing run
kills the mutant; a passing one means it survived. The unedited copy is run
first on every listed test file, so a kill is never a test that fails
anyway. Prints one JSON report; with --out it is also written to
BENCH_mutants_<short sha>.json at the root of the checkout. Exits 1 when
a mutant survived or a run could not be judged. Stdlib only; not part of
the test suite, and it writes nothing else inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTRUCT = "src/densefrac/construct.py"
SMOOTH = "src/densefrac/smooth.py"
MODULAR = "src/densefrac/modular.py"
EXPAND = "src/densefrac/expand.py"
ARITH = "src/densefrac/arith.py"
VERIFY = "src/densefrac/verify.py"
TIMEOUT_S = 900  # per pytest run; a run that hangs is reported as an error

#: (name, file, ((old, new), ...), test files). Each edit weakens one guard
#: or one step of a kernel; the listed tests are the ones that must catch it.
MUTANTS = [
    # One sieve per x: (y, w, k) families as views of one table, and the
    # planning mass summed per group.
    (
        "planning view key drops k",
        CONSTRUCT,
        (("key = (y, w, k)", "key = (y, w)"),),
        ["tests/test_construct.py"],
    ),
    (
        "planning sieve stored before its first mass pass",
        CONSTRUCT,
        (
            (
                "        views = {}\n",
                "        views = {}\n        _planning = sieve, views\n",
            ),
        ),
        ["tests/test_construct.py"],
    ),
    (
        "kept sieve serves another x",
        CONSTRUCT,
        (("_planning[0].params.x != x or ", ""),),
        ["tests/test_construct.py"],
    ),
    (
        "kept sieve serves a larger y",
        CONSTRUCT,
        ((" or _planning[0].params.y < y", ""),),
        ["tests/test_construct.py"],
    ),
    (
        "view drops the k-free condition",
        SMOOTH,
        (
            (
                "admitted = (lpf <= y) & (top < k) & (square <= w)",
                "admitted = (lpf <= y) & (square <= w)",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "view drops the q <= w condition",
        SMOOTH,
        (
            (
                "admitted = (lpf <= y) & (top < k) & (square <= w)",
                "admitted = (lpf <= y) & (top < k)",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "members tables keyed without w",
        SMOOTH,
        (("conditions = (y, min(w, y), k)", "conditions = (y, k)"),),
        ["tests/test_smooth.py"],
    ),
    (
        "A0 flags set only up to the first view's x'",
        SMOOTH,
        (
            (
                "math.isqrt(int(n.max(initial=0)))",
                "math.isqrt(self.params.x)",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "grouped mass pass skips its zero-remainder check",
        SMOOTH,
        (("        bad |= r != 0\n", "        bad |= (r != 0) & (group is None)\n"),),
        ["tests/test_smooth.py", "tests/test_construct.py"],
    ),
    (
        "family arrays stay writeable",
        SMOOTH,
        (("    a.flags.writeable = False\n", "    pass\n"),),
        ["tests/test_smooth.py"],
    ),
    (
        "prime-check cache answers True for every p",
        MODULAR,
        (("    return is_prime(p)\n", "    return True\n"),),
        ["tests/test_modular.py"],
    ),
    # The cutoff walks (delta's window; one walk for lambda and lambda'), and
    # the planner's bounded factorization of r's denominator.
    (
        "cutoff walk keeps a remainder that is not positive",
        CONSTRUCT,
        (
            (
                "    if num * r.denominator >= r.numerator * m:"
                "  # remainder not positive\n",
                "    if False:  # remainder not positive\n",
            ),
        ),
        ["tests/test_construct.py"],
    ),
    (
        "whole-group walk takes a group past r - delta",
        SMOOTH,
        (
            (
                "        if total + group_sum >= limit:\n",
                "        if total >= limit:\n",
            ),
        ),
        ["tests/test_smooth.py", "tests/test_construct.py"],
    ),
    (
        "walk takes the element that reaches its limit",
        SMOOTH,
        (("        if total + step >= limit:\n", "        if total + step > limit:\n"),),
        ["tests/test_smooth.py", "tests/test_construct.py"],
    ),
    (
        "factorize returns its partial factors past TRIAL_BOUND",
        ARITH,
        (("            return None\n", "            return tuple(factors)\n"),),
        ["tests/test_construct.py"],
    ),
    # The constructor kernels' one int64 intake and division loop.
    (
        "intake truncates non-integral values",
        SMOOTH,
        (("vals.append(operator.index(v))", "vals.append(int(v))"),),
        ["tests/test_smooth.py"],
    ),
    (
        "intake wraps values outside int64",
        SMOOTH,
        (
            (
                "return np.array(vals, dtype=np.int64)",
                "return np.array([(v + 2**63) % 2**64 - 2**63 for v in vals],"
                " dtype=np.int64)",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "choose_lambda accepts pool elements below 1",
        SMOOTH,
        (("    if pool[0] < 1:\n", "    if False:\n"),),
        ["tests/test_smooth.py"],
    ),
    (
        "reciprocal_sum accepts elements below 1",
        SMOOTH,
        (("bad = chunk < 1", "bad = np.zeros(chunk.size, dtype=bool)"),),
        ["tests/test_smooth.py"],
    ),
    (
        "reciprocal_sum accepts nonzero remainders",
        SMOOTH,
        (("        bad |= r != 0\n", ""),),
        ["tests/test_smooth.py"],
    ),
    (
        "reciprocal_sum limbs one bit too wide",
        SMOOTH,
        (
            (
                "s = min(64 - int(n.max()).bit_length(), 50)",
                "s = min(65 - int(n.max()).bit_length(), 50)",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    # Elimination with one array pass per slice.
    (
        "eliminate_prime checks divisibility only of the elements the solver reads",
        MODULAR,
        (
            (
                "remainders = limb_remainders(N, elements[:n_pos])",
                "remainders = limb_remainders(N, elements[:0])",
            ),
            (
                "    residues = (unit * pow(n // pl % p, -1, p) % p"
                " for n in map(int, elements))\n",
                "    def _divisor(n):\n"
                "        if N % int(n):\n"
                '            raise DivisibilityError(f"element {n} does not divide N")\n'
                "        return int(n)\n\n"
                "    residues = (unit * pow(n // pl % p, -1, p) % p"
                " for n in map(_divisor, elements))\n",
            ),
        ),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime checks divisibility of the first 8 elements only",
        MODULAR,
        (
            (
                "remainders = limb_remainders(N, elements[:n_pos])",
                "remainders = limb_remainders(N, elements[: min(n_pos, 8)])",
            ),
        ),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime drops the multiplicity check",
        MODULAR,
        (("    if not exact.all():\n", "    if False:\n"),),
        ["tests/test_modular.py"],
    ),
    (
        "limb_remainders head one bit too wide",
        SMOOTH,
        (
            (
                "tail = -(-max(m.bit_length() - 64, 0) // s) * s",
                "tail = -(-max(m.bit_length() - 65, 0) // s) * s",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "limb_remainders limbs one bit too wide",
        SMOOTH,
        (
            (
                "s = 64 - int(n.max(initial=1)).bit_length()",
                "s = 65 - int(n.max(initial=1)).bit_length()",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "eliminate_prime takes residues from n instead of n / p^l",
        MODULAR,
        (("pow(n // pl % p, -1, p)", "pow(n % p, -1, p)"),),
        ["tests/test_modular.py"],
    ),
    # The verifier's kernel: limb width, growth budget, stale quotients.
    (
        "verifier limbs up to 53 bits",
        VERIFY,
        (("_WIDTH = 52", "_WIDTH = 53"),),
        ["tests/test_verify.py"],
    ),
    (
        "verifier limb width 65 - bits",
        VERIFY,
        (
            (
                "width = min(64 - int(n.max(initial=1)).bit_length(), _WIDTH)",
                "width = min(65 - int(n.max(initial=1)).bit_length(), _WIDTH)",
            ),
        ),
        ["tests/test_verify.py"],
    ),
    (
        "verifier growth budget one bit too large",
        VERIFY,
        (
            (
                "budget = _RUN_BITS - m.bit_length()",
                "budget = _RUN_BITS - m.bit_length() + 1",
            ),
        ),
        ["tests/test_verify.py"],
    ),
    (
        "verifier drops the stale quotients",
        VERIFY,
        (
            (
                "num = (num + total - stale) * scale",
                "num = (num + total) * scale",
            ),
        ),
        ["tests/test_verify.py"],
    ),
    (
        "exact_multiplicity accepts p below 2",
        ARITH,
        (("    if p < 2:", "    if False:"),),
        ["tests/test_arith.py"],
    ),
    # The odd expander's prime table.
    (
        "SMALL_PRIMES without 7",
        ARITH,
        (("(2, 3, 5, 7, 11,", "(2, 3, 5, 11,"),),
        ["tests/test_arith.py", "tests/test_expand.py"],
    ),
    (
        "_factor accepts a leftover cofactor",
        EXPAND,
        (("if math.prod(p**e for p, e in factors.items()) != d:", "if False:"),),
        ["tests/test_expand.py"],
    ),
    (
        "expander ladder floor max(P(d), 7) cut to P(d)",
        EXPAND,
        (
            (
                "bisect_right(SMALL_PRIMES, max(pd, 7))",
                "bisect_right(SMALL_PRIMES, pd)",
            ),
        ),
        ["tests/test_expand.py"],
    ),
    (
        "expand_odd reads P(d) as the smallest factor",
        EXPAND,
        (("pd = max(_factor(d), default=1)", "pd = min(_factor(d), default=1)"),),
        ["tests/test_expand.py"],
    ),
    (
        "breusch_bound's product starts at 3",
        EXPAND,
        (("SMALL_PRIMES[2:]", "SMALL_PRIMES[1:]"),),
        ["tests/test_expand.py"],
    ),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(dest: Path, file: str, edits) -> None:
    path = dest / file
    text = path.read_text()
    for old, new in edits:
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{file}: {old!r} occurs {count} times, not once")
        text = text.replace(old, new)
    path.write_text(text)


def run_tests(tree: Path, tests: list) -> tuple:
    """(pytest exit code or None on timeout, seconds, the first failed test)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            cmd + tests,
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        code = done.returncode
        failed = [
            line.split()[1]
            for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ]
    except subprocess.TimeoutExpired:
        code, failed = None, []
    return code, round(time.perf_counter() - t0, 2), (failed or [None])[0]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--out", action="store_true", help="write BENCH_mutants_<sha>.json"
    )
    args = ap.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        every_file = sorted({f for *_, tests in MUTANTS for f in tests})
        code, *_ = run_tests(clean, every_file)
        if code != 0:
            raise SystemExit(f"the unedited tree fails {every_file} (exit {code})")
        for i, (name, file, edits, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            apply(tree, file, edits)
            code, seconds, failed = run_tests(tree, tests)
            shutil.rmtree(tree)
            # pytest: 1 tests failed, 2 collection or import error
            status = {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")
            results.append(
                {
                    "name": name,
                    "file": file,
                    "tests": tests,
                    "status": status,
                    "exit": code,
                    "killed_by": failed,
                    "seconds": seconds,
                }
            )
            print(f"{status:8} {seconds:7.1f}s  {name}", file=sys.stderr)

    dirty = bool(git("status", "--porcelain", "--", "src", "tests"))
    report = {
        "commit": git("rev-parse", "--short", "HEAD"),
        "src_or_tests_modified": dirty,
        "killed": sum(r["status"] == "killed" for r in results),
        "survived": sum(r["status"] == "survived" for r in results),
        "error": sum(r["status"] == "error" for r in results),
        "mutants": results,
    }
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        (ROOT / f"BENCH_mutants_{report['commit']}.json").write_text(text + "\n")
    return 0 if report["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
