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
CERTIFICATE = "src/densefrac/certificate.py"
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
        "mass pass checks remainders only in its first chunk",
        SMOOTH,
        (("        bad |= r != 0\n", "        bad |= (r != 0) & (start == 0)\n"),),
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
    # The constructor kernels' one intake (a 1-D int64 array, strictly
    # ascending for choose_lambda and eliminate_prime) and division loop.
    (
        "intake converts a sequence, truncating non-integral values",
        SMOOTH,
        (
            (
                '    raise ParameterError(f"elements must be a 1-D int64 array, got {form}")\n',
                "    return np.array([int(v) for v in values], dtype=np.int64)\n",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "intake converts a sequence, wrapping values outside int64",
        SMOOTH,
        (
            (
                '    raise ParameterError(f"elements must be a 1-D int64 array, got {form}")\n',
                "    return np.array([(int(v) + 2**63) % 2**64 - 2**63 for v in values],"
                " dtype=np.int64)\n",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "_as_int64 accepts any ndarray dtype",
        SMOOTH,
        (
            (
                "if isinstance(values, np.ndarray) and values.dtype == np.int64 and",
                "if isinstance(values, np.ndarray) and",
            ),
        ),
        ["tests/test_smooth.py"],
    ),
    (
        "choose_lambda accepts a pool that is not strictly ascending",
        SMOOTH,
        (("    if (pool[1:] <= pool[:-1]).any():\n", "    if False:\n"),),
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
    # Each elimination step hands over only the p-1 largest members of its
    # slice. Counting thin steps on that capped slice is not listed: it is
    # equivalent (min(|S|, p-1) < p-1 iff |S| < p-1), so nothing can kill it.
    (
        "elimination handed one member fewer than p-1",
        CONSTRUCT,
        (("S[1 - p :], p, l)", "S[2 - p :], p, l)"),),
        ["tests/test_construct.py"],
    ),
    (
        "elimination handed the p-1 smallest members",
        CONSTRUCT,
        (("S[1 - p :], p, l)", "S[: p - 1], p, l)"),),
        ["tests/test_construct.py"],
    ),
    (
        "thin_eliminations counts a slice of exactly p-1 members",
        CONSTRUCT,
        (("if len(S) < p - 1:", "if len(S) <= p - 1:"),),
        ["tests/test_construct.py"],
    ),
    # Elimination on Python ints, and the constructor's integer telescoping
    # identity.
    (
        "eliminate_prime checks divisibility only of the elements the solver reads",
        MODULAR,
        (
            (
                "        if N % n:\n"
                '            raise DivisibilityError(f"element {n} does not divide N")\n',
                "",
            ),
            (
                "    residues = (unit * pow(n // pl % p, -1, p) % p for n in elements)\n",
                "    def _divisor(n):\n"
                "        if N % n:\n"
                '            raise DivisibilityError(f"element {n} does not divide N")\n'
                "        return n\n\n"
                "    residues = (unit * pow(n // pl % p, -1, p) % p"
                " for n in map(_divisor, elements))\n",
            ),
        ),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime checks divisibility of the first 8 elements only",
        MODULAR,
        (("        if N % n:\n", "        if N % n and n in elements[:8]:\n"),),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime skips the smallest element's divisibility",
        MODULAR,
        (("        if N % n:\n", "        if N % n and n != elements[-1]:\n"),),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime drops the multiplicity check",
        MODULAR,
        (("    if inexact:\n", "    if False:\n"),),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime takes a non-decreasing S as strictly ascending",
        MODULAR,
        (
            (
                "if not all(map(operator.lt, ascending, ascending[1:])):",
                "if not all(map(operator.le, ascending, ascending[1:])):",
            ),
        ),
        ["tests/test_modular.py"],
    ),
    (
        "eliminate_prime accepts an S that is not strictly ascending",
        MODULAR,
        (
            (
                "    if not all(map(operator.lt, ascending, ascending[1:])):\n"
                '        raise ParameterError("S must be strictly ascending")\n',
                "",
            ),
        ),
        ["tests/test_modular.py"],
    ),
    (
        "telescoping identity drops its factor L",
        CONSTRUCT,
        (
            (
                "if (c * b - a * d) * L != s * b * d:",
                "if c * b - a * d != s * b * d:",
            ),
        ),
        ["tests/test_construct.py"],
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
    # The document writer: int64 gap arrays through a table of decimal text.
    (
        "gap text table shifted by one",
        CERTIFICATE,
        (("[str(n) for n in range(1024)]", "[str(n + 1) for n in range(1024)]"),),
        ["tests/test_certificate.py"],
    ),
    (
        "gaps outside the table written from a clipped entry",
        CERTIFICATE,
        (
            ("np.where(inside, gaps, 0)", "np.clip(gaps, 0, _TEXT.size - 1)"),
            ("    text[outside] = [str(g) for g in gaps[outside].tolist()]\n", ""),
        ),
        ["tests/test_certificate.py"],
    ),
    (
        "decode_deltas accepts an ndarray of any dtype",
        CERTIFICATE,
        (
            (
                "if not (_is_gaps(deltas) and",
                "if not (type(deltas) is np.ndarray and",
            ),
        ),
        ["tests/test_certificate.py"],
    ),
    (
        "writer's span bound goes back to 2^63",
        CERTIFICATE,
        (("if int(a[-1]) - int(a[0]) >= 10**_MAX_DIGITS:", "if int(a[-1]) - int(a[0]) >= 2**63:"),),
        ["tests/test_certificate.py"],
    ),
    (
        "part names written unsorted",
        CERTIFICATE,
        (
            (
                "    return _join({name: _part_json(part) for name, part in parts.items()})\n",
                '    return "{" + ",".join(f"{_encode(n)}:{_part_json(p)}"'
                ' for n, p in parts.items()) + "}"\n',
            ),
        ),
        ["tests/test_certificate.py"],
    ),
    # The document reader: gap lists read into int64 arrays, and only the
    # writer's text accepted.
    (
        "gap reader drops the byte test",
        CERTIFICATE,
        (("        not np.array_equal(digits >= 10, commas)\n        or ", "        "),),
        ["tests/test_certificate.py"],
    ),
    (
        "gap reader drops the leading-zero test",
        CERTIFICATE,
        (("        or (digits[ends - width] == 0)[width > 1].any()\n", ""),),
        ["tests/test_certificate.py"],
    ),
    (
        "gap reader drops the empty-item test",
        CERTIFICATE,
        (("        or width.min() < 1\n", ""),),
        ["tests/test_certificate.py"],
    ),
    (
        "gap reader reads 19 digits",
        CERTIFICATE,
        (("_MAX_DIGITS = 18", "_MAX_DIGITS = 19"),),
        ["tests/test_certificate.py"],
    ),
    (
        "reader skips the writer comparison",
        CERTIFICATE,
        (('if doc.to_json() != emptied.removesuffix("\\n"):', "if False:"),),
        ["tests/test_certificate.py"],
    ),
    (
        "reader skips the count check",
        CERTIFICATE,
        (("if len(holders) != len(gaps):", "if False:"),),
        ["tests/test_certificate.py"],
    ),
    (
        "reader falls back to json.loads on a refused text",
        CERTIFICATE,
        (
            (
                '            raise ParameterError("certificate text is not as construct writes it")\n',
                "            raw = json.loads(text)\n"
                "            doc = cls(**{field.name: raw[field.name] for field in fields(cls)})\n"
                "            holders, gaps = [], []\n",
            ),
        ),
        ["tests/test_certificate.py"],
    ),
    (
        "reader leaves a gap list that is not plain digits in place",
        CERTIFICATE,
        (
            (
                "        gaps.append(_read_gaps(data, at, end))\n",
                "        try:\n"
                "            gaps.append(_read_gaps(data, at, end))\n"
                "        except ParameterError:\n"
                "            continue\n",
            ),
        ),
        ["tests/test_certificate.py"],
    ),
    (
        "reader accepts any number of trailing newlines",
        CERTIFICATE,
        (('emptied.removesuffix("\\n")', 'emptied.rstrip("\\n")'),),
        ["tests/test_certificate.py"],
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
