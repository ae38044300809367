"""Time the verifier's tree_sum on its worst cases and on real documents.

    python tools/tree_sum_cases.py --ref HEAD~1 --rounds 5

Run from anywhere inside a checkout. Times verify.tree_sum of this
checkout's src/densefrac, and with --ref also that of the git revision REV
(exported with git archive into a temporary directory and imported under
another package name), in alternating rounds within one process, and
prints the median ns per denominator of each case and the change against
REV. Every round checks that both trees return the same sum.

The cases: the adversarial inputs that shaped the verifier (20k distinct
primes below 2^21; 1..10^4 as a range and as an int64 array; 100k random
ints up to 10^6; distinct primes near 2^20, about 2/3 of the run's bit cap
per block, shuffled over 100 blocks, so that the run passes the cap) and
the sorted denominators of r = 1 at x = 10^5, 10^6 and 10^7,
built by this checkout's constructor. Writes nothing inside the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_ref(ref: str, tmp: str, module: str):
    """src/densefrac/<module>.py of the git revision ref, exported into the
    directory tmp (git archive) and imported under the package name
    densefrac_ref."""
    archive = subprocess.run(
        ["git", "archive", ref, "src/densefrac"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    pkg = Path(tmp) / "src" / "densefrac"
    spec = importlib.util.spec_from_file_location(
        "densefrac_ref", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["densefrac_ref"] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"densefrac_ref.{module}")


def cases() -> dict:
    """{name: input of tree_sum}, each built with fixed seeds."""
    from densefrac.construct import construct_dense
    from densefrac.verify import _BLOCK as block, _RUN_BITS as cap
    from oracles import primes_in

    rng = np.random.default_rng(0)
    primes_21 = np.array(primes_in(2, 2**21), dtype=np.int64)
    per_block = cap // 21 * 2 // 3
    near_20 = np.array(primes_in(2**20, 2**21)[: 100 * per_block], dtype=np.int64)
    past_cap = np.tile(np.arange(1, 17, dtype=np.int64), 100 * block // 16)
    for i in range(100):
        past_cap[i * block : i * block + per_block] = near_20[i * per_block : (i + 1) * per_block]
    out = {
        "20k primes < 2^21": np.sort(rng.choice(primes_21, 20_000, replace=False)),
        "1..10^4 range": range(1, 10**4 + 1),
        "1..10^4 int64": np.arange(1, 10**4 + 1, dtype=np.int64),
        "100k ints <= 10^6": np.sort(rng.integers(1, 10**6 + 1, 100_000)),
        "run past the cap": rng.permutation(past_cap),
    }
    for k in (5, 6, 7):
        out[f"r = 1, x = 10^{k}"] = construct_dense(Fraction(1), 10**k).denominators()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))  # the stdlib prime sieve in oracles.py
    trees = {"here": importlib.import_module("densefrac.verify")}
    with tempfile.TemporaryDirectory() as tmp:
        if args.ref:
            trees = {args.ref: load_ref(args.ref, tmp, "verify"), **trees}
        inputs = cases()
        header = f"{'case':<22}{'size':>9}" + "".join(f"{k:>14}" for k in trees)
        print(header + ("  change" if args.ref else "") + "   (ns per denominator)")
        for name, elements in inputs.items():
            times = {k: [] for k in trees}
            for i in range(args.rounds):
                order = list(trees) if i % 2 == 0 else list(reversed(trees))
                sums = set()
                for k in order:
                    t = time.perf_counter()
                    sums.add(trees[k].tree_sum(elements))
                    times[k].append(time.perf_counter() - t)
                if len(sums) != 1:
                    print(f"{name}: the trees disagree", file=sys.stderr)
                    return 1
            ns = {k: statistics.median(v) / len(elements) * 1e9 for k, v in times.items()}
            line = f"{name:<22}{len(elements):>9}" + "".join(f"{v:>14.1f}" for v in ns.values())
            if args.ref:
                line += f"  {ns['here'] / ns[args.ref] - 1:+7.1%}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
