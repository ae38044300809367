"""Check that two source trees construct the same documents and refusals.

    python tools/parity.py --ref HEAD~1 --seed 5 --random 300

Run from anywhere inside a checkout. Exports src/densefrac of the git
revision --ref into a temporary directory (git archive), then runs the same
targets against it and against this checkout's src/densefrac, each tree in
its own subprocess. A certified target is compared by the sha256 of its
certificate document, by whether from_json reads the document back (with
the newline construct --out adds) to the same text, and by
recheck_document's consistent flag on what it read; a refused one by its
error's as_dict(). Prints every mismatch and exits 1 on any, 0 when every
target matches.

The targets: grid-1e6; sweep-1e5 at seed 0 and at --seed; the golden
documents (tests/test_certificate.py) and golden refusals
(tests/test_construct.py); and --random targets r = a/b with b <= 40 and
r <= 3, x log-uniform in [10^2, 10^5], each with one of RANDOM_OPTIONS,
drawn with --seed. Writes nothing inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANDOM_OPTIONS = [
    {},
    {"delta": "1/30"},
    {"k": 4},
    {"y_prime": 12},
    {"epsilon": 0.02, "k": 4},
]


def targets(seed: int, random_count: int) -> list:
    """[(r as "a/b", x, options)], without repeats; a delta option is a
    string that Fraction parses."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    from run import workload_targets
    from test_certificate import GOLDEN_DOCUMENTS
    from test_construct import GOLDEN_REFUSALS

    out = [(r, x, {}) for r, x in workload_targets("grid-1e6", 0)]
    for s in sorted({0, seed}):
        out += [(r, x, {}) for r, x in workload_targets("sweep-1e5", s)]
    for r, x, options, *_ in GOLDEN_DOCUMENTS + GOLDEN_REFUSALS:
        options = {k: str(v) if k == "delta" else v for k, v in options.items()}
        out.append((r, x, options))
    rng = random.Random(seed)
    for _ in range(random_count):
        b = rng.randint(1, 40)
        r = Fraction(rng.randint(1, 3 * b), b)
        x = round(10 ** rng.uniform(2, 5))
        out.append((f"{r.numerator}/{r.denominator}", x, rng.choice(RANDOM_OPTIONS)))
    unique = {json.dumps(t, sort_keys=True): t for t in out}
    return list(unique.values())


def worker(src: str) -> None:
    """Construct every target read from stdin with the densefrac in src;
    write one outcome per target to stdout."""
    sys.path.insert(0, src)
    from densefrac.certificate import (
        CertificateDocument,
        document_from_representation,
        recheck_document,
    )
    from densefrac.construct import construct_dense
    from densefrac.errors import DensefracError

    outcomes = []
    for r, x, options in json.load(sys.stdin):
        options = {k: Fraction(v) if k == "delta" else v for k, v in options.items()}
        try:
            rep = construct_dense(Fraction(r), x, **options)
        except DensefracError as err:
            outcomes.append({"refusal": err.as_dict()})
        except Exception as err:  # a crash must match as well
            outcomes.append({"crash": f"{type(err).__name__}: {err}"})
        else:
            text = document_from_representation(rep).to_json()
            outcome = {"certified": hashlib.sha256(text.encode()).hexdigest()}
            try:
                doc = CertificateDocument.from_json(text + "\n")
                outcome["reads_back"] = doc.to_json() == text
                outcome["consistent"] = recheck_document(doc)[1]
            except DensefracError as err:
                outcome["read_refused"] = err.as_dict()
            outcomes.append(outcome)
    json.dump(outcomes, sys.stdout, default=str)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--random", type=int, default=0, metavar="N")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.ref:
        ap.error("--ref is required")
    todo = targets(args.seed, args.random)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", args.ref, "src/densefrac"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        runs = [
            subprocess.Popen(
                [sys.executable, "-B", __file__, "--worker", src],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for src in (str(Path(tmp) / "src"), str(ROOT / "src"))
        ]
        for proc in runs:
            proc.stdin.write(json.dumps(todo))
            proc.stdin.close()
        ref, new = (json.loads(proc.stdout.read()) for proc in runs)
        if any(proc.wait() for proc in runs):
            print("a worker failed", file=sys.stderr)
            return 2
    mismatches = 0
    for target, a, b in zip(todo, ref, new):
        if a != b:
            mismatches += 1
            print(f"MISMATCH {target}\n  {args.ref}: {a}\n  here: {b}")
    kinds = Counter(
        outcome["refusal"]["code"] if "refusal" in outcome else next(iter(outcome))
        for outcome in new
    )
    print(f"{len(todo)} targets, {mismatches} mismatches; outcomes here: {dict(kinds)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
