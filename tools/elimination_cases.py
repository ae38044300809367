"""Replay the constructor's elimination steps against another revision.

    python tools/elimination_cases.py --ref HEAD~1 --rounds 15

Run from anywhere inside a checkout. Records every eliminate_prime call
that this checkout's constructor makes on grid-1e6 and on sweep-1e5 seed 0
(a wrapper on construct.eliminate_prime keeps each call's arguments). Then
replays the calls against modular.eliminate_prime of this checkout and,
with --ref, of the git revision REV (loaded as tools/tree_sum_cases.py
does), in alternating rounds within one process. Every call must give the
same (T, result), or the same exception type and text, in both trees.
Prints the median us per call of each workload and the change against
REV, and ends with one JSON line. Exits 1 when the trees disagree. Writes
nothing inside the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import tempfile
import time
from fractions import Fraction

from tree_sum_cases import ROOT, load_ref

WORKLOADS = ("grid-1e6", "sweep-1e5")


def record(name: str) -> list:
    """The argument tuples of every eliminate_prime call that constructing
    the targets of workload name (seed 0) makes, in order."""
    from densefrac import construct
    from densefrac.errors import DensefracError
    from run import workload_targets

    calls = []
    eliminate = construct.eliminate_prime

    def recording(*args):
        calls.append(args)
        return eliminate(*args)

    construct.eliminate_prime = recording
    try:
        for r, x in workload_targets(name, 0):
            try:
                construct.construct_dense(Fraction(r), x)
            except DensefracError:
                pass
    finally:
        construct.eliminate_prime = eliminate
    return calls


def outcomes(eliminate, calls: list) -> list:
    out = []
    for args in calls:
        try:
            out.append(eliminate(*args))
        except Exception as err:  # noqa: BLE001 - the type and text are compared
            out.append((type(err).__name__, str(err)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    trees = {"here": importlib.import_module("densefrac.modular")}
    report = {"ref": args.ref, "rounds": args.rounds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        if args.ref:
            trees = {args.ref: load_ref(args.ref, tmp, "modular"), **trees}
        print(f"{'workload':<12}{'calls':>7}" + "".join(f"{k:>12}" for k in trees)
              + ("  change" if args.ref else "") + "   (us per call)")
        for name in WORKLOADS:
            calls = record(name)
            seen = {k: outcomes(tree.eliminate_prime, calls) for k, tree in trees.items()}
            same = all(v == seen["here"] for v in seen.values())
            if not same:
                print(f"{name}: the trees disagree", file=sys.stderr)
            times = {k: [] for k in trees}
            for i in range(args.rounds):
                for k in list(trees) if i % 2 == 0 else list(reversed(trees)):
                    t = time.perf_counter()
                    outcomes(trees[k].eliminate_prime, calls)
                    times[k].append(time.perf_counter() - t)
            us = {k: statistics.median(v) / len(calls) * 1e6 for k, v in times.items()}
            entry = {"calls": len(calls), "identical": same, "us_per_call": us}
            line = f"{name:<12}{len(calls):>7}" + "".join(f"{v:>12.1f}" for v in us.values())
            if args.ref:
                entry["change"] = round(us["here"] / us[args.ref] - 1, 4)
                line += f"  {entry['change']:+7.1%}"
            print(line, flush=True)
            report["workloads"][name] = entry
    print(json.dumps(report))
    return 0 if all(w["identical"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
