"""densefrac benchmark: construct + certify + re-verify, end to end.

    python3 perfbench/run.py --workload grid-1e6 --seed 0 --seconds 50 --trace 0

Run from the root of a checkout (the directory holding src/densefrac).
Each iteration runs every target of the workload in a fresh child process
(perfbench/child.py); one child runs at a time and each is single-threaded.
Iterations repeat for about --seconds (at least one; the run stops at the
count whose end lands nearest). Each round also starts children that only
import densefrac, for setup_s.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the iterations (setup_s: over every child started). The times are adjusted
for the host's speed: the host slows by a third and more for seconds to
minutes at a time, so each timed step is divided by the time of a fixed
pure-Python loop taken around it in the same process, and reported at the
speed at which that loop takes CAL_REF_S (see adjusted()). The unadjusted
wall times are printed on stderr. --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones, as
medians; trace.overhead_s is the traced wall_s minus the untraced wall_s.
The spans and the self-time table of the last traced iteration are written
to .perfbench/trace-<workload>-seed<seed>.json, the table is printed on
stderr, and every iteration's records go to
.perfbench/records-<workload>-seed<seed>.json.

Output checks (any failure sets "correct" to false): every target that
certifies must yield a document that re-verifies all_ok and consistent,
and each target's outcome and document sha256 must be identical across
iterations, traced or not, and across runs of the same source code in the
same checkout (kept in .perfbench/digests-<hash of src/densefrac>.json).

--smoke runs every target at x = 10^4, for the benchmark's own test.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBES_PER_ROUND = 2
# density_over_c_min is taken over the targets with r >= this; all of them
# certify at the seed commit, so a fix that makes small r certify cannot
# lower it.
DENSITY_MIN_R = Fraction(1, 3)
# Timings are reported at the host speed at which child.loop_time() takes
# this long (near the fastest seen on a 2-vCPU Xeon VM, so that the figures
# stay close to unadjusted wall times there).
CAL_REF_S = 0.0014
SMOKE_X = 10**4
SWEEP_SIZE = 55
# Seed 0's enumeration has 6 targets with r <= 1/7; every other seed draws
# as many from there.
SMALL_R = Fraction(1, 7)
SWEEP_SMALL = 6
STATE_DIR = Path(".perfbench")
# A run must end within 180 s; children are stopped at this deadline.
RUN_DEADLINE_S = 170


def _cube_free(n: int) -> bool:
    return all(n % (p * p * p) for p in range(2, round(n ** (1 / 3)) + 2))


def sweep_pool(max_b: int) -> list:
    """Reduced a/b in (0, 6/5] with b <= max_b, ascending."""
    vals = {
        Fraction(a, b)
        for b in range(1, max_b + 1)
        for a in range(1, 6 * b // 5 + 1)
        if gcd(a, b) == 1
    }
    return sorted(vals)


def sweep_targets(seed: int) -> list:
    """Seed 0: all 55 targets a/b <= 6/5 with b <= 12. Other seeds: 55 of
    the a/b <= 6/5 with cube-free b <= 30 (so P(b) <= 29, below w = 31 at
    x = 10^5), drawn in two strata that keep seed 0's mix: SWEEP_SMALL of
    them with r <= SMALL_R (which end in ParameterError at the seed commit,
    ROADMAP item 4) and the rest above. Each stratum is sorted by value, cut
    into equal slices, and one target is drawn from each slice. So every
    seed attempts the same number of small r, and the spread between seeds
    measures the program, not the draw."""
    if seed == 0:
        return sweep_pool(12)
    pool = [f for f in sweep_pool(30) if _cube_free(f.denominator)]
    rng = random.Random(seed)
    drawn = []
    for stratum, count in (([f for f in pool if f <= SMALL_R], SWEEP_SMALL),
                           ([f for f in pool if f > SMALL_R], SWEEP_SIZE - SWEEP_SMALL)):
        edges = [round(i * len(stratum) / count) for i in range(count + 1)]
        drawn += [rng.choice(stratum[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    return drawn


def workload_targets(name: str, seed: int) -> list:
    """[(r as "a/b", x)] for a workload. Only sweep-1e5 depends on the seed."""
    if name == "grid-1e6":
        rs, x = [Fraction(1, 3), Fraction(1, 2), Fraction(1)], 10**6
    elif name == "scale-1e7":
        rs, x = [Fraction(1)], 10**7
    elif name == "sweep-1e5":
        rs, x = sweep_targets(seed), 10**5
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [(f"{r.numerator}/{r.denominator}", x) for r in rs]


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(extra: list, deadline: float, targets=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(HERE / "child.py"), "--t0", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(targets) if targets is not None else "",
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def adjusted(rec: dict) -> dict:
    """A target's step times at the reference host speed: each divided by
    the host's slowness during it (child.loop_time() / CAL_REF_S)."""
    c_construct, c_after = rec["cal_s"]
    construct = rec["construct_s"] * CAL_REF_S / c_construct
    after = CAL_REF_S / c_after
    serialize = rec["serialize_s"] * after
    verify = (rec["parse_s"] + rec["recheck_s"]) * after
    return {"wall_s": construct + serialize + verify, "construct_s": construct,
            "verify_s": verify}


def summarize(results: list) -> dict:
    """End-to-end values of a run: the timings and the memory are medians
    over its iterations, of sums over their targets. Outcomes and documents
    are the same in every iteration (the output checks demand it), so the
    share and the density come from the first."""
    per_iteration = []
    for result in results:
        steps = [adjusted(rec) for rec in result["targets"]]
        per_iteration.append({name: sum(a[name] for a in steps) for name in steps[0]})
    times = {name: statistics.median(it[name] for it in per_iteration)
             for name in per_iteration[0]}
    recs = results[0]["targets"]
    certified = sum(rec["outcome"] == "certified" for rec in recs)
    # A target of the density set that does not certify counts as 0.
    ratios = [rec.get("density_over_c") or 0.0 for rec in recs
              if Fraction(rec["r"]) >= DENSITY_MIN_R]
    return {
        **times,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "certified_share": certified / len(recs),
        "density_over_c_min": min(ratios),
    }


def source_digest(root: Path) -> str:
    """sha256 over the files of the package, so that stored document digests
    are only compared with documents made by the same code."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class OutputChecks:
    """Per-target outcome and document digest, compared everywhere."""

    def __init__(self, store: Path):
        self.store = store
        self.known = json.loads(store.read_text()) if store.exists() else {}
        self.problems = []

    def add(self, rec: dict) -> None:
        key = f"{rec['r']}@{rec['x']}"
        seen = {"outcome": rec["outcome"], "sha256": rec.get("sha256")}
        if rec.get("problem"):
            self.problems.append(f"{key}: {rec['problem']}")
        if rec["outcome"] == "crash":
            print(f"perfbench: crash on {key}: {rec['error']}", file=sys.stderr)
        prev = self.known.setdefault(key, seen)
        if prev != seen:
            self.problems.append(f"{key}: {seen} differs from earlier {prev}")

    def save(self) -> None:
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=0))
        tmp.replace(self.store)


def target_wall(rec: dict) -> float:
    return rec["construct_s"] + rec["serialize_s"] + rec["parse_s"] + rec["recheck_s"]


def _print_self_times(result: dict, traced_wall: float, untraced_wall: float) -> None:
    """The self-time table of one traced iteration. Every timed step is
    inside a span, so the self times add up to the iteration's unadjusted
    wall time; scaled by the iteration's host-speed adjustment they are
    compared with the untraced wall_s."""
    rows = sorted(result["self_times"].items(), key=lambda kv: -kv[1][1])
    total = sum(v[1] for _, v in rows)
    raw_wall = sum(target_wall(rec) for rec in result["targets"])
    scale = sum(adjusted(rec)["wall_s"] for rec in result["targets"]) / raw_wall
    print("perfbench: self time per layer, last traced iteration", file=sys.stderr)
    print(f"  {'span':34} {'calls':>8} {'incl s':>9} {'self s':>9}", file=sys.stderr)
    for name, (incl, self_s, calls) in rows:
        print(f"  {name:34} {calls:8d} {incl:9.3f} {self_s:9.3f}", file=sys.stderr)
    print(
        f"  sum of self times {total:.3f} s (unadjusted wall {raw_wall:.3f} s); "
        f"adjusted {total * scale:.3f} s against untraced wall_s {untraced_wall:.3f} s: "
        f"{total * scale - untraced_wall:+.3f} s; trace.overhead_s "
        f"{traced_wall - untraced_wall:+.3f} s",
        file=sys.stderr,
    )


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    if not Path("src/densefrac/__init__.py").is_file():
        raise HarnessError("run from the root of a densefrac checkout (no src/densefrac)")
    targets = workload_targets(workload, seed)
    if smoke:
        targets = [(r, SMOKE_X) for r, _x in targets]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    _child(["--probe"], deadline)  # compiles bytecode; not timed

    code = source_digest(Path("src/densefrac"))[:16]
    checks = OutputChecks(STATE_DIR / f"digests-{code}.json")
    spans_out = STATE_DIR / f"trace-{workload}-seed{seed}.json"
    STATE_DIR.mkdir(exist_ok=True)
    setups, starts_all, plain, traced = [], [], [], []
    t_measure = time.monotonic()
    rounds = 0
    while True:
        starts = [_child(["--probe"], deadline) for _ in range(PROBES_PER_ROUND)]
        for traced_run in ([False, True] if trace else [False]):
            extra = ["--spans-out", str(spans_out)] if traced_run else []
            result = _child(extra, deadline, targets)
            starts.append(result)
            for rec in result["targets"]:
                checks.add(rec)
            (traced if traced_run else plain).append(result)
        setups.extend(r["setup_s"] * CAL_REF_S / r["cal_s"] for r in starts)
        starts_all.append([(r["setup_s"], r["cal_s"]) for r in starts])
        rounds += 1
        elapsed = time.monotonic() - t_measure
        # Stop at the round count whose end lands nearest to --seconds.
        if elapsed + elapsed / rounds / 2 > seconds:
            break
    checks.save()
    (STATE_DIR / f"records-{workload}-seed{seed}.json").write_text(
        json.dumps({"plain": plain, "traced": traced, "starts": starts_all}))
    for problem in checks.problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)

    summary = summarize(plain)
    metrics = {}
    if trace:
        traced_wall = summarize(traced)["wall_s"]
        metrics["trace.overhead_s"] = traced_wall - summary["wall_s"]
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median([r["layers"][name] for r in traced])
        codes = [m["name"][len("outcome."):] for m in spec["per_layer"]
                 if m["name"].startswith("outcome.")]
        for code in codes:
            metrics[f"outcome.{code}"] = statistics.median(
                [sum(rec["outcome"] == code for rec in r["targets"]) for r in traced]
            )
        for rec in (rec for r in traced for rec in r["targets"]):
            if rec["outcome"] not in codes:
                raise HarnessError(f"outcome {rec['outcome']!r} has no outcome.* metric")
        _print_self_times(traced[-1], traced_wall, summary["wall_s"])
        wanted = spec["per_layer"]
        runs = traced
    else:
        metrics.update(summary)
        metrics["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
        runs = plain
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    # Each target counts once: every iteration repeats the same targets, and
    # the output checks demand the same outcome each time, so the counts do
    # not depend on how many iterations fit in --seconds.
    attempted = len(runs[0]["targets"])
    failed = sum(rec["outcome"] != "certified" for rec in runs[0]["targets"])
    print(
        f"perfbench: {workload} seed {seed}: {len(runs)} iteration(s) of "
        f"{len(targets)} target(s) in {time.monotonic() - started:.1f} s; wall_s "
        + " ".join(f"{sum(target_wall(rec) for rec in r['targets']):.2f}" for r in runs)
        + " (unadjusted)",
        file=sys.stderr,
    )
    return {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["grid-1e6", "scale-1e7", "sweep-1e5"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help=f"run every target at x = {SMOKE_X}")
    args = ap.parse_args(argv)
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, spec)
    except (HarnessError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
