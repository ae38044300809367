"""One benchmark iteration, run in a fresh single-threaded process.

Usage (from run.py, with PYTHONPATH=src and the checkout as working dir):

    python3 perfbench/child.py --t0 <monotonic> [--probe] [--spans-out FILE]

--t0 is the parent's time.monotonic() taken just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start-up and `import densefrac`. With --probe the child stops
there. Otherwise it reads a JSON list of [r, x] targets from stdin and, for
each, runs the same library calls as `densefrac construct --out` followed
by `densefrac verify`:

    construct_dense -> document_from_representation(...).to_json()
                    -> CertificateDocument.from_json -> recheck_document

While it runs the targets, the child times a short fixed pure-Python loop
every SAMPLE_EVERY_S seconds (on SIGALRM, so the samples fall inside the
timed steps at even intervals) and keeps the time this takes out of the
step times. Each target records the mean loop time over its construction
and over its serialise + re-verify steps; run.py divides the step times by
these (see run.adjusted): the host's speed moves by a third and more
within seconds, and the loop slows with it.

With --spans-out the layers are traced (see tracing.py) and the spans are
written to FILE at the end. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import signal
import sys
import time
from fractions import Fraction

import tracing

# C(r) is computed here, not taken from densefrac, so that density_over_c
# does not depend on the program under test.
_ONE_MINUS_LOG2 = 1.0 - math.log(2.0)


CAL_LOOPS = 20_000
SAMPLE_EVERY_S = 0.05
SETUP_SAMPLES = 20


def loop_time() -> float:
    """Time of a fixed pure-Python loop: the host's current slowness."""
    t = time.perf_counter()
    acc = 0
    for j in range(CAL_LOOPS):
        acc += j * j % 7
    return time.perf_counter() - t


class HostSpeed:
    """loop_time() sampled every SAMPLE_EVERY_S seconds, and a clock that
    leaves out the time the samples take."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(loop_time())
        self.spent += time.perf_counter() - t

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def slowness(self, since: int) -> float:
        """Mean loop time of the samples from index `since` on; for a step
        too short to hold one, the latest sample."""
        got = self.samples[since:] or self.samples[-1:] or [loop_time()]
        return sum(got) / len(got)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def c_of_r(r: Fraction) -> float:
    """C(r) = (1 - log 2)(1 - exp(-r / (1 - log 2)))."""
    return _ONE_MINUS_LOG2 * (1.0 - math.exp(-float(r) / _ONE_MINUS_LOG2))


def check_document(doc, r: Fraction, x: int):
    """Output check: (certificate, None) if doc certifies r below x, else
    (certificate or None, reason)."""
    from densefrac.certificate import parse_frac, recheck_document

    if parse_frac(doc.r) != r or doc.x != x:
        return None, f"document is for r={doc.r}, x={doc.x}"
    cert, consistent = recheck_document(doc)
    if not cert.all_ok:
        return cert, "recheck: certificate is not all_ok"
    if not consistent:
        return cert, "recheck: document is not consistent"
    return cert, None


def run_target(r_text: str, x: int, speed: HostSpeed, tracer=None) -> dict:
    """Construct, serialise and re-verify one target; never raises for a
    failure of the program (outcome "crash", or "problem" for the output
    check)."""
    from densefrac.certificate import CertificateDocument, document_from_representation
    from densefrac.construct import construct_dense
    from densefrac.errors import DensefracError

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    r = Fraction(r_text)
    rec = {"r": r_text, "x": x, "serialize_s": 0.0, "parse_s": 0.0, "recheck_s": 0.0}
    since = len(speed.samples)
    t0 = speed.clock()
    try:
        with span("construct.construct_dense"):
            rep = construct_dense(r, x)
    except DensefracError as err:
        rec.update(outcome=err.code, error=str(err)[:300])
    except Exception as err:  # any untyped failure is a crash outcome
        rec.update(outcome="crash", error=f"{type(err).__name__}: {err}"[:300])
    else:
        rec["outcome"] = "certified"
    t1 = speed.clock()
    rec["construct_s"] = t1 - t0
    rec["cal_s"] = cal = [speed.slowness(since)]
    if rec["outcome"] != "certified":
        cal.append(cal[0])
        return rec
    since = len(speed.samples)
    t1 = speed.clock()
    try:
        with span("certificate.serialize"):
            text = document_from_representation(rep).to_json()
        t2 = speed.clock()
        with span("certificate.parse"):
            doc = CertificateDocument.from_json(text)
        t3 = speed.clock()
        with span("certificate.recheck_document"):
            cert, problem = check_document(doc, r, x)
        t4 = speed.clock()
    except Exception as err:
        cal.append(speed.slowness(since))
        rec.update(
            problem=f"output check raised {type(err).__name__}: {err}"[:300],
            density_over_c=None,
        )
        return rec
    cal.append(speed.slowness(since))
    if problem is None and not rep.certificate.all_ok:
        problem = "construct_dense returned a certificate that is not all_ok"
    rec.update(
        serialize_s=t2 - t1,
        parse_s=t3 - t2,
        recheck_s=t4 - t3,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        bytes=len(text),
        stage_two_attempts=rep.stage_two_attempts,
        density_over_c=float(cert.density) / c_of_r(r) if cert else None,
        problem=problem,
    )
    return rec


def layer_metrics(tracer, records: list) -> dict:
    """Per-layer metrics of one traced iteration, named as in BENCHMARK.json."""
    d = tracer.durations()
    c = tracer.counts

    def incl(name):
        return d.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return d.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return d.get(name, (0.0, 0.0, 0))[2]

    elim_calls = calls("modular.eliminate_prime")
    return {
        "smooth.build_family.calls": calls("smooth.build_family"),
        "smooth.build_family.s": incl("smooth.build_family"),
        "smooth.build_family.rss_rise_mb": c["smooth.build_family.rss_rise_mb"],
        "smooth.reciprocal_sum.s": incl("smooth.reciprocal_sum"),
        "smooth.reciprocal_sum.terms": c["smooth.reciprocal_sum.terms"],
        "smooth.choose_lambda.s": incl("smooth.choose_lambda"),
        "construct.plan.self_s": self_s("construct.construct_dense"),
        "construct.stage_one.self_s": self_s("construct.stage_one"),
        "construct.stage_two.self_s": self_s("construct.stage_two"),
        "construct.delta_retunes": sum(rec["delta_retunes"] for rec in records),
        "construct.stage_two.attempts": sum(
            rec.get("stage_two_attempts", 0) for rec in records
        ),
        "modular.eliminate_prime.calls": elim_calls,
        "modular.eliminate_prime.s": incl("modular.eliminate_prime"),
        "modular.eliminate_prime.slice_elems": c["modular.eliminate_prime.slice_elems"],
        "modular.eliminate_prime.picked": c["modular.eliminate_prime.picked"],
        "modular.eliminate_prime.useful_ratio": (
            c["modular.eliminate_prime.useful"] / elim_calls if elim_calls else 0.0
        ),
        "modular.eliminate_prime.failed": c["modular.eliminate_prime.failed"],
        "arith.factorize.calls": c["arith.factorize.calls"],
        "expand.expand_odd.calls": calls("expand.expand_odd"),
        "expand.expand_odd.s": incl("expand.expand_odd"),
        "expand.expand_odd.failed": c["expand.expand_odd.failed"],
        "verify.check.s": incl("verify.check"),
        "verify.tree_sum.s": incl("verify.tree_sum"),
        "verify.tree_sum.terms": c["verify.tree_sum.terms"],
        "verify.harmonic_segment_le.s": incl("verify.harmonic_segment_le"),
        "certificate.serialize.s": incl("certificate.serialize"),
        "certificate.parse.s": incl("certificate.parse"),
        "certificate.recheck_document.s": incl("certificate.recheck_document"),
        "certificate.bytes": sum(rec.get("bytes", 0) for rec in records),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    import densefrac  # noqa: F401  (the import is what setup_s measures)

    setup_s = time.monotonic() - args.t0
    setup_cal_s = sum(loop_time() for _ in range(SETUP_SAMPLES)) / SETUP_SAMPLES
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "cal_s": setup_cal_s}))
        return 0

    targets = json.loads(sys.stdin.read())
    speed = HostSpeed()
    tracer = None
    if args.spans_out:
        tracer = tracing.Tracer(clock=speed.clock)
        tracing.install(tracer)
    records = []
    for r_text, x in targets:
        stage_one_before = tracer.counts["construct.stage_one.calls"] if tracer else 0
        rec = run_target(r_text, int(x), speed, tracer)
        if tracer:
            runs = tracer.counts["construct.stage_one.calls"] - stage_one_before
            rec["delta_retunes"] = max(0, int(runs) - 1)
        records.append(rec)
    speed.stop()
    out = {"setup_s": setup_s, "cal_s": setup_cal_s, "peak_rss_mb": tracing.maxrss_mb(),
           "targets": records}
    if tracer:
        tracer.restore()
        out["layers"] = layer_metrics(tracer, records)
        out["self_times"] = tracer.durations()
        with open(args.spans_out, "w") as fh:
            json.dump({"spans": tracer.spans, "self_times": out["self_times"]}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
