"""In-memory span tracer for one benchmark child process.

The tracer wraps the public entry points of each densefrac layer in the
module namespaces that call them (construct.py imports names directly, so
`densefrac.construct.build_family` is patched, not `densefrac.smooth`).
Each call becomes a span (name, start, end, parent); a few layers also
record counts at the same boundary. Spans stay in memory until the child
reports them. Nothing under src/ is changed.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise AssertionError(f"span stack out of order: {popped} != {idx}")

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, module, attr: str, name: str, before=None, after=None, failed=None):
        """Replace module.attr by a span-recording wrapper.

        `before(args)` runs on entry and its value is handed to
        `after(args, result, state)` on return; `failed(args)` runs when the
        call raises (the exception still propagates).
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.close(idx)
                if failed:
                    failed(args)
                raise
            self.close(idx)
            if after:
                after(args, result, state)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def count_calls(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a wrapper that only counts calls."""
        orig = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def durations(self):
        """{span name: (inclusive seconds, self seconds, calls)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _parent) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - child_time[i]
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary of densefrac."""
    import densefrac.certificate as certificate
    import densefrac.construct as construct
    import densefrac.modular as modular
    import densefrac.verify as verify

    c = tracer.counts

    def rss_before(args):
        return maxrss_mb()

    def rss_after(args, result, before):
        c["smooth.build_family.rss_rise_mb"] += max(0.0, maxrss_mb() - before)

    tracer.wrap(construct, "build_family", "smooth.build_family",
                before=rss_before, after=rss_after)

    def terms(key):
        def after(args, result, state):
            c[key] += len(args[0])
        return after

    tracer.wrap(construct, "reciprocal_sum", "smooth.reciprocal_sum",
                after=terms("smooth.reciprocal_sum.terms"))
    tracer.wrap(construct, "choose_lambda", "smooth.choose_lambda")

    def stage_one_entry(args):
        c["construct.stage_one.calls"] += 1

    tracer.wrap(construct, "stage_one", "construct.stage_one", before=stage_one_entry)
    tracer.wrap(construct, "stage_two", "construct.stage_two")

    def elim_entry(args):
        c["modular.eliminate_prime.slice_elems"] += len(args[2])

    def elim_done(args, result, state):
        picked = len(result[0])
        c["modular.eliminate_prime.picked"] += picked
        c["modular.eliminate_prime.useful"] += 1 if picked else 0

    def elim_failed(args):
        c["modular.eliminate_prime.failed"] += 1

    tracer.wrap(construct, "eliminate_prime", "modular.eliminate_prime",
                before=elim_entry, after=elim_done, failed=elim_failed)
    tracer.count_calls(modular, "factorize", "arith.factorize.calls")

    def expand_failed(args):
        c["expand.expand_odd.failed"] += 1

    tracer.wrap(construct, "expand_odd", "expand.expand_odd", failed=expand_failed)

    tracer.wrap(construct, "check", "verify.check")
    tracer.wrap(certificate, "check", "verify.check")
    tracer.wrap(verify, "tree_sum", "verify.tree_sum",
                after=terms("verify.tree_sum.terms"))
    tracer.wrap(verify, "harmonic_segment_le", "verify.harmonic_segment_le")
