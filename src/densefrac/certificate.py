"""Certificate documents: the JSON interchange format for representations.

Denominator sets are delta-encoded (first element absolute, then gaps), so
million-element certificates stay megabyte-scale. Exact rationals travel as
"a/b" strings; floating approximations are labeled approx. Documents are
deterministic: same representation, byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError
from .verify import check

FORMAT_VERSION = 1


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParameterError(f"malformed rational {s!r}: {e}") from None


def encode_deltas(values) -> dict:
    """Sorted integers -> {first, deltas}; decoding reproduces them exactly."""
    vals = sorted(int(v) for v in values)
    if not vals:
        return {"first": None, "deltas": []}
    deltas = [vals[i] - vals[i - 1] for i in range(1, len(vals))]
    return {"first": vals[0], "deltas": deltas}


def decode_deltas(enc: dict) -> list:
    if enc.get("first") is None:
        return []
    out = [int(enc["first"])]
    for d in enc.get("deltas", []):
        out.append(out[-1] + int(d))
    return out


@dataclass
class CertificateDocument:
    version: int
    r: str
    x: int
    parameters: dict
    parts: dict
    trace: dict
    certificate: dict

    def to_json(self) -> str:
        # The fields hold plain JSON values, so they are dumped as they are
        # (asdict() would deep-copy every delta first).
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CertificateDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParameterError(f"malformed certificate JSON: {e}") from None
        try:
            return cls(
                version=int(raw["version"]),
                r=str(raw["r"]),
                x=int(raw["x"]),
                parameters=dict(raw["parameters"]),
                parts=dict(raw["parts"]),
                trace=dict(raw.get("trace", {})),
                certificate=dict(raw["certificate"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParameterError(f"certificate document missing field: {e}") from None

    def denominators(self) -> list:
        out = []
        for enc in self.parts.values():
            out.extend(decode_deltas(enc))
        return sorted(out)


def _trace_summary(trace) -> dict:
    if trace is None:
        return {}
    removed = trace.removed_total
    rems = [s for s in trace.steps if s.removed]
    return {
        "steps": len(trace.steps),
        "removed_total": removed,
        "primes_processed": sorted({s.prime for s in trace.steps}, reverse=True),
        "last_remainder_exact": frac_str(trace.steps[-1].remainder_after)
        if trace.steps
        else None,
        "last_remainder_approx": float(trace.steps[-1].remainder_after)
        if trace.steps
        else None,
        "nonempty_steps": len(rems),
    }


def document_from_representation(rep) -> CertificateDocument:
    """Freeze a Representation into its interchange document."""
    cfg, plan, cert = rep.config, rep.plan, rep.certificate
    params = {
        "eta": cfg.eta,
        "k": cfg.k,
        "epsilon": cfg.epsilon,
        "delta": frac_str(cfg.delta),
        "lambda": frac_str(plan.lam),
        "lambda_mode": cfg.lambda_mode,
        "elimination_mode": cfg.elimination_mode,
        "stage_two_mode": cfg.stage_two_mode,
        "y": plan.y,
        "w": plan.w,
        "y_prime": plan.y_prime,
        "x_prime": plan.x_prime,
        "w_prime": plan.y_prime,
        "y_doubleprime": plan.y_doubleprime,
        "lambda_prime": frac_str(rep.lam_prime) if rep.lam_prime is not None else None,
        "early_exit_prime": rep.early_exit_prime,
        "warnings": list(plan.warnings),
    }
    parts = {
        "A": encode_deltas(rep.a),
        "A_prime": encode_deltas(rep.a_prime),
        "C_minus_A_prime": encode_deltas(rep.c_minus_a_prime),
        "D1": encode_deltas(rep.d1),
        "D2": encode_deltas(rep.d2),
    }
    trace = {
        "stage_one": _trace_summary(rep.stage_one_trace),
        "stage_two": _trace_summary(rep.stage_two_trace),
        "stage_two_attempts": rep.stage_two_attempts,
    }
    certificate = {
        "sum_exact": cert.sum_exact,
        "distinct": cert.distinct,
        "max_ok": cert.max_ok,
        "harmonic_bound_ok": cert.harmonic_bound_ok,
        "density_exact": frac_str(rep.density),
        "density_approx": float(rep.density),
        "size": cert.size,
        "max_element": cert.max_element,
        "c_of_r_minus_eta_approx": cert.c_of_r_minus_eta,
        "upper_bound_1_minus_e_to_minus_r_approx": cert.upper_bound_1_minus_e_to_minus_r,
    }
    return CertificateDocument(
        version=FORMAT_VERSION,
        r=frac_str(rep.r),
        x=rep.x,
        parameters=params,
        parts=parts,
        trace=trace,
        certificate=certificate,
    )


def recheck_document(doc: CertificateDocument, eta: Optional[float] = None):
    """Re-verify a document from scratch; returns (Certificate, consistent).

    `consistent` additionally demands that the recomputed pass/fail fields
    match what the document claims, and that the parts are disjoint.
    """
    r = parse_frac(doc.r)
    part_lists = {name: decode_deltas(enc) for name, enc in doc.parts.items()}
    seen: set = set()
    disjoint = True
    denoms = []
    for vals in part_lists.values():
        vs = set(vals)
        if vs & seen:
            disjoint = False
        seen |= vs
        denoms.extend(vals)
    denoms.sort()
    if eta is None:
        eta = float(doc.parameters.get("eta", 0.0) or 0.0)
    cert = check(r, denoms, doc.x, eta)
    claimed = doc.certificate
    consistent = (
        disjoint
        and cert.sum_exact == bool(claimed.get("sum_exact"))
        and cert.distinct == bool(claimed.get("distinct"))
        and cert.max_ok == bool(claimed.get("max_ok"))
        and cert.harmonic_bound_ok == bool(claimed.get("harmonic_bound_ok"))
        and cert.size == int(claimed.get("size", -1))
    )
    return cert, consistent and cert.sum_exact and cert.distinct and cert.max_ok
