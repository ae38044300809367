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

import numpy as np

from .errors import ParameterError
from .verify import check, int_array

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
    """Integers, in any order -> {first, deltas} of their sorted sequence,
    as Python ints; decoding reproduces them exactly. The values are sorted
    as one numpy array (int_array); gaps are taken in int64 unless one could
    pass 2^63, and in exact Python ints then."""
    a = np.sort(int_array(values))
    if not a.size:
        return {"first": None, "deltas": []}
    if int(a[-1]) - int(a[0]) >= 2**63:
        a = a.astype(object)
    return {"first": int(a[0]), "deltas": np.diff(a).tolist()}


def decode_deltas(enc: dict) -> np.ndarray:
    """{first, deltas} -> the integers, as a numpy array of their running
    sums; the one check of the part format. The part must be a JSON object,
    and first and every delta JSON integers: anything else (a list part, a
    string, a float or a bool) raises ParameterError. A null first encodes
    the empty part, so it admits no deltas. The array is int64 when
    |first| + len(deltas) * max |delta| < 2^63, a bound on every running
    sum computed in Python ints, and object (exact Python ints) otherwise."""
    if type(enc) is not dict:
        raise ParameterError("malformed certificate part: not a JSON object")
    first = enc.get("first")
    deltas = enc.get("deltas", [])
    if first is None and deltas == []:
        return np.empty(0, dtype=np.int64)
    if not (
        type(first) is int and type(deltas) is list and set(map(type, deltas)) <= {int}
    ):
        raise ParameterError(
            "malformed delta encoding: first and every delta must be integers, "
            "and a null first admits no deltas"
        )
    try:
        steps = np.fromiter(deltas, dtype=np.int64, count=len(deltas))
        widest = max(int(steps.max(initial=0)), -int(steps.min(initial=0)))
        fits = abs(first) + len(deltas) * widest < 2**63
    except OverflowError:
        fits = False
    if not fits:
        steps = np.array(deltas, dtype=object)
    return np.cumsum(np.concatenate((np.array([first], dtype=steps.dtype), steps)))


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
        return _encode(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "CertificateDocument":
        """Parse a document; a header that is not exactly as written raises
        ParameterError: version must be the JSON integer FORMAT_VERSION, x a
        JSON integer, r a canonical "a/b" string, and parameters, parts,
        certificate and (optional) trace JSON objects. Each part is checked
        when it is decoded (decode_deltas)."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParameterError(f"malformed certificate JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ParameterError("certificate document is not a JSON object")
        try:
            doc = cls(
                version=raw["version"],
                r=raw["r"],
                x=raw["x"],
                parameters=raw["parameters"],
                parts=raw["parts"],
                trace=raw.get("trace", {}),
                certificate=raw["certificate"],
            )
        except KeyError as e:
            raise ParameterError(f"certificate document missing field: {e}") from None
        if type(doc.version) is not int or doc.version != FORMAT_VERSION:
            raise ParameterError(
                f"certificate version {doc.version!r} is not {FORMAT_VERSION}"
            )
        if type(doc.x) is not int:
            raise ParameterError(f"certificate x {doc.x!r} is not a JSON integer")
        if type(doc.r) is not str or doc.r != frac_str(parse_frac(doc.r)):
            raise ParameterError(f"certificate r {doc.r!r} is not a canonical a/b")
        for name in ("parameters", "parts", "trace", "certificate"):
            if type(getattr(doc, name)) is not dict:
                raise ParameterError(f"certificate {name} is not a JSON object")
        return doc

    def denominators(self) -> np.ndarray:
        """Every part's denominators, as one sorted array (decode_deltas)."""
        parts = [decode_deltas(enc) for enc in self.parts.values()]
        return np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]))


def _encode(value) -> str:
    """The one JSON encoding of documents, also used to compare blocks: it
    tells true from 1 and 1 from 1.0, and NaN equals NaN."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _trace_summary(trace) -> dict:
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
        "thin_eliminations": trace.thin_eliminations,
    }


def _certificate_block(cert) -> dict:
    """A Certificate as the document's certificate block; the constructor
    writes it and recheck_document rebuilds it to compare."""
    return {
        "sum_exact": cert.sum_exact,
        "distinct": cert.distinct,
        "max_ok": cert.max_ok,
        "harmonic_bound_ok": cert.harmonic_bound_ok,
        "density_exact": frac_str(cert.density),
        "density_approx": float(cert.density),
        "size": cert.size,
        "max_element": cert.max_element,
        "c_of_r_approx": cert.c_of_r,
        "upper_bound_1_minus_e_to_minus_r_approx": cert.upper_bound_1_minus_e_to_minus_r,
    }


def document_from_representation(rep) -> CertificateDocument:
    """Freeze a Representation into its interchange document."""
    cfg, plan = rep.config, rep.plan
    params = {
        "k": cfg.k,
        "epsilon": cfg.epsilon,
        "delta": frac_str(cfg.delta),
        "lambda": frac_str(plan.lam),
        # One mode is left; the key goes with the next FORMAT_VERSION.
        "lambda_mode": "adaptive",
        "y": plan.y,
        "w": plan.w,
        "y_prime": plan.y_prime,
        "x_prime": plan.x_prime,
        "y_doubleprime": plan.y_doubleprime,
        "lambda_prime": frac_str(rep.stage_two.lam_prime),
        "early_exit_prime": rep.stage_two.early_exit_prime,
        "warnings": list(plan.warnings),
    }
    parts = {name: encode_deltas(vals) for name, vals in rep.parts().items()}
    trace = {
        "stage_one": _trace_summary(rep.stage_one_trace),
        "stage_two": _trace_summary(rep.stage_two.trace),
        "stage_two_attempts": rep.stage_two.attempts,
    }
    return CertificateDocument(
        version=FORMAT_VERSION,
        r=frac_str(cfg.r),
        x=cfg.x,
        parameters=params,
        parts=parts,
        trace=trace,
        certificate=_certificate_block(rep.certificate),
    )


def recheck_document(doc: CertificateDocument):
    """Re-verify a document from scratch; returns (Certificate, consistent).

    `consistent` additionally demands that the certificate block rebuilt
    from the recomputed Certificate equal the document's block whole: the
    same keys, each with the same value of the same JSON type (the string
    "false" or the list [1] is no claim of false or of 1), the _approx
    floats included. A value shared by two parts is a repeated denominator,
    so it fails `distinct`.
    """
    r = parse_frac(doc.r)
    cert = check(r, doc.denominators(), doc.x)
    consistent = _encode(_certificate_block(cert)) == _encode(doc.certificate)
    return cert, consistent and cert.sum_exact and cert.distinct and cert.max_ok
