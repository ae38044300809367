"""Certificate documents: the JSON interchange format for representations.

Denominator sets are delta-encoded (first element absolute, then gaps), so
million-element certificates stay megabyte-scale. Exact rationals travel as
"a/b" strings; floating approximations are labeled approx. Documents are
deterministic: same representation, byte-identical JSON.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import accumulate, islice
from fractions import Fraction

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
    vals = sorted(map(int, values))
    if not vals:
        return {"first": None, "deltas": []}
    deltas = list(map(operator.sub, islice(vals, 1, None), vals))
    return {"first": vals[0], "deltas": deltas}


def decode_deltas(enc: dict) -> list:
    """{first, deltas} -> the integers; the one check of the part format.
    The part must be a JSON object, and first and every delta JSON
    integers: anything else (a list part, a string, a float or a bool)
    raises ParameterError. A null first encodes the empty part, so it
    admits no deltas."""
    if type(enc) is not dict:
        raise ParameterError("malformed certificate part: not a JSON object")
    first = enc.get("first")
    deltas = enc.get("deltas", [])
    if first is None and deltas == []:
        return []
    if not (
        type(first) is int and type(deltas) is list and set(map(type, deltas)) <= {int}
    ):
        raise ParameterError(
            "malformed delta encoding: first and every delta must be integers, "
            "and a null first admits no deltas"
        )
    return list(accumulate(deltas, initial=first))


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

    def denominators(self) -> list:
        out = []
        for enc in self.parts.values():
            out.extend(decode_deltas(enc))
        return sorted(out)


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
        "lambda_mode": cfg.lambda_mode,
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
