"""Certificate documents: the JSON interchange format for representations.

Denominator sets are delta-encoded (first element absolute, then gaps), so
million-element certificates stay megabyte-scale. Exact rationals travel as
"a/b" strings; floating approximations are labeled approx. Documents are
deterministic: same representation, byte-identical JSON.

A part's gaps have one form, in memory and when read: the int64 array that
np.diff makes of its sorted values. to_json writes it through a table of
decimal strings, with the same bytes json.dumps writes of its ints, and
from_json reads each gap list straight into such an array, so neither
makes a Python int per gap. from_json reads only the text to_json writes
(one newline may follow it) and refuses every other text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .verify import check, int_array

FORMAT_VERSION = 1

#: Decimal text of the gaps 0 .. 1023, read by _gaps_json. Every gap of
#: stage one's set at r = 1/3, 1/2 and 1, x = 10^6 is below 105; a gap
#: outside the table is written by str.
_TEXT = np.array([str(n) for n in range(1024)], dtype=object)

#: The encoder of _encode, built once: json.dumps with options builds one
#: per call, and from_json's comparison makes about 30 calls per document.
#: Its separators are the only ones an object in a document is written with.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The text before each part's gap list in to_json's text, and the most
#: digits _read_gaps reads in one gap: 10^18 - 1 is below 2^63.
#: encode_deltas refuses a part whose gaps could be wider.
_GAPS_KEY = f'"deltas"{_ENCODER.key_separator}['
_MAX_DIGITS = 18


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParameterError(f"malformed rational {s!r}: {e}") from None


def encode_deltas(values) -> dict:
    """Integers, in any order -> {first, deltas} of their sorted sequence;
    decoding reproduces them exactly. first is a Python int (None when
    there are no values) and deltas the int64 array np.diff makes of the
    values (int_array, sorted only when not already non-decreasing); the
    empty part's is empty. Values that span 10^_MAX_DIGITS or more, whose
    gaps could have more digits than from_json reads, raise ParameterError
    (a Representation's are bounded by MAX_SIEVE_X), so every part written
    reads back; since 10^_MAX_DIGITS < 2^63, no gap passes int64."""
    a = int_array(values)
    if not a.size:
        return {"first": None, "deltas": np.empty(0, dtype=np.int64)}
    if not (a[1:] >= a[:-1]).all():
        a = np.sort(a)
    if int(a[-1]) - int(a[0]) >= 10**_MAX_DIGITS:
        raise ParameterError(
            f"certificate part spans 10^{_MAX_DIGITS} or more: from_json reads "
            f"gaps of at most {_MAX_DIGITS} digits"
        )
    return {"first": int(a[0]), "deltas": np.diff(a).astype(np.int64, copy=False)}


def _is_gaps(deltas) -> bool:
    """Whether deltas is a part's gaps in their one form, a 1-D int64
    array; the test reads only the type, dtype and shape."""
    return type(deltas) is np.ndarray and deltas.dtype == np.int64 and deltas.ndim == 1


def decode_deltas(enc: dict) -> np.ndarray:
    """{first, deltas} -> the integers, as a numpy array of their running
    sums; the one check of the part format. The part must be a dict, first
    an int and deltas the int64 array encode_deltas and from_json make
    (_is_gaps): anything else (a list part, a string, a float or a bool, a
    list, an array of another dtype, no deltas) raises ParameterError. A
    null first encodes the empty part, so it admits no deltas. The array is
    int64 when |first| + len(deltas) * max |delta| < 2^63, a bound on every
    running sum computed in Python ints, and object (exact Python ints)
    otherwise."""
    if type(enc) is not dict:
        raise ParameterError("malformed certificate part: not a JSON object")
    first, deltas = enc.get("first"), enc.get("deltas")
    if not (_is_gaps(deltas) and (type(first) is int or (first is None and not deltas.size))):
        raise ParameterError(
            "malformed delta encoding: first must be an integer and deltas an "
            "int64 gap array, and a null first admits no deltas"
        )
    if first is None:
        return np.empty(0, dtype=np.int64)
    widest = max(int(deltas.max(initial=0)), -int(deltas.min(initial=0)))
    fits = abs(first) + deltas.size * widest < 2**63
    head = np.array([first], dtype=np.int64 if fits else object)
    return np.cumsum(np.concatenate((head, deltas)))


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
        # _encode's text of the fields, written field by field: a dict with
        # str keys, sorted and joined, is exactly json.dumps' text of it.
        # Every field but parts holds plain JSON values and is dumped as it
        # is; the parts' int64 gap arrays go through _gaps_json (asdict()
        # would deep-copy every gap first).
        return _join(
            {
                name: _parts_json(value) if name == "parts" else _encode(value)
                for name, value in vars(self).items()
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CertificateDocument":
        """Parse a document as to_json writes it, one newline allowed after
        it; every other text raises ParameterError. Each list after
        '"deltas":[' is cut out of the text and read by _read_gaps, and
        json.loads parses the rest. The text is accepted only when it is
        to_json's text of what was parsed, with the cut lists left empty,
        and the cut lists are the parts' gap lists, one each; each part
        then takes its array. The header must be as written, since a
        canonical text may hold "x":"10": version the JSON integer
        FORMAT_VERSION, x a JSON integer, r a canonical "a/b" string, and
        parameters, parts, trace and certificate JSON objects. Each part is
        checked when it is decoded (decode_deltas)."""
        emptied, gaps = _cut_gaps(text)
        try:
            raw = json.loads(emptied)
        except json.JSONDecodeError as e:
            raise ParameterError(f"malformed certificate JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ParameterError("certificate document is not a JSON object")
        try:
            doc = cls(**{field.name: raw[field.name] for field in fields(cls)})
        except KeyError as e:
            raise ParameterError(f"certificate document missing field: {e}") from None
        # Every "deltas":[] in the emptied text was cut, so when the counts
        # agree and the text is to_json's, the cut lists are the holders',
        # in order: a "deltas" list elsewhere, a key ending in \"deltas or a
        # repeated key breaks one of the two.
        holders = [
            part
            for part in (doc.parts.values() if type(doc.parts) is dict else ())
            if type(part) is dict and part.get("deltas") == []
        ]
        if len(holders) != len(gaps):
            raise ParameterError(
                f'certificate text has {len(gaps)} "deltas" lists for {len(holders)} '
                "parts' gap lists"
            )
        if doc.to_json() != emptied.removesuffix("\n"):
            raise ParameterError("certificate text is not as construct writes it")
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
        for part, read in zip(holders, gaps):
            part["deltas"] = read
        return doc

    def denominators(self) -> np.ndarray:
        """Every part's denominators, as one sorted array (decode_deltas)."""
        parts = [decode_deltas(enc) for enc in self.parts.values()]
        # a part without a negative gap is sorted, and a stable sort merges
        # sorted runs
        return np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]), kind="stable")


def _encode(value) -> str:
    """The one JSON encoding of documents, also used to compare blocks: it
    tells true from 1 and 1 from 1.0, and NaN equals NaN."""
    return _ENCODER.encode(value)


def _join(texts: dict) -> str:
    """The JSON object whose values are the given str keys' JSON texts."""
    key = _ENCODER.key_separator
    pairs = (f"{_encode(k)}{key}{v}" for k, v in sorted(texts.items()))
    return "{" + _ENCODER.item_separator.join(pairs) + "}"


def _str_keys(value) -> bool:
    return type(value) is dict and all(type(k) is str for k in value)


def _parts_json(parts) -> str:
    """parts as _encode would write them with every gap array a list."""
    if not _str_keys(parts):
        return _encode(parts)
    return _join({name: _part_json(part) for name, part in parts.items()})


def _part_json(part) -> str:
    """One part as _encode would write it with its gaps a list."""
    if not (_str_keys(part) and _is_gaps(part.get("deltas"))):
        return _encode(part)
    return _join(
        {k: _gaps_json(v) if k == "deltas" else _encode(v) for k, v in part.items()}
    )


def _gaps_json(gaps: np.ndarray) -> str:
    """An int64 gap array as the JSON list of its ints: each gap's text is
    read from _TEXT, and a gap outside it (negative, as in a tampered
    document, or too large) is written by str."""
    inside = (gaps >= 0) & (gaps < _TEXT.size)
    text = _TEXT[np.where(inside, gaps, 0)]
    outside = np.flatnonzero(~inside)
    text[outside] = [str(g) for g in gaps[outside].tolist()]
    return "[" + ",".join(text.tolist()) + "]"


def _cut_gaps(text: str) -> tuple:
    """(text with every list after '"deltas":[' emptied, those lists as
    int64 arrays, read by _read_gaps). to_json writes ASCII, so any other
    text is refused, as is a list that is not closed."""
    if not text.isascii():
        raise ParameterError("certificate text is not ASCII, as construct writes it")
    data = text.encode("ascii")
    kept, gaps, done, at = [], [], 0, 0
    while (at := text.find(_GAPS_KEY, at)) >= 0:
        at += len(_GAPS_KEY)
        end = text.find("]", at)
        if end < 0:
            raise ParameterError(f"certificate gap list at {at} is not closed")
        gaps.append(_read_gaps(data, at, end))
        kept.append(text[done:at])
        done = at = end
    kept.append(text[done:])
    return "".join(kept), gaps


def _read_gaps(data: bytes, start: int, end: int) -> np.ndarray:
    """The int64 array of the JSON list whose items are data[start:end].
    Every item must be digits alone, as to_json writes a gap: no sign, no
    leading zero, no empty item and at most _MAX_DIGITS digits, so it fits
    in int64; any other list raises ParameterError. The empty list reads as
    the empty array. Each gap is summed one decimal place at a time, from
    the digit that ends it."""
    if start == end:
        return np.empty(0, dtype=np.int64)
    chars = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
    digits = chars - np.uint8(ord("0"))  # wraps: every other byte reads >= 10
    commas = chars == ord(",")
    ends = np.append(np.flatnonzero(commas), chars.size)
    width = np.diff(ends, prepend=-1) - 1
    if (
        not np.array_equal(digits >= 10, commas)
        or width.min() < 1
        or width.max() > _MAX_DIGITS
        or (digits[ends - width] == 0)[width > 1].any()
    ):
        raise ParameterError(
            f"certificate gap list at {start} is not plain digits of at most "
            f"{_MAX_DIGITS}, as construct writes gaps"
        )
    gaps = digits[ends - 1].astype(np.int64)
    for place in range(1, int(width.max())):
        longer = np.flatnonzero(width > place)
        gaps[longer] += digits[ends[longer] - 1 - place] * np.int64(10**place)
    return gaps


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
    cfg, plan, s2 = rep.config, rep.plan, rep.stage_two
    params = {
        "k": cfg.k,
        "epsilon": cfg.epsilon,
        "delta": frac_str(cfg.delta),
        "lambda": frac_str(Fraction(plan.cutoff, plan.x)),
        # One mode is left; the key goes with the next FORMAT_VERSION.
        "lambda_mode": "adaptive",
        "y": plan.y,
        "w": plan.w,
        "y_prime": plan.y_prime,
        "x_prime": plan.x_prime,
        "y_doubleprime": plan.y_doubleprime,
        "lambda_prime": frac_str(Fraction(s2.boundary, plan.x_prime)),
        "early_exit_prime": s2.early_exit_prime,
        "warnings": list(plan.warnings),
    }
    parts = {name: encode_deltas(vals) for name, vals in rep.parts().items()}
    trace = {
        "stage_one": _trace_summary(rep.stage_one_trace),
        "stage_two": _trace_summary(s2.trace),
        "stage_two_attempts": s2.attempts,
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
