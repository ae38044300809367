import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densefrac.certificate import (
    CertificateDocument,
    decode_deltas,
    document_from_representation,
    encode_deltas,
    frac_str,
    parse_frac,
    recheck_document,
)
from densefrac.construct import construct_dense
from densefrac.errors import ParameterError


def test_frac_round_trip():
    for v in (Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(10)):
        assert parse_frac(frac_str(v)) == v
    with pytest.raises(ParameterError):
        parse_frac("1/0")
    with pytest.raises(ParameterError):
        parse_frac("zebra")


def test_delta_encoding_round_trip():
    rng = random.Random(100)
    for _ in range(1000):
        vals = sorted(rng.sample(range(1, 10**6), rng.randint(0, 200)))
        assert decode_deltas(encode_deltas(vals)) == vals
    assert decode_deltas(encode_deltas([])) == []


def _encode_elementwise(values):
    vals = sorted(int(v) for v in values)
    if not vals:
        return {"first": None, "deltas": []}
    deltas = [vals[i] - vals[i - 1] for i in range(1, len(vals))]
    return {"first": vals[0], "deltas": deltas}


def _decode_elementwise(enc):
    if enc.get("first") is None:
        return []
    out = [int(enc["first"])]
    for d in enc.get("deltas", []):
        out.append(out[-1] + int(d))
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-10, 10**6), st.integers(2**62, 2**66))))
def test_delta_encoding_matches_elementwise(vals):
    """Values past int64 and repeats included; unsorted input is sorted."""
    enc = encode_deltas(vals)
    assert enc == _encode_elementwise(vals)
    assert all(type(d) is int for d in enc["deltas"])
    assert decode_deltas(enc) == _decode_elementwise(enc) == sorted(vals)


@pytest.fixture(scope="module")
def rep():
    return construct_dense(Fraction(1, 3), 10**5)


def test_document_round_trip_byte_identical(rep):
    doc = document_from_representation(rep)
    text = doc.to_json()
    again = CertificateDocument.from_json(text).to_json()
    assert text == again


def test_document_denominators_match(rep):
    doc = document_from_representation(rep)
    assert doc.denominators() == [int(v) for v in rep.denominators()]


def test_recheck_passes(rep):
    doc = document_from_representation(rep)
    cert, ok = recheck_document(doc)
    assert ok and cert.sum_exact and cert.distinct


def test_recheck_detects_tamper(rep):
    doc = document_from_representation(rep)
    doc.parts["A"]["deltas"][3] += 2
    cert, ok = recheck_document(doc)
    assert not cert.sum_exact
    assert not ok


def test_recheck_detects_cross_part_duplicate(rep):
    doc = document_from_representation(rep)
    stolen = decode_deltas(doc.parts["A"])[0]
    doc.parts["D1"] = encode_deltas([stolen])
    cert, ok = recheck_document(doc)
    assert not ok


def test_malformed_document():
    with pytest.raises(ParameterError):
        CertificateDocument.from_json("{not json")
    with pytest.raises(ParameterError):
        CertificateDocument.from_json('{"version": 1}')
    fields = {"version": 1, "r": "1/2", "x": 10, "parameters": {}, "certificate": {}}
    for part in (
        [1, 2],
        {"first": 3, "deltas": 7},
        {"first": "3", "deltas": []},
        {"first": True, "deltas": []},
        {"first": 3, "deltas": [{}]},
        # a delta must be a JSON integer, not a string, float or bool
        {"first": 3, "deltas": ["5"]},
        {"first": 3, "deltas": [2.5]},
        {"first": 3, "deltas": [5.0]},
        {"first": 3, "deltas": [True]},
    ):
        text = json.dumps({**fields, "parts": {"A": part}})
        with pytest.raises(ParameterError):
            CertificateDocument.from_json(text).denominators()


# sha256 of document_from_representation(construct_dense(r, x, **options))
# .to_json(). The entries cover the options, the stage-two retries (1/3 with
# k=4 takes 4 attempts), the delta retune (10/11 retunes once and then
# retries stage two; 1 only retunes) and stage-one eliminations on slices
# thinner than p-1 (1/12). A change meant to keep certificates as they are
# must keep these bytes.
GOLDEN_DOCUMENTS = [
    ("1/3", 10**4, {}, "d1d8eaf98d0db974f82e2dd53f17a1e001c78f3b1033b2ff83822f72ddc14782"),
    ("1/2", 10**4, {}, "98abc15d07ab41a1345de94929cf33c218ea8fb357ca30c72ee3eb7e1ff5750a"),
    ("1", 10**4, {}, "078dd534444d2718d13cbaaa7abc6b3c773dab6c39753cb5b1f8cb66736c00fe"),
    ("19/21", 10**5, {}, "0f3ed5a81e0f1485654121e0044795e05faae15a32bbef1b643ee71d3ef43614"),
    ("1/2", 10**5, {"lambda_mode": "formula"},
     "82c7de950446a6dcd8194ab36be04a25cf984549ab770304c23b07671d523651"),
    ("1/12", 10**5, {}, "a05c1548c5c16453c0ef12f30ca1e1b30455abe03ce896c495317ff8893d529e"),
    ("1/3", 10**5, {"k": 4}, "449b1fa2a94965c0525674695c039a07429199b351e7cd1f7a2f421eb1fde751"),
    ("1/2", 10**5, {"y_prime": 20},
     "170a960e51f4f634c2a3940d6bde9cc81c26e4c177424c509f9ff8201ac3d987"),
    ("10/11", 10**5, {}, "b05b9c94b04a82f127cde926c787e25b0da99564008e1b14161fdf4ac61f768e"),
    ("1", 10**5, {}, "99ede027ec12baf8ffd9f4ae81c54b6683d3216aec3bbe646ae062251e1b3ea2"),
]


def _golden_id(r, x, options, digest):
    # The digest stays out of the id, so that a re-pin does not rename tests.
    return "-".join([r, str(x), *(f"{k}={v}" for k, v in options.items())])


@pytest.mark.parametrize(
    "r, x, options, digest",
    [pytest.param(*g, id=_golden_id(*g)) for g in GOLDEN_DOCUMENTS],
)
def test_document_bytes_are_pinned(r, x, options, digest):
    rep = construct_dense(Fraction(r), x, **options)
    text = document_from_representation(rep).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
