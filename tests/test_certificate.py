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
    ):
        text = json.dumps({**fields, "parts": {"A": part}})
        with pytest.raises(ParameterError):
            CertificateDocument.from_json(text).denominators()


# sha256 of document_from_representation(construct_dense(r, x, **options))
# .to_json(). The first four were taken before the elimination, verifier and
# serialisation were sped up; the rest cover the options, the stage-two
# retries (1/3 with k=4 takes 4 attempts) and the delta retune (10/11
# retunes once and then retries stage two; 1 only retunes). A change meant
# to keep certificates as they are must keep these bytes.
GOLDEN_DOCUMENTS = [
    ("1/3", 10**4, {}, "44354c7acd14e839b96b9ed2898cf287d47773e4f4d65183c405451ce8442169"),
    ("1/2", 10**4, {}, "3a4e8daaa6850dabdf902e3f224945ffae40bd28bae9946ef3dfecfc0debf50d"),
    ("1", 10**4, {}, "6c75ca8e853ccb39b6abf39fa631e6638aa5e44d43f8aa0860ad70fad984da40"),
    ("19/21", 10**5, {}, "a13b439d0a1a03e85023169fed7db0436f843fbe3965ab8c62f0265cd087e0ac"),
    ("1/2", 10**5, {"lambda_mode": "formula"},
     "f6c963fbf6c67d5087a0006b46ea53c51702a0467b2ee77774232196b18f58d6"),
    ("1/12", 10**5, {"elimination_mode": "opportunistic"},
     "92ea90a6e12dcbbdeea8d37749fa29ff12fdb442717f3e05cdf8469402e6f0d8"),
    ("1/3", 10**5, {"k": 4}, "1e2231bd4cc1975f27dd94ef89605fd0fdd80937bd9663d65dca7364b42fd981"),
    ("1/2", 10**5, {"y_prime": 20},
     "ebef38c0e18fda9b2d897750c4b865c969e6749fb43fa2e2d8c5f2fa32ad834d"),
    ("10/11", 10**5, {}, "8aa3a0ec930d0b45c76e4ecbbbca518e8b5ead6e012946ae0214237d71ea5791"),
    ("1", 10**5, {}, "02c75ce9736ba61f0bb01dc9a5de8cc64a2b19fdfb8ade4acf77810b168a8a5a"),
]


def _golden_id(r, x, options, digest):
    return "-".join([r, str(x), *(f"{k}={v}" for k, v in options.items()), digest])


@pytest.mark.parametrize(
    "r, x, options, digest",
    [pytest.param(*g, id=_golden_id(*g)) for g in GOLDEN_DOCUMENTS],
)
def test_document_bytes_are_pinned(r, x, options, digest):
    rep = construct_dense(Fraction(r), x, **options)
    text = document_from_representation(rep).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
