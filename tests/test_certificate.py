import hashlib
import random
from fractions import Fraction

import pytest

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


# sha256 of document_from_representation(construct_dense(r, x)).to_json(),
# taken before the elimination, verifier and serialisation were sped up.
# A change meant to keep certificates as they are must keep these bytes.
GOLDEN_DOCUMENTS = [
    ("1/3", 10**4, "44354c7acd14e839b96b9ed2898cf287d47773e4f4d65183c405451ce8442169"),
    ("1/2", 10**4, "3a4e8daaa6850dabdf902e3f224945ffae40bd28bae9946ef3dfecfc0debf50d"),
    ("1", 10**4, "6c75ca8e853ccb39b6abf39fa631e6638aa5e44d43f8aa0860ad70fad984da40"),
    ("19/21", 10**5, "a13b439d0a1a03e85023169fed7db0436f843fbe3965ab8c62f0265cd087e0ac"),
]


@pytest.mark.parametrize("r, x, digest", GOLDEN_DOCUMENTS)
def test_document_bytes_are_pinned(r, x, digest):
    text = document_from_representation(construct_dense(Fraction(r), x)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
