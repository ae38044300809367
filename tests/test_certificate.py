import hashlib
import json
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densefrac import cli
from densefrac.certificate import (
    CertificateDocument,
    _certificate_block,
    _encode,
    _is_gaps,
    decode_deltas,
    document_from_representation,
    encode_deltas,
    frac_str,
    parse_frac,
    recheck_document,
)
from densefrac.construct import construct_dense
from densefrac.errors import ParameterError
from densefrac.verify import check
from oracles import document_facts


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
        assert decode_deltas(encode_deltas(vals)).tolist() == vals
    assert decode_deltas(encode_deltas([])).tolist() == []


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
@given(
    vals=st.lists(
        st.one_of(
            st.integers(-10, 10**6),
            st.integers(10**18 - 20, 10**18 + 10),
            st.integers(2**62, 2**66),
        )
    ),
    shift=st.sampled_from([0, 0, 2**70]),
)
@example(vals=[2**63 - 1, -10], shift=0)  # both int64, their gap is not
@example(vals=[5, 3, 5], shift=2**70)  # past int64 through first, int64 gaps
@example(vals=[1, 10**18], shift=0)  # a gap of 18 digits
@example(vals=[1, 10**18 + 1], shift=0)  # a gap of 19 digits, below 2^63
def test_delta_encoding_matches_elementwise(vals, shift):
    """Values past int64 and repeats included; unsorted input is sorted. The
    gaps are an int64 array, and values that span 10^18 or more, whose gaps
    could have more digits than from_json reads, are refused."""
    vals = [v + shift for v in vals]
    if vals and max(vals) - min(vals) >= 10**18:
        with pytest.raises(ParameterError, match="spans 10\\^18"):
            encode_deltas(vals)
        return
    enc = encode_deltas(vals)
    assert _is_gaps(enc["deltas"])
    assert enc["first"] is None or type(enc["first"]) is int
    assert {**enc, "deltas": enc["deltas"].tolist()} == _encode_elementwise(vals)
    assert decode_deltas(enc).tolist() == _decode_elementwise(enc) == sorted(vals)


@settings(max_examples=200, deadline=None)
@given(
    first=st.one_of(st.integers(-10, 10**6), st.integers(-(2**64), 2**64)),
    deltas=st.lists(
        st.one_of(
            st.integers(-10, 10),
            st.integers(2**61, 2**62),
            st.integers(-(2**62), -(2**61)),
        )
    ),
)
def test_decode_deltas_matches_elementwise(first, deltas):
    """Negative deltas, a first past int64, and running sums that pass 2^63
    and come back."""
    enc = {"first": first, "deltas": np.array(deltas, dtype=np.int64)}
    assert decode_deltas(enc).tolist() == _decode_elementwise(enc)


def _plain(parts):
    """parts with every int64 gap array written as a list of Python ints."""
    return {
        name: {**part, "deltas": part["deltas"].tolist()}
        if type(part) is dict and isinstance(part.get("deltas"), np.ndarray)
        else part
        for name, part in parts.items()
    }


def _listed(value):
    """value with every numpy array written as a list of Python ints."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if type(value) is dict:
        return {k: _listed(v) for k, v in value.items()}
    if type(value) is list:
        return [_listed(v) for v in value]
    return value


def _plain_digits(gaps) -> bool:
    """Whether every gap is written as digits alone, of at most 18: the gap
    lists from_json reads."""
    return all(type(g) is int and 0 <= g < 10**18 for g in _listed(gaps))


_GAPS = st.one_of(
    st.integers(-3, 1100),
    st.sampled_from([1023, 1024, 1025, 10**6, -1, -(2**63), 2**63 - 1]),
)
_JSON_SCALARS = st.one_of(st.integers(), st.booleans(), st.floats(), st.none())
_PARTS = st.dictionaries(
    st.one_of(st.sampled_from(["A", "D1", "név", "部分"]), st.text(max_size=3)),
    st.one_of(
        # as the constructor writes them, first past int64 too
        st.builds(
            lambda values, shift: encode_deltas([v + shift for v in values]),
            st.lists(st.integers(-10, 3000), max_size=20),
            st.sampled_from([0, 0, 2**64]),
        ),
        # tampered in memory: any int64 gaps, negative ones too
        st.builds(
            lambda first, gaps: {"first": first, "deltas": np.array(gaps, dtype=np.int64)},
            st.integers(-10, 10**6),
            st.lists(_GAPS, max_size=20),
        ),
        # any JSON values, which the writer dumps as they are
        st.fixed_dictionaries({"first": _JSON_SCALARS, "deltas": st.lists(_JSON_SCALARS)}),
        st.fixed_dictionaries({"first": _JSON_SCALARS, "deltas": _JSON_SCALARS}),
        _JSON_SCALARS,
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(parts=_PARTS)
@example(parts={"A": {"first": 5, "deltas": np.array([], dtype=np.int64)}})
@example(parts={"név": encode_deltas([7])})
@example(parts={"A": {"first": 5, "deltas": np.array([10**18], dtype=np.int64)}})
@example(parts={"A": {"first": 5, "deltas": np.array([10**18 - 1], dtype=np.int64)}})
def test_writer_matches_json_dumps(parts):
    """to_json writes exactly json.dumps' text of the same document with
    every gap a Python int. from_json reads that text back to it when every
    gap list is plain digits (as a constructed document's are), and refuses
    it otherwise. A part of non-negative gaps, the form encode_deltas
    makes, is one encode_deltas writes exactly when from_json reads it: a
    gap of 10^18 or more is refused by both."""
    for part in parts.values():
        if type(part) is not dict or type(part["first"]) is not int:
            continue
        if not _is_gaps(part["deltas"]) or part["deltas"].min(initial=0) < 0:
            continue
        values = decode_deltas(part).tolist()
        if _plain_digits(part["deltas"]):
            assert _listed(encode_deltas(values)) == _listed(part)
        else:
            with pytest.raises(ParameterError, match="spans 10\\^18"):
                encode_deltas(values)
    doc = CertificateDocument(
        version=1,
        r="1/2",
        x=10,
        parameters={"k": 3, "warnings": ["ω", 2.5, True, None]},
        parts=parts,
        trace={},
        certificate={"size": 3},
    )
    text = json.dumps(
        {**vars(doc), "parts": _plain(parts)}, sort_keys=True, separators=(",", ":")
    )
    assert doc.to_json() == text
    if all(
        _plain_digits(part["deltas"])
        for part in parts.values()
        if type(part) is dict and isinstance(part["deltas"], (list, np.ndarray))
    ):
        assert CertificateDocument.from_json(text).to_json() == text
    else:
        with pytest.raises(ParameterError, match="not plain digits"):
            CertificateDocument.from_json(text)


_BASE = {
    "version": 1,
    "r": "1/2",
    "x": 10,
    "parameters": {"k": 3},
    "parts": {"A": {"first": 2, "deltas": [1, 2]}, "B": {"first": None, "deltas": []}},
    "trace": {},
    "certificate": {"size": 3},
}


def _compact(value, **options):
    """The writer's layout: to_json writes a document as this writes its
    value with every gap array a list."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), **options)


def _canonical(r) -> bool:
    try:
        v = Fraction(r)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return r == f"{v.numerator}/{v.denominator}"


def _deltas_lists(value) -> list:
    """Every list that the writer's text of value writes after '"deltas":[':
    the value of a key whose JSON text ends in "deltas, at any depth."""
    found = []
    if type(value) is dict:
        for k, v in value.items():
            if type(v) is list and _compact(k).endswith('"deltas"'):
                found.append(v)
            found += _deltas_lists(v)
    elif type(value) is list:
        for v in value:
            found += _deltas_lists(v)
    return found


def _acceptable(value) -> bool:
    """Whether from_json must read the writer's text of value, by the rules
    it states: the seven fields and no other, the header as written, and
    each list written after '"deltas":[' a part's gap list of plain digits."""
    if not (type(value) is dict and set(value) == {f.name for f in fields(CertificateDocument)}):
        return False
    if not (
        type(value["version"]) is int
        and value["version"] == 1
        and type(value["x"]) is int
        and _canonical(value["r"])
        and all(type(value[k]) is dict for k in ("parameters", "parts", "trace", "certificate"))
    ):
        return False
    gap_lists = [
        part["deltas"]
        for part in value["parts"].values()
        if type(part) is dict and type(part.get("deltas")) is list
    ]
    written = _deltas_lists(value)
    return len(written) == len(gap_lists) and all(map(_plain_digits, written))


def _decoded(parts):
    """The denominators of parsed parts, or None where decode_deltas must
    refuse: a part that is no object or has no gap list, a first that is no
    integer, or a null first with gaps."""
    found = []
    for part in parts.values():
        if type(part) is not dict or type(part.get("deltas")) is not list:
            return None
        if part.get("first") is None and not part["deltas"]:
            continue
        if type(part.get("first")) is not int:
            return None
        found += _decode_elementwise(part)
    return sorted(found)


def _check_read(text) -> bool:
    """Check from_json(text) against the reference above and return whether
    it read text. It must read text exactly when text is the writer's text
    of its json.loads value, one newline allowed, and the value is
    _acceptable; then to that value, with an int64 array for each part's gap
    list, whose denominators decode as _decoded says. Any other text is
    refused with ParameterError."""
    try:
        value = json.loads(text)
        readable = text.removesuffix("\n") == _compact(value) and _acceptable(value)
    except json.JSONDecodeError:
        readable = False
    if not readable:
        with pytest.raises(ParameterError):
            CertificateDocument.from_json(text)
        return False
    doc = CertificateDocument.from_json(text)
    assert _encode(_listed(vars(doc))) == _compact(value)
    for name, part in value["parts"].items():
        if type(part) is dict and type(part.get("deltas")) is list:
            assert _is_gaps(doc.parts[name]["deltas"])
    want = _decoded(value["parts"])
    if want is None:
        with pytest.raises(ParameterError):
            doc.denominators()
    else:
        assert doc.denominators().tolist() == want
    return True


def _with(**fields):
    return {**_BASE, **fields}


def _with_part(**part):
    return _with(parts={**_BASE["parts"], "A": {**_BASE["parts"]["A"], **part}})


_DIGITS = st.lists(st.integers(0, 9), max_size=2)
_WRITTEN_PART = st.builds(
    lambda values, shift: _listed(encode_deltas([v + shift for v in values])),
    st.lists(st.integers(0, 3000), min_size=2, max_size=8),
    st.sampled_from([0, 0, 2**64]),
)
_PART_VALUES = st.one_of(
    # as the writer makes them, first past int64 included (most parts)
    _WRITTEN_PART,
    _WRITTEN_PART,
    _WRITTEN_PART,
    # any first and deltas; a key that ends in "deltas
    st.fixed_dictionaries(
        {
            "first": st.one_of(st.integers(-5, 10**6), _JSON_SCALARS),
            "deltas": st.lists(st.one_of(st.integers(-5, 10**19), _JSON_SCALARS), max_size=4),
        },
        optional={'foo "deltas': _DIGITS},
    ),
    _JSON_SCALARS,
    _DIGITS,
)
_READ_DOCUMENTS = st.fixed_dictionaries(
    {
        # a header as written five times in six, field by field
        "version": st.sampled_from([1] * 15 + [2, 1.0, True]),
        "r": st.sampled_from(["1/2"] * 5 + ["2/4"]),
        "x": st.sampled_from([10] * 5 + ["10"]),
        "parameters": st.dictionaries(
            st.sampled_from(["k", "y", "warnings", "ω", "deltas", 'foo "deltas']),
            st.one_of(_JSON_SCALARS, st.text(max_size=2), _DIGITS),
            max_size=2,
        ),
        # parts a JSON object five times in six
        "parts": st.one_of(
            *[
                st.dictionaries(
                    st.sampled_from(["A", "A_prime", "D1", "D2", "név", "deltas"]),
                    _PART_VALUES,
                    min_size=1,
                    max_size=4,
                )
            ]
            * 5,
            _DIGITS,
        ),
        "certificate": st.dictionaries(
            st.sampled_from(["size", "distinct", "max_ok", "deltas"]), _DIGITS, max_size=2
        ),
        # None: no trace, which the writer always writes
        "trace": st.one_of(
            *[st.dictionaries(st.sampled_from(["steps", "deltas"]), _JSON_SCALARS)] * 7,
            st.none(),
        ),
    },
).map(lambda value: {k: v for k, v in value.items() if k != "trace" or v is not None})
_LAYOUTS = {
    "writer": _compact,
    "writer, newline": lambda v: _compact(v) + "\n",
    "spaces": json.dumps,
    "indent": lambda v: json.dumps(v, indent=1),
    "raw non-ASCII": lambda v: _compact(v, ensure_ascii=False),
}


@settings(max_examples=300, deadline=None)
@given(value=_READ_DOCUMENTS, layout=st.sampled_from(["writer", "writer, newline", *_LAYOUTS]))
@example(value=_BASE, layout="writer")
@example(value=_BASE, layout="writer, newline")
@example(value=_BASE, layout="spaces")
@example(value=_BASE, layout="indent")
@example(value=_with(parameters={"k": "ω"}), layout="raw non-ASCII")
@example(value=_with_part(**{'foo "deltas': [4]}), layout="writer")
@example(value=_with(certificate={'foo "deltas': [4]}), layout="writer")
@example(value=_with(certificate={"deltas": [4]}, parameters={"deltas": []}), layout="writer")
@example(value=_with(parts={"deltas": [1, 2]}), layout="writer")
@example(value=_with_part(deltas=[-1, 3]), layout="writer")
@example(value=_with_part(deltas=[10**18, 10**18 - 1]), layout="writer")
@example(value=_with_part(deltas=[3, 2**63]), layout="writer")
@example(value=_with(parts={}), layout="writer")
@example(value=_with(parts={"A": {"first": None, "deltas": []}}), layout="writer")
def test_reader_matches_json_loads(value, layout):
    """from_json reads the writer's text of a value, with or without one
    newline, to json.loads' value with int64 arrays in place of the parts'
    gap lists when the value is _acceptable, and refuses it otherwise; it
    refuses every other layout that differs from the writer's."""
    text = _LAYOUTS[layout](value)
    writers = text.removesuffix("\n") == _compact(value)
    assert _check_read(text) == (writers and _acceptable(value))


# Edits of _BASE's compact text: (old, new), old occurring once.
_TEXT_EDITS = {
    # part A's gap list rewritten; 10^18 - 1 is the largest gap read as digits
    **{
        f"[{e}]": ("[1,2]", f"[{e}]")
        for e in ["", "0", "01", "1,,2", "1,", ",1", "-1", "1, 2", " 1", "1.0", "1e2",
                  "999999999999999999", "1234567890123456789", "9999999999999999999",
                  "18446744073709551617"]
    },
    # a repeated key, in a part, of a part and of the document
    "repeated deltas": ('"deltas":[1,2]', '"deltas":[1,2],"deltas":[5]'),
    "repeated part": ('"parts":{', '"parts":{"A":{"deltas":[9],"first":1},'),
    "deltas outside parts": ('{"certificate"', '{"deltas":[7],"certificate"'),
    # a key that ends in "deltas, also beside a gap list that is not cut
    "key foo \\\"deltas": ('"first":2', '"first":2,"foo \\"deltas":[4]'),
    "key foo \\\"deltas beside [ ]": (
        '"deltas":[1,2],"first":2',
        '"deltas":[ ],"first":2,"foo \\"deltas":[4]',
    ),
    "a gap list inside a string": ('"k":3', '"k":"\\"deltas\\":[4]"'),
    "two newlines": ('"x":10}', '"x":10}\n\n'),
    "a leading space": ('{"certificate"', ' {"certificate"'),
}

#: The edits that leave the writer's text of another document, which
#: from_json reads like any: an empty part A, a repeated denominator, the
#: widest gap read, and a parameter that is a string.
_WRITER_EDITS = {"[]", "[0]", "[999999999999999999]", "a gap list inside a string"}


@pytest.mark.parametrize("edit", list(_TEXT_EDITS))
def test_reader_matches_json_loads_on_edited_text(edit):
    old, new = _TEXT_EDITS[edit]
    text = _compact(_BASE)
    assert text.count(old) == 1
    text = text.replace(old, new)
    assert _check_read(text) == (edit in _WRITER_EDITS)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["A", "A_prime", "C_minus_A_prime", "D1", "D2"]),
        st.lists(st.integers(1, 10**6), max_size=30),
    )
)
def test_written_gaps_are_read_as_arrays(values):
    """A document as to_json writes it, with or without the newline
    construct --out adds, reads to json.loads' value of its text with every
    part's gaps the int64 array they were written from."""
    doc = CertificateDocument(
        version=1,
        r="1/2",
        x=10**6,
        parameters={"warnings": []},
        parts={name: encode_deltas(v) for name, v in values.items()},
        trace={},
        certificate={"size": 3},
    )
    text = doc.to_json()
    for read in (text, text + "\n"):
        parsed = CertificateDocument.from_json(read)
        assert all(_is_gaps(part["deltas"]) for part in parsed.parts.values())
        assert _listed(vars(parsed)) == _listed(vars(doc)) == json.loads(read)


@pytest.fixture(scope="module")
def rep():
    return construct_dense(Fraction(1, 3), 10**5)


def test_document_round_trip_byte_identical(rep):
    doc = document_from_representation(rep)
    text = doc.to_json()
    again = CertificateDocument.from_json(text).to_json()
    assert text == again
    # every part of a constructed document is read as an int64 array
    parsed = CertificateDocument.from_json(text + "\n")
    assert all(_is_gaps(part["deltas"]) for part in parsed.parts.values())


def test_document_denominators_match(rep):
    doc = document_from_representation(rep)
    assert doc.denominators().tolist() == rep.denominators().tolist()


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
    # A claim of another JSON type is not consistent, even one that int()
    # or bool() would turn into the recomputed value.
    size, density = rep.certificate.size, rep.certificate.density
    for key, claim in (
        ("size", [size]),
        ("size", float(size)),
        ("sum_exact", "false"),
        ("max_ok", 1),
        ("max_element", 7),
        ("max_element", float(rep.certificate.max_element)),
        ("density_exact", "1/2"),
        # equal in value, not as written
        ("density_exact", f"{2 * density.numerator}/{2 * density.denominator}"),
        # every field of the block is compared, the _approx floats too, and
        # no key may be added
        ("density_approx", 0.9),
        ("c_of_r_approx", 0.99),
        ("upper_bound_1_minus_e_to_minus_r_approx", 1.0),
        ("verified_by", "densefrac"),
    ):
        doc = document_from_representation(rep)
        doc.certificate[key] = claim
        cert, ok = recheck_document(doc)
        assert cert.all_ok
        assert not ok, (key, claim)


def test_recheck_detects_cross_part_duplicate(rep):
    doc = document_from_representation(rep)
    stolen = decode_deltas(doc.parts["A"])[0]
    doc.parts["D1"] = encode_deltas([stolen])
    cert, ok = recheck_document(doc)
    assert not ok


@pytest.mark.parametrize("fault", ["wrong sum", "repeated value"])
def test_recheck_rejects_an_honest_failing_document(rep, fault, tmp_path, capsys):
    """A document whose certificate block truthfully reports a failed check
    is consistent, yet it is no certificate: recheck and `verify` refuse it
    on the failed field alone (sum_exact, or distinct with the sum exact)."""
    doc = document_from_representation(rep)
    if fault == "wrong sum":
        doc.parts["A"]["deltas"][3] += 2
    else:
        stolen = decode_deltas(doc.parts["A"])[0]
        doc.parts["D1"] = encode_deltas(decode_deltas(doc.parts["D1"]).tolist() + [stolen])
        doc.r = frac_str(parse_frac(doc.r) + Fraction(1, stolen))
    cert = check(parse_frac(doc.r), doc.denominators(), doc.x)
    doc.certificate = _certificate_block(cert)
    assert (cert.sum_exact, cert.distinct) == (
        (False, True) if fault == "wrong sum" else (True, False)
    )
    assert cert.max_ok
    assert recheck_document(doc)[1] is False
    path = tmp_path / "honest.json"
    path.write_text(doc.to_json() + "\n")
    assert cli.main(["verify", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["consistent_with_document"] is False


def test_malformed_document():
    """Each text is in the writer's layout, so that it reaches the check it
    names."""
    with pytest.raises(ParameterError, match="^malformed certificate JSON"):
        CertificateDocument.from_json("{not json")
    with pytest.raises(ParameterError, match="^certificate document missing field"):
        CertificateDocument.from_json('{"version":1}')
    header = {"version": 1, "r": "1/2", "x": 10, "parameters": {}, "trace": {}, "certificate": {}}
    # a gap list is digits alone, not a string, float, bool or object: the
    # reader refuses any other
    for deltas in ([{}], ["5"], [2.5], [5.0], [True], [-1], [None]):
        text = _compact({**header, "parts": {"A": {"first": 3, "deltas": deltas}}})
        with pytest.raises(ParameterError, match="is not plain digits"):
            CertificateDocument.from_json(text)
    # the reader leaves the rest of a part to decode_deltas
    for part in (
        [1, 2],
        {"first": 3, "deltas": 7},
        {"first": 3},
        {"first": "3", "deltas": []},
        {"first": True, "deltas": []},
        # a null first is the empty part: it admits no deltas
        {"first": None, "deltas": [5, 7]},
    ):
        doc = CertificateDocument.from_json(_compact({**header, "parts": {"A": part}}))
        with pytest.raises(ParameterError, match="^malformed (certificate part|delta encoding)"):
            doc.denominators()
    # Gaps in memory are an int64 array: a list, or an array of another
    # dtype, is refused.
    for deltas in (
        [5],
        np.array([2.5]),
        np.array([5.0]),
        np.array([True]),
        np.array(["5"], dtype=object),
        np.array([5], dtype=object),
    ):
        with pytest.raises(ParameterError, match="^malformed delta encoding: first"):
            decode_deltas({"first": 3, "deltas": deltas})
    # The header as written parses, trace included; any other layout, an
    # added field or a missing trace does not, nor does an edit that int(),
    # str() or dict() would turn back into the header.
    good = {**header, "parts": {}}
    assert CertificateDocument.from_json(_compact(good)).to_json() == _compact(good)
    for text in (json.dumps(good), _compact({**good, "extra": 1})):
        with pytest.raises(ParameterError, match="not as construct writes it"):
            CertificateDocument.from_json(text)
    with pytest.raises(ParameterError, match="missing field: 'trace'"):
        CertificateDocument.from_json(_compact({k: v for k, v in good.items() if k != "trace"}))
    for key, value in (
        ("version", 99),
        ("version", 1.7),
        ("version", 1.0),
        ("version", True),
        ("version", "1"),
        ("x", 10.9),
        ("x", 10.0),
        ("x", "10"),
        ("x", True),
        ("r", "2/4"),
        ("r", " 1/2 "),
        ("r", "0.5"),
        ("r", 0.5),
        ("parameters", [["k", 3]]),
        ("parts", []),
        ("certificate", None),
        ("trace", [["stage_one", {}]]),
    ):
        with pytest.raises(ParameterError, match=f"^certificate {key} "):
            CertificateDocument.from_json(_compact({**good, key: value}))


# sha256 of document_from_representation(construct_dense(r, x, **options))
# .to_json(). The entries cover the options, the stage-two retries (1/3 with
# k=4 takes 4 attempts), the delta retune (10/11 retunes once and then
# retries stage two; 1 only retunes) and stage-one eliminations on slices
# thinner than p-1 (1/12). A change meant to keep certificates as they are
# must keep these bytes.
GOLDEN_DOCUMENTS = [
    ("1/3", 10**4, {}, "9486ee5bddbc55aa53cde3053fb5f592d453429dae80fd2cc2a1c144b4e3d768"),
    ("1/2", 10**4, {}, "393aa205a931e517e12e4843da8b60e735c28ddde26fb83f2c6d08ee3b5d805a"),
    ("1", 10**4, {}, "f8c3d20f8e1d0f0ed892a2ac84707145b73f97b040bf26bd1b0a370d50cad90a"),
    ("19/21", 10**5, {}, "fa4627042daad6a2c1a39cc8327ea12482443d958a02e7c25f5b54fd0900ac6a"),
    ("1/12", 10**5, {}, "b0dd519de9ac8cb09db416dea19d4825ebcf9e4a325a53fb256954fbf1257a7c"),
    ("1/3", 10**5, {"k": 4}, "8f843d067f66663ec136270f6d24e9841565e5693c858075981e4f8de0659658"),
    ("1/2", 10**5, {"y_prime": 20},
     "f53721d5c1a0e0a0fda957ee55c5ac66839eef843fcc26db51531aeafd56fb10"),
    ("10/11", 10**5, {}, "aeb4124f1dcb09fa7c4f5a47a5dd0234e354946e73b2a866ff7982102c483d4f"),
    ("1", 10**5, {}, "c0a4f62f8b79ea38068c25d7d4a84d86cac3f5b25028f53cedfa3a034db790ff"),
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
    assert CertificateDocument.from_json(text).to_json() == text
    assert document_facts(text) == {"sum_exact": True, "distinct": True, "max_ok": True}
