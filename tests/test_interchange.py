"""JSON interchange: round trips, shorthand, and parse diagnostics."""

import json

import pytest

from conftest import _self_module
from hyperlie.errors import ParseError
from hyperlie.generators import (
    gen_coset_hypergroup,
    gen_quotient_hyperfield,
    make_s3,
    preset_structure,
)
from hyperlie.interchange import parse_structure, serialize_structure
from hyperlie.structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
)


def _roundtrip(x):
    text = serialize_structure(x)
    y = parse_structure(text)
    assert serialize_structure(y) == text
    return y


def test_roundtrip_lie(ex1):
    y = _roundtrip(ex1)
    assert isinstance(y, FiniteLieHyperalgebra)
    assert y.names == ex1.names
    assert y.bracket == ex1.bracket
    assert y.field.names == ex1.field.names


def test_roundtrip_hyperfield(m1):
    y = _roundtrip(m1)
    assert isinstance(y, FiniteHyperfield)
    assert y.add == m1.add and y.mul == m1.mul


def test_roundtrip_hypergroup():
    table, _ = make_s3()
    hg = gen_coset_hypergroup(table, [0, 1])
    y = _roundtrip(hg)
    assert isinstance(y, Hypergroup)
    assert y.add == hg.add


def test_trivial_field_serialized_as_shorthand(ab1):
    doc = json.loads(serialize_structure(ab1))
    assert doc["field"] == "trivial:F3"


def test_nontrivial_field_embedded(m4):
    doc = json.loads(serialize_structure(m4))
    assert isinstance(doc["field"], dict)
    assert doc["field"]["kind"] == "hyperfield"


def test_serialization_deterministic(ex2):
    assert serialize_structure(ex2) == serialize_structure(ex2)


def test_missing_bracket_row_names_the_row(ab1):
    doc = json.loads(serialize_structure(ab1))
    del doc["bracket"][1]
    with pytest.raises(ParseError) as ei:
        parse_structure(json.dumps(doc))
    assert "bracket" in str(ei.value)
    assert "2" in str(ei.value)  # row count mismatch names the numbers


def test_duplicate_identifier_rejected(ab1):
    doc = json.loads(serialize_structure(ab1))
    doc["elements"][1] = doc["elements"][0]
    with pytest.raises(ParseError) as ei:
        parse_structure(json.dumps(doc))
    assert "duplicate identifier" in str(ei.value)


def test_unknown_element_in_cell(ab1):
    doc = json.loads(serialize_structure(ab1))
    doc["add"][0][0] = ["nope"]
    with pytest.raises(ParseError) as ei:
        parse_structure(json.dumps(doc))
    assert "nope" in str(ei.value)


def test_zero_declaration_checked(ab1):
    doc = json.loads(serialize_structure(ab1))
    doc["zero"] = "a"
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def test_bad_kind(ab1):
    doc = json.loads(serialize_structure(ab1))
    doc["kind"] = "ring"
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def test_not_json():
    with pytest.raises(ParseError):
        parse_structure("{nope")


def test_field_shorthand_parse(ex2):
    text = serialize_structure(ex2)
    y = parse_structure(text)
    assert y.field.is_trivial and y.field.gf_order == 3


def test_parse_and_serialize_build_no_field(monkeypatch, ab1, m1):
    # an embedded field is compared with get_gf's tables; only the
    # trivial:F<q> shorthand builds a hyperfield
    gf3 = serialize_structure(ab1.field)

    def refuse(*_):
        raise AssertionError("a hyperfield was built")

    monkeypatch.setattr("hyperlie.interchange.gen_trivial_field", refuse)
    F = parse_structure(gf3)
    assert F.gf_order == 3
    assert parse_structure(serialize_structure(m1)).gf_order is None
    assert json.loads(serialize_structure(_self_module(F)))["field"] == "trivial:F3"


def test_canonical_cell_order(m2):
    # value lists follow element order, making byte-equality meaningful
    doc = json.loads(serialize_structure(m2))
    order = {nm: i for i, nm in enumerate(doc["elements"])}
    for row in doc["add"]:
        for cell in row:
            assert cell == sorted(cell, key=order.__getitem__)
