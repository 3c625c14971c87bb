"""JSON interchange: round trips, shorthand, and parse diagnostics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import reference_interchange
from conftest import _gf_line_document, _self_module
from hyperlie import interchange
from hyperlie.errors import ParseError
from hyperlie.generators import (
    gen_coset_hypergroup,
    gen_quotient_hyperfield,
    gen_trivial_field,
    make_s3,
    preset_structure,
)
from hyperlie.interchange import _is_canonical, parse_structure, serialize_structure
from hyperlie.structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
    check_hyperfield,
    check_lie_hyperalgebra,
)


def _mask_only(y):
    """y built again from its mask tables alone, through the constructors'
    checked path."""
    if isinstance(y, FiniteLieHyperalgebra):
        return FiniteLieHyperalgebra(_mask_only(y.field), y.names, y.add, y.smul, y.bracket)
    if isinstance(y, FiniteHyperfield):
        return FiniteHyperfield(y.names, y.add, y.mul)
    return Hypergroup(y.names, y.add)


def _index_forms(y):
    """y's element-index tables and is_trivial, then its field's."""
    forms = [getattr(y, k, None) for k in ("add_elt", "mul_elt", "smul_elt", "br_elt", "is_trivial")]
    return forms + (_index_forms(y.field) if isinstance(y, FiniteLieHyperalgebra) else [])


def _assert_index_forms_match(x):
    y = parse_structure(serialize_structure(x))
    assert _index_forms(y) == _index_forms(_mask_only(y)) == _index_forms(x)
    return y


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


def test_field_shorthand_is_not_checked_on_load(monkeypatch):
    # trivial:F<q> stands for GF(q)'s own tables, which are not checked on
    # every load; the check command still checks the field, through
    # check_lie_hyperalgebra
    def refuse(*_):
        raise AssertionError("a hyperfield was checked")

    text = json.dumps(_gf_line_document(243))
    ab1 = serialize_structure(preset_structure("ab1"))
    with monkeypatch.context() as m:
        m.setattr("hyperlie.structures.check_hyperfield", refuse)
        m.setattr("hyperlie.generators.check_hyperfield", refuse)
        assert parse_structure(text).field.gf_order == 243
        L = parse_structure(ab1)
    calls = []
    monkeypatch.setattr("hyperlie.structures.check_hyperfield",
                        lambda F: calls.append(F) or check_hyperfield(F))
    assert check_lie_hyperalgebra(L).ok
    assert calls == [L.field]


def test_serializer_matches_the_reference_on_the_fixtures(ex1, ex2, m1, m2, m4, m1_module):
    table, _ = make_s3()
    for x in (ex1, ex2, m1, m2, m4, m1_module, gen_coset_hypergroup(table, [0, 1])):
        assert serialize_structure(x) == reference_interchange.serialize_structure(x)


# identifiers that JSON must escape, non-ASCII ones, and any other character
_NAME = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7fé∑😀') | st.characters(),
                min_size=1, max_size=3)


def _names(draw, k):
    return draw(st.lists(_NAME, min_size=k, max_size=k, unique=True))


def _table(draw, rows, k, singleton):
    cell = (st.integers(0, k - 1).map(lambda i: 1 << i) if singleton
            else st.integers(1, (1 << k) - 1))
    return [[draw(cell) for _ in range(k)] for _ in range(rows)]


def _plant_identity(table, e, skip=()):
    for x in range(len(table)):
        if x not in skip:
            table[e][x] = table[x][e] = 1 << x


@st.composite
def _hyperfields(draw):
    k, singleton = draw(st.integers(2, 4)), draw(st.booleans())
    add, mul = _table(draw, k, k, singleton), _table(draw, k, k, singleton)
    if draw(st.booleans()):  # locate zero and one, so that the file parses
        _plant_identity(add, 0)
        _plant_identity(mul, 1, skip=(0,))
    return FiniteHyperfield(_names(draw, k), add, mul)


@st.composite
def _structures(draw):
    kind = draw(st.sampled_from(["hypergroup", "hyperfield", "lie_hyperalgebra"]))
    if kind == "hyperfield":
        return draw(_hyperfields())
    k, singleton = draw(st.integers(1, 5)), draw(st.booleans())
    names = _names(draw, k)
    if kind == "hypergroup":
        return Hypergroup(names, _table(draw, k, k, singleton))
    F = draw(_hyperfields() | st.sampled_from([2, 3, 4, 5]).map(gen_trivial_field))
    smul = _table(draw, F.size, k, singleton)
    if F.zero is not None and draw(st.booleans()):  # locate the zero vector
        smul[F.zero][0] = 1 << draw(st.integers(0, k - 1))
    return FiniteLieHyperalgebra(F, names, _table(draw, k, k, singleton), smul,
                                 _table(draw, k, k, singleton))


def _parses(x) -> bool:
    """Whether every zero and one of x's file names an element."""
    if isinstance(x, FiniteLieHyperalgebra):
        return x.zero is not None and (_is_canonical(x.field) or _parses(x.field))
    if isinstance(x, FiniteHyperfield):
        return x.zero is not None and x.one is not None
    return True


def _tables(x):
    if isinstance(x, FiniteLieHyperalgebra):
        field = x.field.add, x.field.mul
        if not _is_canonical(x.field):
            field += (x.field.names,)
        return x.names, x.add, x.bracket, x.smul, field
    if isinstance(x, FiniteHyperfield):
        return x.names, x.add, x.mul
    return x.names, x.add


@settings(max_examples=200, deadline=None)
@given(_structures())
def test_serializer_matches_the_reference_and_round_trips(x):
    text = serialize_structure(x)
    assert text == reference_interchange.serialize_structure(x)
    if _parses(x):
        y = parse_structure(text)
        assert type(y) is type(x)
        assert _tables(y) == _tables(x)


def test_index_form_matches_the_mask_only_constructor(ex1, ex2, ab1, ab5, m1, m2, m3, m4,
                                                      m1_module, randomized_trivial):
    table, _ = make_s3()
    for x in (ex1, ex2, ab1, ab5, m1, m2, m3, m4, m1_module, *randomized_trivial,
              *map(gen_trivial_field, (2, 3, 4, 9)), gen_coset_hypergroup(table, [0, 1])):
        _assert_index_forms_match(x)


def test_index_form_of_rows_off_the_fast_path(ab1):
    doc = json.loads(serialize_structure(ab1))
    names, index = doc["elements"], {nm: i for i, nm in enumerate(doc["elements"])}
    # one multivalued cell: no index form, and the algebra is not trivial
    doc["bracket"][1][2] = [names[0], names[1]]
    assert interchange._table(doc, "bracket", 3, 3, index, "x")[1] is None
    L = parse_structure(json.dumps(doc))
    assert L.br_elt is None and not L.is_trivial
    assert _index_forms(L) == _index_forms(_mask_only(L))
    # a repeated identifier: its row is read cell by cell, but its mask is a
    # singleton, so the constructor still derives the index form
    doc = json.loads(serialize_structure(ab1))
    doc["add"][1][2] = [names[0], names[0]]
    masks, elt = interchange._table(doc, "add", 3, 3, index, "x")
    assert elt is None and masks[1][2] == 1
    L = parse_structure(json.dumps(doc))
    assert L.add_elt is not None and L.is_trivial
    assert _index_forms(L) == _index_forms(_mask_only(L))


def test_singleton_files_take_the_fast_path(monkeypatch, ex1, ex2, ab1, randomized_trivial):
    # a file of one-identifier cells is read without the cell-by-cell path
    # of the parser or the checked path of the constructors
    texts = [serialize_structure(x) for x in (ex1, ex2, ab1, *randomized_trivial)]

    def refuse(*_):
        raise AssertionError("a singleton table left the fast path")

    monkeypatch.setattr("hyperlie.interchange._cell_mask", refuse)
    monkeypatch.setattr("hyperlie.structures._checked", refuse)
    for text in texts:
        y = parse_structure(text)
        assert y.is_trivial and serialize_structure(y) == text


@settings(max_examples=100, deadline=None)
@given(_structures())
def test_index_form_matches_the_mask_only_constructor_on_random_structures(x):
    if _parses(x):
        _assert_index_forms_match(x)
