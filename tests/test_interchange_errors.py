"""Parse and constructor error texts pinned byte for byte.

The goldens in tests/data/interchange_error_goldens.json were captured
from the parser and the structure constructors before table intake read
one-identifier cells straight into bits. Each parse case puts one bad cell
into an otherwise all-singleton row of ab1 written out with its field
embedded, at the first and at the last column of the add, bracket and
scalar tables and of the field's mul table. Each constructor case puts one
bad mask into the same tables of ab1 and builds the structure directly.

Regenerate (only when an error text changes on purpose):
    PYTHONPATH=src python tests/test_interchange_errors.py
"""

import json
import os

import pytest

from hyperlie.errors import MalformedTable, ParseError
from hyperlie.generators import preset_structure
from hyperlie.interchange import parse_structure, serialize_structure
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "interchange_error_goldens.json")

ROW = 1
COLUMNS = (0, -1)


def _document():
    """ab1 as interchange JSON, with GF(3) embedded instead of trivial:F3."""
    L = preset_structure("ab1")
    doc = json.loads(serialize_structure(L))
    doc["field"] = json.loads(serialize_structure(L.field))
    return doc


def _tables(doc):
    """(label, table, element names) of each table that a parse case corrupts."""
    field = doc["field"]
    return [("add", doc["add"], doc["elements"]),
            ("bracket", doc["bracket"], doc["elements"]),
            ("scalar", doc["scalar"], doc["elements"]),
            ("field.mul", field["mul"], field["elements"])]


def _table_of(doc, label):
    return next(t for lb, t, _ in _tables(doc) if lb == label)


def _bad_cells(name):
    """The bad cells of a parse case; name is a one-character identifier
    of the table's carrier, so the plain string names an element."""
    return [name, [], [1], [[name]], {name: 1}, ["zz"]]


def _parse_cases():
    for label, _, names in _tables(_document()):
        name = next(nm for nm in names if len(nm) == 1 and nm != names[0])
        for col in COLUMNS:
            for cell in _bad_cells(name):
                doc = _document()
                _table_of(doc, label)[ROW][col] = cell
                yield f"{label}[{ROW}][{col}] = {json.dumps(cell)}", json.dumps(doc)


def _constructor_cases():
    L = preset_structure("ab1")
    F = L.field
    for label in ("add", "smul", "bracket", "field.mul"):
        for col in COLUMNS:
            for cell in (0, 1 << L.size, "x", 1.0):
                key = f"{label}[{ROW}][{col}] = {cell!r}"
                tables = {"add": L.add, "smul": L.smul, "bracket": L.bracket, "field.mul": F.mul}
                table = [list(row) for row in tables[label]]
                table[ROW][col] = cell
                tables[label] = table

                def build(tables=tables):
                    field = FiniteHyperfield(F.names, F.add, tables["field.mul"])
                    return FiniteLieHyperalgebra(field, L.names, tables["add"], tables["smul"],
                                                 tables["bracket"])

                yield key, build


def _error_text(exc_type, build):
    with pytest.raises(exc_type) as ei:
        build()
    return str(ei.value)


def _capture():
    return {
        "parse": {k: _error_text(ParseError, lambda t=t: parse_structure(t))
                  for k, t in _parse_cases()},
        "constructor": {k: _error_text(MalformedTable, b) for k, b in _constructor_cases()},
    }


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,text", [pytest.param(k, t, id=k) for k, t in _parse_cases()])
def test_parse_error_text(goldens, key, text):
    assert _error_text(ParseError, lambda: parse_structure(text)) == goldens["parse"][key]


@pytest.mark.parametrize("key,build",
                         [pytest.param(k, b, id=k) for k, b in _constructor_cases()])
def test_constructor_error_text(goldens, key, build):
    assert _error_text(MalformedTable, build) == goldens["constructor"][key]


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens["parse"]) == sorted(k for k, _ in _parse_cases())
    assert sorted(goldens["constructor"]) == sorted(k for k, _ in _constructor_cases())


@pytest.mark.parametrize("col", COLUMNS)
def test_repeated_identifier_is_one_element(col):
    for label, _, names in _tables(_document()):
        name = names[1]
        doc, once = _document(), _document()
        _table_of(doc, label)[ROW][col] = [name, name]
        _table_of(once, label)[ROW][col] = [name]
        assert serialize_structure(parse_structure(json.dumps(doc))) == \
            serialize_structure(parse_structure(json.dumps(once))), label


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(_capture(), fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
