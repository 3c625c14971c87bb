"""JSON interchange: parse and canonically serialize structures.

Schema: {"kind": "hyperfield" | "lie_hyperalgebra" | "hypergroup",
"elements": [...], "zero"/"one" identifiers, tables "add"/"mul"/"bracket"
as row-major lists of identifier lists, "scalar" rows indexed by the field,
"field" an embedded hyperfield or the shorthand "trivial:F<q>". Canonical
output sorts every value list by element order, so serialization is
byte-deterministic and round-trips to an equal structure.
"""

from __future__ import annotations

import json

from .errors import HyperlieError, ParseError
from .generators import gen_trivial_field
from .gf import get_gf
from .sets import iter_bits
from .structures import FiniteHyperfield, FiniteLieHyperalgebra, Hypergroup, check_carrier_size

_KINDS = ("hyperfield", "lie_hyperalgebra", "hypergroup")


def _names_and_index(obj, path):
    names = obj.get("elements")
    if not isinstance(names, list) or not names:
        raise ParseError(f"{path}.elements: need a non-empty identifier list")
    index = {}
    for i, nm in enumerate(names):
        if not isinstance(nm, str) or not nm:
            raise ParseError(f"{path}.elements[{i}]: identifiers are non-empty strings")
        if nm in index:
            raise ParseError(f"{path}.elements[{i}]: duplicate identifier {nm!r}")
        index[nm] = i
    return names, index


def _cell_mask(cell, index, table, r, c):
    if not isinstance(cell, list) or not cell:
        raise ParseError(f"{table}[{r}][{c}]: each entry is a non-empty identifier list")
    mask = 0
    for nm in cell:
        i = index.get(nm) if isinstance(nm, str) else None
        if i is None:
            raise ParseError(f"{table}[{r}][{c}]: unknown identifier {nm!r}")
        mask |= 1 << i
    return mask


def _table(obj, key, nrows, ncols, index, path, required=True):
    rows = obj.get(key)
    if rows is None:
        if required:
            raise ParseError(f"{path}.{key}: table is missing")
        return None
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ParseError(f"{path}.{key}: expected {nrows} rows, got "
                         f"{len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = []
    table = f"{path}.{key}"
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{table} row {r}: expected {ncols} entries")
        out.append([_cell_mask(cell, index, table, r, c) for c, cell in enumerate(row)])
    return out


def _identifier(obj, key, index, path, required=True):
    nm = obj.get(key)
    if nm is None:
        if required:
            raise ParseError(f"{path}.{key}: identifier is missing")
        return None
    if not isinstance(nm, str) or nm not in index:
        raise ParseError(f"{path}.{key}: unknown identifier {nm!r}")
    return index[nm]


def _parse_hyperfield(obj, path) -> FiniteHyperfield:
    names, index = _names_and_index(obj, path)
    n = len(names)
    add = _table(obj, "add", n, n, index, path)
    mul = _table(obj, "mul", n, n, index, path)
    zero = _identifier(obj, "zero", index, path)
    one = _identifier(obj, "one", index, path)
    F = FiniteHyperfield(names, add, mul)
    if _is_canonical(F):
        F.gf_order = n
    if F.zero is not None and F.zero != zero:
        raise ParseError(f"{path}.zero: declared {names[zero]!r} but tables "
                         f"make {names[F.zero]!r} the additive identity")
    if F.one is not None and F.one != one:
        raise ParseError(f"{path}.one: declared {names[one]!r} but tables "
                         f"make {names[F.one]!r} the unit")
    return F


def _is_canonical(F: FiniteHyperfield) -> bool:
    """Whether F's tables are those of the canonical GF(|F|), get_gf's."""
    if not F.is_trivial:
        return False
    try:
        check_carrier_size(F.size)
        gf = get_gf(F.size)
    except HyperlieError:
        return False
    return F.add_elt == gf.add and F.mul_elt == gf.mul


def _parse_field_ref(ref, path) -> FiniteHyperfield:
    if isinstance(ref, str):
        if not ref.startswith("trivial:F"):
            raise ParseError(f"{path}: field shorthand must look like trivial:F3")
        try:
            q = int(ref[len("trivial:F"):])
        except ValueError:
            raise ParseError(f"{path}: bad field order in {ref!r}") from None
        check_carrier_size(q)
        try:
            return gen_trivial_field(q)
        except HyperlieError:
            raise ParseError(f"{path}: no trivial hyperfield of order {q}") from None
    if isinstance(ref, dict):
        if ref.get("kind") != "hyperfield":
            raise ParseError(f"{path}.kind: embedded field must be a hyperfield")
        return _parse_hyperfield(ref, path)
    raise ParseError(f"{path}: field must be an object or trivial:F<q>")


def _parse_lie(obj, path) -> FiniteLieHyperalgebra:
    names, index = _names_and_index(obj, path)
    n = len(names)
    F = _parse_field_ref(obj.get("field"), f"{path}.field")
    add = _table(obj, "add", n, n, index, path)
    bracket = _table(obj, "bracket", n, n, index, path)
    smul = _table(obj, "scalar", F.size, n, index, path)
    zero = _identifier(obj, "zero", index, path)
    L = FiniteLieHyperalgebra(F, names, add, smul, bracket)
    if L.zero is not None and L.zero != zero:
        raise ParseError(f"{path}.zero: declared {names[zero]!r} but tables "
                         f"make {names[L.zero]!r} the zero vector")
    return L


def parse_structure(text: str):
    """Parse interchange JSON into a structure; ParseError on any defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise ParseError(f"kind: expected one of {list(_KINDS)}, got {kind!r}")
    if kind == "hyperfield":
        return _parse_hyperfield(obj, "hyperfield")
    if kind == "hypergroup":
        names, index = _names_and_index(obj, "hypergroup")
        n = len(names)
        add = _table({"add": obj.get("add")}, "add", n, n, index, "hypergroup")
        return Hypergroup(names, add)
    return _parse_lie(obj, "lie_hyperalgebra")


def _cells(table, names):
    return [
        [[names[i] for i in iter_bits(mask)] for mask in row]
        for row in table
    ]


def _field_ref(F: FiniteHyperfield):
    if _is_canonical(F):
        return f"trivial:F{F.size}"
    return _field_obj(F)


def _field_obj(F: FiniteHyperfield):
    return {
        "kind": "hyperfield",
        "elements": list(F.names),
        "zero": F.names[F.zero] if F.zero is not None else None,
        "one": F.names[F.one] if F.one is not None else None,
        "add": _cells(F.add, F.names),
        "mul": _cells(F.mul, F.names),
    }


def serialize_structure(x) -> str:
    """Canonical interchange JSON (value lists in element order)."""
    if isinstance(x, FiniteLieHyperalgebra):
        obj = {
            "kind": "lie_hyperalgebra",
            "elements": list(x.names),
            "zero": x.names[x.zero] if x.zero is not None else None,
            "add": _cells(x.add, x.names),
            "bracket": _cells(x.bracket, x.names),
            "scalar": _cells(x.smul, x.names),
            "field": _field_ref(x.field),
        }
    elif isinstance(x, FiniteHyperfield):
        obj = _field_obj(x)
    elif isinstance(x, Hypergroup):
        obj = {
            "kind": "hypergroup",
            "elements": list(x.names),
            "add": _cells(x.add, x.names),
        }
    else:
        raise ParseError(f"cannot serialize {type(x).__name__}")
    return json.dumps(obj, indent=1, ensure_ascii=False) + "\n"
