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
from operator import itemgetter

from .errors import HyperlieError, ParseError
from .generators import gen_trivial_field
from .gf import canonical_order
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


def _table(obj, key, nrows, ncols, index, path):
    """The mask table obj[key], with its element-index form when every row
    is of one-identifier cells, else None."""
    rows = obj.get(key)
    if rows is None:
        raise ParseError(f"{path}.{key}: table is missing")
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ParseError(f"{path}.{key}: expected {nrows} rows, got "
                         f"{len(rows) if isinstance(rows, list) else type(rows).__name__}")
    masks, elt = [], []
    table = f"{path}.{key}"
    bits = [1 << i for i in range(len(index))]
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{table} row {r}: expected {ncols} entries")
        try:  # a row of one-identifier cells is read straight to element indices
            elts = [index[c] for [c] in row] if {list}.issuperset(map(type, row)) else None
        except (ValueError, KeyError, TypeError):  # any other row is read cell by cell
            elts = None
        elt.append(elts)
        if elts is None:
            masks.append([_cell_mask(cell, index, table, r, c) for c, cell in enumerate(row)])
        else:  # itemgetter of one index returns the item, not a tuple
            masks.append(list(itemgetter(*elts)(bits)) if ncols > 1 else [bits[elts[0]]])
    return masks, (None if None in elt else elt)


def _identifier(obj, key, index, path):
    nm = obj.get(key)
    if nm is None:
        raise ParseError(f"{path}.{key}: identifier is missing")
    if not isinstance(nm, str) or nm not in index:
        raise ParseError(f"{path}.{key}: unknown identifier {nm!r}")
    return index[nm]


def _parse_hyperfield(obj, path) -> FiniteHyperfield:
    names, index = _names_and_index(obj, path)
    n = len(names)
    add, add_elt = _table(obj, "add", n, n, index, path)
    mul, mul_elt = _table(obj, "mul", n, n, index, path)
    zero = _identifier(obj, "zero", index, path)
    one = _identifier(obj, "one", index, path)
    F = FiniteHyperfield(names, add, mul, elt=(add_elt, mul_elt))
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
    """Whether F's tables are those of the canonical GF(|F|), get_gf's; F's
    carrier passed the cap when F was built."""
    return F.is_trivial and canonical_order(F.add_elt, F.mul_elt) is not None


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
    add, add_elt = _table(obj, "add", n, n, index, path)
    bracket, br_elt = _table(obj, "bracket", n, n, index, path)
    smul, smul_elt = _table(obj, "scalar", F.size, n, index, path)
    zero = _identifier(obj, "zero", index, path)
    L = FiniteLieHyperalgebra(F, names, add, smul, bracket, elt=(add_elt, smul_elt, br_elt))
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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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
        add, add_elt = _table(obj, "add", n, n, index, "hypergroup")
        return Hypergroup(names, add, elt=(add_elt,))
    return _parse_lie(obj, "lie_hyperalgebra")


def _layout(items, depth, brackets="[]"):
    """Encoded items as json.dumps(indent=1) lays out an array, or with
    brackets "{}" an object, that opens on a line indented by depth."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _table_text(table, quoted, depth):
    """A mask table at depth, as lists of the encoded names quoted[i] of its
    elements, each distinct cell encoded once."""
    cells = {m: _layout([quoted[i] for i in iter_bits(m)], depth + 2)
             for m in set().union(*table)}
    return _layout([_layout(list(map(cells.__getitem__, row)), depth + 1) for row in table],
                   depth)


def _object_text(x, depth) -> str:
    """x's interchange object, byte for byte as json.dumps(obj, indent=1,
    ensure_ascii=False) writes it nested at depth."""
    quoted = [json.dumps(nm, ensure_ascii=False) for nm in x.names]

    def name(i):
        return quoted[i] if i is not None else "null"

    def table(t):
        return _table_text(t, quoted, depth + 1)

    if isinstance(x, FiniteLieHyperalgebra):
        F = x.field
        field = (json.dumps(f"trivial:F{F.size}") if _is_canonical(F)
                 else _object_text(F, depth + 1))
        kind, items = "lie_hyperalgebra", [
            ("zero", name(x.zero)), ("add", table(x.add)), ("bracket", table(x.bracket)),
            ("scalar", table(x.smul)), ("field", field)]
    elif isinstance(x, FiniteHyperfield):
        kind, items = "hyperfield", [("zero", name(x.zero)), ("one", name(x.one)),
                                     ("add", table(x.add)), ("mul", table(x.mul))]
    elif isinstance(x, Hypergroup):
        kind, items = "hypergroup", [("add", table(x.add))]
    else:
        raise ParseError(f"cannot serialize {type(x).__name__}")
    items = [("kind", json.dumps(kind)), ("elements", _layout(quoted, depth + 1)), *items]
    return _layout([f"{json.dumps(k)}: {v}" for k, v in items], depth, "{}")


def serialize_structure(x) -> str:
    """Canonical interchange JSON (value lists in element order)."""
    return _object_text(x, 0) + "\n"
