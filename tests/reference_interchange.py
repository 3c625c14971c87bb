"""The interchange serializer as json.dumps writes it, kept as a test oracle.

Each structure becomes a dict of named value lists, dumped with indent=1
by the standard library's pure-Python encoder. hyperlie.interchange writes
the same bytes from one cached string per distinct cell mask; the property
tests compare the two.
"""

import json

from hyperlie.interchange import _is_canonical
from hyperlie.sets import iter_bits
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra, Hypergroup


def _cells(table, names):
    return [
        [[names[i] for i in iter_bits(mask)] for mask in row]
        for row in table
    ]


def _field_ref(F):
    if _is_canonical(F):
        return f"trivial:F{F.size}"
    return _field_obj(F)


def _field_obj(F):
    return {
        "kind": "hyperfield",
        "elements": list(F.names),
        "zero": F.names[F.zero] if F.zero is not None else None,
        "one": F.names[F.one] if F.one is not None else None,
        "add": _cells(F.add, F.names),
        "mul": _cells(F.mul, F.names),
    }


def serialize_structure(x) -> str:
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
        raise TypeError(f"cannot serialize {type(x).__name__}")
    return json.dumps(obj, indent=1, ensure_ascii=False) + "\n"
