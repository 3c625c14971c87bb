"""Generator output pinned: the sha256 of `serialize_structure` for each
generator, and the linear oracle's partitions.

The goldens in tests/data/generator_goldens.json were captured before the
structure-constant arithmetic (bracket, base-q packing, field tables) was
gathered into one module. They pin the generated tables themselves, which
the check and relation goldens only see through their outputs:

- every preset;
- trivial algebras over GF(4), GF(8) and GF(9), with brackets whose
  coefficients lie outside the prime field;
- the trivial field GF(q) for every prime power q <= 27 and for
  q = 32, 49, 64, 81, 121, 125, 128, 169, 243 and 256, which fixes the
  field tables and the choice of irreducible polynomial;
- scalar-orbit quotients, quotient hyperfields and coset hypergroups of
  S3, Z6, Z8 and Z12;
- the reference linear_oracle_Sn on the constants of ex1 and ex2 and
  linear_oracle_partition on the generated algebras, at n = 1..3;
- the linear oracle's premise: detect_trivial's verdict (field order and
  basis names, or null) and linear_oracle_partition at n = 1..3, or the
  name of the error it raises, on algebras it accepts (in characteristic
  2 too) and on ones it refuses: an orbit quotient, two tables whose span
  from zero misses an element, a bracket with [a, a] = a and GF(9) with
  1 and 2 trading labels.

Regenerate (only when the output format changes on purpose):
    PYTHONPATH=src python tests/test_generator_goldens.py
"""

import hashlib
import json
import os

from conftest import _relabelled
from hyperlie.errors import HyperlieError
from hyperlie.generators import (
    CONSTANT_PRESETS,
    gen_coset_hypergroup,
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
    preset_structure,
)
from hyperlie.gf import classical_tables, get_gf
from hyperlie.interchange import parse_structure, serialize_structure
from hyperlie.quotients import detect_trivial, linear_oracle_partition
from hyperlie.structures import FiniteLieHyperalgebra
from reference_linear import linear_oracle_Sn

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "generator_goldens.json")

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                32, 49, 64, 81, 121, 125, 128, 169, 243, 256)

TRIVIAL_CASES = {
    "GF(4)^2 [a,b]=b": (4, 2, {(0, 1): (0, 1)}),
    "GF(4)^2 [a,b]=2a+3b": (4, 2, {(0, 1): (2, 3)}),
    "GF(8)^2 [a,b]=b": (8, 2, {(0, 1): (0, 1)}),
    "GF(8)^2 [a,b]=5a+3b": (8, 2, {(0, 1): (5, 3)}),
    "GF(9)^1": (9, 1, {}),
    "GF(9)^2 [a,b]=7a+4b": (9, 2, {(0, 1): (7, 4)}),
}

ORBIT_CASES = {
    "orbit q=7 dim=2 H=1,2,4": (7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
    "orbit q=5 dim=3 H=1,4": (5, 3, {(0, 1): (0, 0, 1)}, [1, 4]),
    "orbit q=3 dim=3 H=1,2": (3, 3, CONSTANT_PRESETS["ex2"][2], [1, 2]),
}

QUOTIENT_FIELD_CASES = {
    "qhyperfield q=7 H=1,2,4": (7, [1, 2, 4]),
    "qhyperfield q=7 H=1,6": (7, [1, 6]),
    "qhyperfield q=5 H=1,4": (5, [1, 4]),
    "qhyperfield q=13 H=1,3,9": (13, [1, 3, 9]),
    "qhyperfield q=11 H=1": (11, [1]),
}

S3 = make_s3()[0]

COSET_CASES = {
    "coset S3 H=0": (S3, [0]),
    "coset S3 H=0,1": (S3, [0, 1]),
    "coset S3 H=0,3,4": (S3, [0, 3, 4]),
    "coset S3 H=S3": (S3, range(6)),
    "coset Z6 H=0,3": (make_cyclic_group(6)[0], [0, 3]),
    "coset Z8 H=0,4": (make_cyclic_group(8)[0], [0, 4]),
    "coset Z12 H=0,4,8": (make_cyclic_group(12)[0], [0, 4, 8]),
}


def _sha(structure) -> str:
    return hashlib.sha256(serialize_structure(structure).encode("utf-8")).hexdigest()


def _classes(partition):
    """Each class as its members' carrier indices, space separated."""
    return [" ".join(str(i) for i in range(partition.size) if m >> i & 1)
            for m in partition.classes]


def generator_digests():
    """case name -> sha256 of the serialized structure, in a fixed order."""
    out = {}
    for name in CONSTANT_PRESETS:
        out[f"preset {name}"] = _sha(preset_structure(name))
    for name, args in TRIVIAL_CASES.items():
        out[name] = _sha(gen_trivial_from_lie(*args))
    for q in PRIME_POWERS:
        out[f"field GF({q})"] = _sha(gen_trivial_field(q))
    for name, args in ORBIT_CASES.items():
        out[name] = _sha(gen_orbit_quotient(*args))
    for name, args in QUOTIENT_FIELD_CASES.items():
        out[name] = _sha(gen_quotient_hyperfield(*args))
    for name, args in COSET_CASES.items():
        out[name] = _sha(gen_coset_hypergroup(*args))
    return out


def oracle_partitions():
    """case name -> classes of the linear oracle's partition."""
    out = {}
    for name in ("ex1", "ex2"):
        q, dim, constants = CONSTANT_PRESETS[name]
        L = preset_structure(name)
        for n in (1, 2, 3):
            out[f"linear_oracle_Sn {name} n={n}"] = _classes(linear_oracle_Sn(q, dim, constants, n))
            out[f"linear_oracle_partition {name} n={n}"] = _classes(linear_oracle_partition(L, n))
    return out


def _partial_span(aa):
    """1 a = 1 b = b over GF(2), so the span of the carrier from o never
    reaches a; the bracket is zero but for [a, a] = aa."""
    return parse_structure(json.dumps({
        "kind": "lie_hyperalgebra", "elements": ["o", "a", "b"], "zero": "o",
        "field": "trivial:F2",
        "add": [[["o"], ["a"], ["b"]], [["a"], ["o"], ["o"]], [["b"], ["o"], ["o"]]],
        "scalar": [[["o"], ["o"], ["o"]], [["o"], ["b"], ["b"]]],
        "bracket": [[["o"], ["o"], ["o"]], [["o"], [aa], ["o"]], [["o"], ["o"], ["o"]]]}))


def _self_bracket():
    """GF(3) with the bilinear bracket [a, a] = a, which is not alternating."""
    tables = classical_tables(get_gf(3), 1, [[1]])
    masks = [[[1 << x for x in row] for row in t] for t in tables]
    return FiniteLieHyperalgebra(gen_trivial_field(3), ["0", "a", "2a"], *masks)


def premise_cases():
    """case name -> algebra whose linear-oracle premise is pinned."""
    gf9 = gen_trivial_from_lie(9, 1, {})
    return {
        **{name: preset_structure(name) for name in CONSTANT_PRESETS},
        **{name: gen_trivial_from_lie(*args) for name, args in TRIVIAL_CASES.items()},
        "GF(5)^2 [a,b]=b": gen_trivial_from_lie(5, 2, {(0, 1): (0, 1)}),
        "m4": gen_orbit_quotient(*ORBIT_CASES["orbit q=7 dim=2 H=1,2,4"]),
        "partial span [a,a]=a": _partial_span("a"),
        "partial span [a,a]=o": _partial_span("o"),
        "GF(3) [a,a]=a": _self_bracket(),
        "GF(9)^1 1 and 2 swapped": _relabelled(gf9, [0, 2, 1, *range(3, 9)], range(9)),
    }


def premise_verdicts():
    """case name -> detect_trivial's verdict and the linear oracle's
    classes, or the name of the error it raises, at n = 1..3."""
    out = {}
    for name, L in premise_cases().items():
        info = detect_trivial(L)
        out[f"detect_trivial {name}"] = info and {
            "field": info[0].size, "basis": [L.names[x] for x in info[1]]}
        for n in (1, 2, 3):
            try:
                found = _classes(linear_oracle_partition(L, n))
            except HyperlieError as exc:
                found = type(exc).__name__
            out[f"linear_oracle_partition {name} n={n}"] = found
    return out


def test_generator_output_matches_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    digests = generator_digests()
    assert list(digests) == list(goldens["structures"])
    for name, digest in digests.items():
        assert digest == goldens["structures"][name], name


def test_linear_oracle_matches_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    partitions = oracle_partitions()
    assert list(partitions) == list(goldens["oracle"])
    for name, classes in partitions.items():
        assert classes == goldens["oracle"][name], name


def test_oracle_premise_matches_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    verdicts = premise_verdicts()
    assert list(verdicts) == list(goldens["premise"])
    for name, found in verdicts.items():
        assert found == goldens["premise"][name], name


if __name__ == "__main__":
    goldens = {"structures": generator_digests(), "oracle": oracle_partitions(),
               "premise": premise_verdicts()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
