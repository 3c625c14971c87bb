"""`hyperlie check --json` output pinned byte for byte.

The goldens in tests/data/check_goldens.json were captured from the
checker before its axioms were rewritten onto shared element-table and
set-lift views. Each case is a shipped fixture or a deterministic
single-cell corruption of one, covering trivial algebras, multivalued
algebras, hyperfields and coset hypergroups, so witnesses, details and
key order of failing reports are pinned as well as passing ones. The last
five are singleton-valued algebras whose axioms of one or two vectors all
hold, each failing exactly one of associativity, bracket additivity on
the left or right, and Jacobi; they were captured before those four axioms
were decided on additive generators.

Regenerate (only when the report format changes on purpose):
    PYTHONPATH=src python tests/test_check_goldens.py
"""

import contextlib
import io
import json
import os
import random
import tempfile

from conftest import _bilinear_algebra, _singleton_lift, _steiner_loop
from hyperlie.cli import main
from hyperlie.generators import (
    gen_coset_hypergroup,
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
    preset_structure,
)
from hyperlie.interchange import serialize_structure
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra, Hypergroup

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "check_goldens.json")


def _set_cell(table, i, j, mask):
    out = [list(row) for row in table]
    out[i][j] = mask
    return out


def _algebra(L, **tables):
    """Copy of L with some of add / smul / bracket replaced."""
    return FiniteLieHyperalgebra(
        tables.get("field", L.field), L.names, tables.get("add", L.add),
        tables.get("smul", L.smul), tables.get("bracket", L.bracket),
    )


def _field(F, **tables):
    return FiniteHyperfield(F.names, tables.get("add", F.add), tables.get("mul", F.mul))


def _one_sided_bracket(side):
    """GF(3)^2 with [x, c] = x_0 c_1 w for x on the line of e_0 and 0
    otherwise, transposed for side "right". Homogeneous, alternating and
    Jacobi (w = e_0 on the left, e_1 on the right, so every double bracket
    vanishes), additive in c but not in x."""
    L = gen_trivial_from_lie(3, 2, {})
    w = 1 if side == "left" else 3
    br = [[1 << L.zero] * 9 for _ in range(9)]
    for x in range(3):
        for c in range(9):
            v = L.smul_elt[x * (c // 3) % 3][w]
            if side == "left":
                br[x][c] = 1 << v
            else:
                br[c][x] = 1 << v
    return _algebra(L, bracket=br)


def check_cases():
    """name -> structure, in a fixed order."""
    ex1 = preset_structure("ex1")
    ex2 = preset_structure("ex2")
    ab5 = preset_structure("ab5")
    m1 = gen_quotient_hyperfield(7, [1, 2, 4])
    m2 = gen_quotient_hyperfield(7, [1, 6])
    m4 = gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])
    s3_table, _ = make_s3()
    s3_cosets = gen_coset_hypergroup(s3_table, [0, 1])
    z6_table, _ = make_cyclic_group(6)
    z6_cosets = gen_coset_hypergroup(z6_table, [0, 3])
    z6 = gen_coset_hypergroup(z6_table, [0])
    F3 = ex2.field
    cases = {
        "ex1": ex1,
        "ex2": ex2,
        "m1": m1,
        "m4": m4,
        # trivial algebra, singleton corruptions (element-table view)
        "ex2-bracket-cell": _algebra(ex2, bracket=_set_cell(ex2.bracket, 1, 2, 1 << 5)),
        "ex2-add-cell": _algebra(ex2, add=_set_cell(ex2.add, 3, 4, 1 << 9)),
        "ex2-smul-cell": _algebra(ex2, smul=_set_cell(ex2.smul, 2, 5, 1 << 8)),
        "ex2-alternating": _algebra(ex2, bracket=_set_cell(ex2.bracket, 4, 4, 1 << 13)),
        "ab5-scalar-zero": _algebra(ab5, smul=_set_cell(ab5.smul, 0, 2, 1 << 3)),
        "ab5-smul-cell": _algebra(ab5, smul=_set_cell(ab5.smul, 3, 1, 1 << 4)),
        "ex2-field-mul": _algebra(ex2, field=_field(F3, mul=_set_cell(F3.mul, 2, 2, 1 << 2))),
        # trivial algebra made multivalued by one cell (set-lift view)
        "ex2-bracket-widened": _algebra(
            ex2, bracket=_set_cell(ex2.bracket, 2, 7, ex2.bracket[2][7] | 1 << 11)),
        # multivalued algebra
        "m4-add-cell": _algebra(m4, add=_set_cell(m4.add, 5, 6, m4.add[5][6] | 1 << 3)),
        "m4-bracket-cell": _algebra(m4, bracket=_set_cell(m4.bracket, 3, 8, 1 << 2)),
        "m4-smul-cell": _algebra(m4, smul=_set_cell(m4.smul, 2, 4, m4.smul[2][4] | 1 << 9)),
        # hyperfields
        "m1-add-cell": _field(m1, add=_set_cell(m1.add, 1, 2, 1 << 1)),
        "m1-mul-cell": _field(m1, mul=_set_cell(m1.mul, 2, 2, 0b011)),
        "m2-mul-cell": _field(m2, mul=_set_cell(m2.mul, 2, 3, 1 << 3)),
        "f3-mul-cell": _field(F3, mul=_set_cell(F3.mul, 2, 2, 1 << 2)),
        # coset hypergroups
        "s3-cosets-cell": Hypergroup(s3_cosets.names, _set_cell(s3_cosets.add, 1, 2, 1 << 1)),
        "z6-cosets-cell": Hypergroup(z6_cosets.names, _set_cell(z6_cosets.add, 0, 1, 0b101)),
        "z6-group-cell": Hypergroup(z6.names, _set_cell(z6.add, 2, 3, 1 << 4)),
        # singleton-valued, + commutative with cancellation, every axiom of
        # one or two vectors holding: each fails one three-vector axiom
        "steiner-loop": _singleton_lift(_steiner_loop()),
        "bracket-nonadditive-left": _one_sided_bracket("left"),
        "bracket-nonadditive-right": _one_sided_bracket("right"),
        "bilinear-27": _singleton_lift(_bilinear_algebra(3, 3, random.Random(1))),
        "bilinear-81": _singleton_lift(_bilinear_algebra(3, 4, random.Random(1))),
    }
    return cases


def check_json(tmp_dir, name, structure):
    """(exit code, stdout) of `hyperlie check --json` on structure."""
    path = os.path.join(tmp_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_structure(structure))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", path, "--json"])
    return code, out.getvalue()


def test_check_json_matches_goldens(tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    cases = check_cases()
    assert list(cases) == list(goldens)
    for name, structure in cases.items():
        code, out = check_json(tmp_path, name, structure)
        assert code == goldens[name]["exit"], name
        assert out == goldens[name]["stdout"], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {}
        for name, structure in check_cases().items():
            code, out = check_json(tmp, name, structure)
            goldens[name] = {"exit": code, "stdout": out}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
