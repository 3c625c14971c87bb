"""Quotient outputs pinned: `hyperlie quotient --json`, strong-regularity
verdicts and the text of quotient errors.

The goldens in tests/data/quotient_goldens.json were captured from the
exhaustive checks, before quotient validation moved onto additive
generators and strong regularity and collapse onto per-class unions. They
pin three things:

- byte-exact stdout, stderr and exit code of `quotient --json` on the
  worked example's relations, ex2, ab1 and an input whose scalar quotient
  is not well defined;
- the (ok, witness) of is_strongly_regular on fixed partitions of ex1,
  m4, GF(4)^2 and the hyperfields m1, m2:
  closures, subspace cosets, merged classes, seeded random partitions,
  and every partition of the 4-element algebra GF(4)^1 and of the
  small fields;
- the NotLie / NotWellDefined / NotAField text (or "ok") of validating
  seeded cell corruptions of classical quotients (plus bracket
  corruptions along a whole scalar line and random alternating bilinear
  brackets, which reach the three-operand axioms), and of collapsing
  corrupted hyperalgebras and hyperfields.

Regenerate (only when the output format changes on purpose):
    PYTHONPATH=src python tests/test_quotient_goldens.py
"""

import contextlib
import io
import json
import os
import random
import tempfile

from conftest import _bilinear_algebra
from hyperlie.cli import main
from hyperlie.errors import HyperlieError
from hyperlie.generators import (
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    preset_structure,
)
from hyperlie.interchange import serialize_structure
from hyperlie.quotients import FiniteLieAlgebra, quotient_field, quotient_lie_algebra
from hyperlie.relations import (
    DEFAULT_BOUNDS,
    Partition,
    closed_relation,
    is_strongly_regular,
)
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "quotient_goldens.json")

QUOTIENT_CASES = {
    "ex1 L": ("ex1", "L"),
    "ex1 A": ("ex1", "A"),
    "ex1 Sn:1": ("ex1", "Sn:1"),
    "ex1 Sn:2": ("ex1", "Sn:2"),
    "ex1 Sn:3": ("ex1", "Sn:3"),
    "ex2 A": ("ex2", "A"),
    "ab1 L": ("ab1", "L"),
    "m4 L": ("m4", "L"),
}


def _structures():
    return {
        "ex1": preset_structure("ex1"),
        "ex2": preset_structure("ex2"),
        "ab1": preset_structure("ab1"),
        "ab5": preset_structure("ab5"),
        "m1": gen_quotient_hyperfield(7, [1, 2, 4]),
        "m2": gen_quotient_hyperfield(7, [1, 6]),
        "m4": gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
        "gf4^1": gen_trivial_from_lie(4, 1, {}),
        "gf4^2": gen_trivial_from_lie(4, 2, {(0, 1): (0, 1)}),
    }


def quotient_outputs(tmp_dir, structures):
    """name -> {exit, stdout, stderr} of `hyperlie quotient --json`."""
    out = {}
    for name, (fixture, rel) in QUOTIENT_CASES.items():
        path = os.path.join(tmp_dir, f"{fixture}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_structure(structures[fixture]))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["quotient", path, "--rel", rel, "--json"])
        out[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return out


def _set_partitions(n):
    """Every partition of range(n) as class masks."""
    if n == 0:
        yield []
        return
    for rest in _set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] | 1 << (n - 1)] + rest[i + 1:]
        yield rest + [1 << (n - 1)]


def _merged(part, i, j):
    masks = list(part.classes)
    merged = masks[i] | masks[j]
    return Partition([m for k, m in enumerate(masks) if k not in (i, j)] + [merged])


def _random_partition(n, labels, seed):
    rng = random.Random(seed)
    return Partition.from_class_of([rng.randrange(labels) for _ in range(n)])


def _coset_partition(L, spanning):
    """Cosets of the subspace spanned by some elements of a trivial algebra."""
    add, smul = L.add_elt, L.smul_elt
    sub = {L.zero}
    for v in spanning:
        sub = {add[s][smul[lam][v]] for s in sub for lam in range(L.field.size)}
    return Partition(list({sum(1 << add[x][s] for s in sub) for x in range(L.size)}))


def _algebra_partitions(L):
    """name -> partition of an algebra's carrier, in a fixed order."""
    n = L.size
    parts = {"diagonal": Partition.diagonal(n), "all": Partition.all_pairs(n)}
    if L.is_trivial:
        for spanning in ((1,), (2,), (L.field.size,), (1, L.field.size), (2, n - 1)):
            names = ",".join(L.names[v] for v in spanning)
            parts[f"cosets of <{names}>"] = _coset_partition(L, spanning)
    for kind, depth in (("L", 0), ("Sn", 1), ("Sn", 2), ("Sn", 3)):
        label = kind if kind == "L" else f"Sn:{depth}"
        parts[label] = closed_relation(L, kind, depth, DEFAULT_BOUNDS)[1]
    parts["diagonal+{0,1}"] = _merged(parts["diagonal"], 0, 1)
    parts[f"diagonal+{{1,{n - 1}}}"] = _merged(parts["diagonal"], 1, n - 1)
    for label in ("Sn:1", "Sn:2", "L"):
        p = parts[label]
        if p.num_classes >= 3:
            parts[f"{label}+(1,2)"] = _merged(p, 1, 2)
            parts[f"{label}+(0,{p.num_classes - 1})"] = _merged(p, 0, p.num_classes - 1)
    for labels, seed in ((2, 1), (3, 2), (5, 3), (n - 1, 4)):
        parts[f"random {labels} labels seed {seed}"] = _random_partition(n, labels, seed)
    return parts


def regularity_verdicts(structures):
    """name -> [ok, witness] of the strong-regularity checks."""
    out = {}
    for fx in ("ex1", "m4", "gf4^2"):
        L = structures[fx]
        for label, part in _algebra_partitions(L).items():
            out[f"{fx} {label}"] = is_strongly_regular(L, part)
    L = structures["gf4^1"]
    for masks in _set_partitions(L.size):
        part = Partition(masks)
        out[f"gf4^1 {[list(c) for c in part.classes_as_names(L.names)]}"] = (
            is_strongly_regular(L, part))
    fields = {"ex1.field": structures["ex1"].field, "m1": structures["m1"],
              "m2": structures["m2"], "GF(4)": structures["gf4^1"].field}
    for fx, F in fields.items():
        for masks in _set_partitions(F.size):
            part = Partition(masks)
            out[f"{fx} {[list(c) for c in part.classes_as_names(F.names)]}"] = (
                is_strongly_regular(F, part))
    return {k: json.loads(json.dumps(v)) for k, v in out.items()}


def _error_text(fn):
    try:
        fn()
    except HyperlieError as e:
        return f"{type(e).__name__}: {e}"
    return "ok"


def _corrupt(table, rng, values):
    """Copy of table with one cell set to another value drawn from values."""
    out = [list(r) for r in table]
    i, j = rng.randrange(len(out)), rng.randrange(len(out[0]))
    out[i][j] = rng.choice([v for v in values if v != out[i][j]])
    return out


def _line_corruption(A, rng):
    """Bracket with [lam x, y] set to lam w for every scalar lam, for random
    x != 0, y and w: homogeneous in the left operand, usually not additive."""
    x, y, w = rng.randrange(1, A.size), rng.randrange(A.size), rng.randrange(A.size)
    out = [list(r) for r in A.bracket]
    for lam in range(1, A.field.size):
        out[A.smul[lam][x]][y] = A.smul[lam][w]
    return out


def error_texts(structures):
    """name -> error text of a corrupted quotient, in a fixed order."""
    out = {}
    classical = {
        "ex1/Sn:2": quotient_lie_algebra(
            structures["ex1"], closed_relation(structures["ex1"], "Sn", 2, DEFAULT_BOUNDS)[1]),
        "ex2/diagonal": quotient_lie_algebra(
            structures["ex2"], Partition.diagonal(structures["ex2"].size)),
        "ab5/diagonal": quotient_lie_algebra(
            structures["ab5"], Partition.diagonal(structures["ab5"].size)),
    }
    for fx in ("gf4^2",):
        L = structures[fx]
        classical[f"{fx}/diagonal"] = quotient_lie_algebra(L, Partition.diagonal(L.size))
    gf9 = gen_trivial_from_lie(9, 1, {})
    classical["gf9^1/diagonal"] = quotient_lie_algebra(gf9, Partition.diagonal(9))
    for base, A in classical.items():
        for k in range(12):
            rng = random.Random(f"{base} {k}")
            tables = {"add": A.add, "smul": A.smul, "bracket": A.bracket}
            op = ("add", "smul", "bracket")[k % 3]
            tables[op] = _corrupt(tables[op], rng, range(A.size))
            B = FiniteLieAlgebra(A.field, A.names, tables["add"], tables["smul"],
                                 tables["bracket"])
            out[f"validate {base} {op} #{k}"] = _error_text(B.validate)
        for k in range(4):
            rng = random.Random(f"{base} line {k}")
            B = FiniteLieAlgebra(A.field, A.names, A.add, A.smul, _line_corruption(A, rng))
            out[f"validate {base} bracket line #{k}"] = _error_text(B.validate)
    for q, dim in ((3, 3),):
        for k in range(8):
            B = _bilinear_algebra(q, dim, random.Random(f"bilinear {q} {dim} {k}"))
            out[f"validate GF({q})^{dim} bilinear #{k}"] = _error_text(B.validate)

    for fx, label in (("ex1", "Sn:2"), ("ex2", "diagonal"), ("m4", "L")):
        L = structures[fx]
        part = (Partition.diagonal(L.size) if label == "diagonal"
                else closed_relation(L, label[:2], int(label[3:] or 0), DEFAULT_BOUNDS)[1])
        for k in range(6):
            rng = random.Random(f"{fx} {label} {k}")
            tables = {"add": L.add, "smul": L.smul, "bracket": L.bracket}
            op = ("add", "smul", "bracket")[k % 3]
            tables[op] = _corrupt(tables[op], rng, [1 << v for v in range(L.size)])
            M = FiniteLieHyperalgebra(L.field, L.names, tables["add"], tables["smul"],
                                      tables["bracket"])
            out[f"quotient {fx}/{label} {op} #{k}"] = _error_text(
                lambda: quotient_lie_algebra(M, part))

    for fx, F in (("GF(5)", gen_trivial_field(5)), ("GF(7)", gen_trivial_field(7)),
                  ("m2", structures["m2"])):
        for k in range(6):
            rng = random.Random(f"{fx} {k}")
            tables = {"add": F.add, "mul": F.mul}
            op = ("add", "mul")[k % 2]
            tables[op] = _corrupt(tables[op], rng, [1 << v for v in range(F.size)])
            G = FiniteHyperfield(F.names, tables["add"], tables["mul"])
            out[f"quotient_field {fx} {op} #{k}"] = _error_text(
                lambda: quotient_field(G, Partition.diagonal(G.size)))
    return out


def goldens(tmp_dir):
    structures = _structures()
    return {
        "quotient": quotient_outputs(tmp_dir, structures),
        "strongly_regular": regularity_verdicts(structures),
        "errors": error_texts(structures),
    }


def test_quotient_outputs_match_goldens(tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = goldens(str(tmp_path))
    for section in ("quotient", "strongly_regular", "errors"):
        assert list(got[section]) == list(expected[section]), section
        for name, value in expected[section].items():
            assert got[section][name] == value, f"{section}: {name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = goldens(tmp)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
