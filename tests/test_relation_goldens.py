"""`hyperlie relation --json --oracle off` output pinned byte for byte.

The goldens in tests/data/relation_goldens.json were captured from the
per-leaf-tuple enumerator, before summand enumeration became a dynamic
programme over subtree values; the m4 M = 4 case was captured from that
programme, before full-gate summands were read as rectangles, and the ex1
M = 4 cases (partial gates over bracket operands that share a table row
and column) before summands read their leaves by operand class. Each case
pins one relation at one fixed bound rung, so the partition, its class order and the reported bounds of
every engine path (gated swaps at each depth, common values, the scalar
relation, a multivalued algebra) are compared as well as the exit code.

Regenerate (only when the output format changes on purpose):
    PYTHONPATH=src python tests/test_relation_goldens.py
"""

import contextlib
import io
import json
import os
import tempfile

from hyperlie.cli import main
from hyperlie.generators import gen_orbit_quotient, gen_quotient_hyperfield, preset_structure
from hyperlie.interchange import serialize_structure

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "relation_goldens.json")


def relation_cases():
    """name -> (fixture, --rel, --bounds), in a fixed order."""
    cases = {}
    for bounds in ("2,2,1,1", "3,3,1,1"):
        for rel in ("Sn:1", "Sn:2", "Sn:3", "A", "L"):
            cases[f"ex1 {rel} {bounds}"] = ("ex1", rel, bounds)
    cases["ex1 L 3,3,2,2"] = ("ex1", "L", "3,3,2,2")
    cases["ex2 A 3,3,1,1"] = ("ex2", "A", "3,3,1,1")
    for rel in ("Sn:1", "Sn:2", "L"):
        cases[f"m4 {rel} 3,3,2,2"] = ("m4", rel, "3,3,2,2")
    cases["m4 Sn:1 1,4,1,1"] = ("m4", "Sn:1", "1,4,1,1")
    cases["ex1 Sn:2 1,4,1,1"] = ("ex1", "Sn:2", "1,4,1,1")
    cases["ex1 Sn:3 4,4,3,3"] = ("ex1", "Sn:3", "4,4,3,3")
    for bounds in ("2,2,1,1", "4,4,3,3"):
        cases[f"m1 alpha {bounds}"] = ("m1", "alpha", bounds)
    return cases


def fixture_paths(tmp_dir):
    structures = {
        "ex1": preset_structure("ex1"),
        "ex2": preset_structure("ex2"),
        "m4": gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
        "m1": gen_quotient_hyperfield(7, [1, 2, 4]),
    }
    paths = {}
    for name, structure in structures.items():
        paths[name] = os.path.join(tmp_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(serialize_structure(structure))
    return paths


def relation_json(paths, fixture, rel, bounds):
    """(exit code, stdout) of `hyperlie relation --json --oracle off`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["relation", paths[fixture], "--rel", rel, "--bounds", bounds,
                     "--oracle", "off", "--json"])
    return code, out.getvalue()


def test_relation_json_matches_goldens(tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    cases = relation_cases()
    assert list(cases) == list(goldens)
    paths = fixture_paths(str(tmp_path))
    for name, case in cases.items():
        code, out = relation_json(paths, *case)
        assert code == goldens[name]["exit"], name
        assert out == goldens[name]["stdout"], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = fixture_paths(tmp)
        goldens = {}
        for name, case in relation_cases().items():
            code, out = relation_json(paths, *case)
            goldens[name] = {"exit": code, "stdout": out}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
