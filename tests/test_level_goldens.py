"""Per-level pair lists of the sum fold pinned by sha256 digest.

The digests in tests/data/level_goldens.json were captured from the
product fold of combine_levels, which formed every |level t| x |level 1|
sum, before it read levels as rectangles of pairs. Each Sn rung reaches
t = 4 or a level equal to the one before, so the rectangle kernel is
compared level by level, also on levels built from rectangles. The alpha
case pins the rows of the scalar relation at the hard cap, and the M = 4
case of m4, whose one level is the summand pair list, was captured from the
owed-multiset DP before full-gate summands were read as rectangles. The
ex1 M = 4 cases (ex1 Sn:2 at t = 1 pins the summand pair list) were
captured before summands read their leaves by operand class. The ex2 and
ex1 Sn:1 cases at 1,4,1,1, whose summand pair lists come from full-gate
rectangles of up to four leaves, were captured before the rectangle
enumeration stopped once its value bound was covered.

Regenerate (only when the level format changes on purpose):
    PYTHONPATH=src python tests/test_level_goldens.py
"""

import hashlib
import json
import os

from hyperlie.generators import gen_orbit_quotient, gen_quotient_hyperfield, preset_structure
from hyperlie.relations import ExpressionBounds, clear_relation_cache, relation_alpha, sn_pair_levels

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "level_goldens.json")


def level_cases():
    """name -> (fixture, depth n or None for alpha, bounds), in a fixed order."""
    return {
        "ex2 Sn:2 4,3,1,1": ("ex2", 2, (4, 3, 1, 1)),
        "ex1 Sn:1 4,2,1,1": ("ex1", 1, (4, 2, 1, 1)),
        "m4 Sn:1 4,2,2,2": ("m4", 1, (4, 2, 2, 2)),
        "ex1 Sn:3 3,3,2,2": ("ex1", 3, (3, 3, 2, 2)),
        "m1 alpha 4,4,3,3": ("m1", None, (4, 4, 3, 3)),
        "m4 Sn:1 1,4,1,1": ("m4", 1, (1, 4, 1, 1)),
        "ex1 Sn:2 1,4,1,1": ("ex1", 2, (1, 4, 1, 1)),
        "ex1 Sn:3 4,4,3,3": ("ex1", 3, (4, 4, 3, 3)),
        "ex2 Sn:1 1,4,1,1": ("ex2", 1, (1, 4, 1, 1)),
        "ex1 Sn:1 1,4,1,1": ("ex1", 1, (1, 4, 1, 1)),
    }


def fixtures():
    return {
        "ex1": preset_structure("ex1"),
        "ex2": preset_structure("ex2"),
        "m4": gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
        "m1": gen_quotient_hyperfield(7, [1, 2, 4]),
    }


def digest(structures, fixture, n, bounds):
    bounds = ExpressionBounds(*bounds)
    if n is None:
        value = relation_alpha(structures[fixture], bounds).rows
    else:
        value = sn_pair_levels(structures[fixture], n, bounds)
    return hashlib.sha256(repr(value).encode()).hexdigest()


def current_digests():
    clear_relation_cache()
    structures = fixtures()
    try:
        return {name: digest(structures, *case) for name, case in level_cases().items()}
    finally:
        clear_relation_cache()


def test_levels_match_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert current_digests() == goldens


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(current_digests(), fh, indent=1)
        fh.write("\n")
