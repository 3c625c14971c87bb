"""Set lifts: SetOps agrees with setwise and the reference lift on every
kind of table, fills a singleton row from its table row in one step and a
wider row from its singleton rows, reads the bits of a right operand once,
and is freed with its structure; the checker's transposed bracket lift is
built once per structure."""

import gc
import weakref
from unittest import mock

from hypothesis import given, settings, strategies as st

import reference_enumerator as ref
from hyperlie import sets, structures
from hyperlie.cli import main
from hyperlie.generators import gen_orbit_quotient, preset_structure
from hyperlie.relations import DEFAULT_BOUNDS, closed_relation
from hyperlie.sets import SetOps, full_mask, is_singleton, setwise
from hyperlie.structures import check_lie_hyperalgebra


@st.composite
def mask_tables(draw):
    """A square or |F| x n table of masks over its columns, either
    singleton-valued or multivalued."""
    rows = draw(st.integers(1, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 6))
    if draw(st.booleans()):
        cell = st.integers(0, cols - 1).map(lambda y: 1 << y)
    else:
        cell = st.integers(0, full_mask(cols))
    return [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]


def _masks(n):
    return st.one_of(st.integers(0, n - 1).map(lambda i: 1 << i),
                     st.integers(0, full_mask(n)),
                     st.just(full_mask(n)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_setops_matches_setwise_and_reference(data):
    table = data.draw(mask_tables())
    rows, cols = len(table), len(table[0])
    ops, reference = SetOps(table), ref._setwise(table)
    pairs = data.draw(st.lists(st.tuples(_masks(rows), _masks(cols)), min_size=1, max_size=12))
    for A, B in pairs:
        assert ops[A][B] == setwise(table, A, B) == reference(A, B)


def test_singleton_row_holds_exactly_its_columns():
    table = [[1 << ((x + y) % 5) for y in range(5)] for x in range(3)]
    ops = SetOps(table)
    row = ops[1 << 2]
    assert row[1 << 4] == table[2][4]
    assert len(row) == 5
    assert 0b11 not in row
    assert row[0b11] == table[2][0] | table[2][1]
    assert len(row) == 6
    wide = ops[0b101]
    assert len(wide) == 0
    assert wide[1 << 1] == table[0][1] | table[2][1]
    assert len(wide) == 1


def test_wide_cell_is_the_union_of_the_singleton_cells_it_fills():
    table = [[1 << ((x * y + x) % 5) | 1 << (y % 3) for y in range(5)] for x in range(4)]
    ops = SetOps(table)
    assert ops[0b1011][0b10110] == setwise(table, 0b1011, 0b10110)
    assert set(ops) == {0b1011, 1 << 0, 1 << 1, 1 << 3}
    for x in 0, 1, 3:
        assert ops[1 << x][0b10110] == setwise(table, 1 << x, 0b10110)
        assert len(ops[1 << x]) == 6
    assert ops.bits == {0b10110: [1, 2, 4]}  # read once for the three rows
    assert ops[0][0b111] == 0


def test_relation_A_makes_no_singleton_setwise_call(capsys, fixture_files):
    # a singleton row fills its other cells through _cell, never setwise
    calls = []
    cell = sets._cell

    def recording(table, a_mask, b_mask):
        calls.append((a_mask, b_mask))
        return setwise(table, a_mask, b_mask)

    def recording_cell(line, bits, b_mask):
        calls.append((1, b_mask))
        return cell(line, bits, b_mask)

    with mock.patch.object(sets, "setwise", recording), \
            mock.patch.object(sets, "_cell", recording_cell):
        assert main(["relation", fixture_files["ex1"], "--rel", "A"]) == 0
    capsys.readouterr()
    assert not [c for c in calls if is_singleton(c[0]) and is_singleton(c[1])]


def test_filled_rows_are_freed_with_their_structure():
    L = preset_structure("ab1")
    closed_relation(L, "A", 1, DEFAULT_BOUNDS)
    for ops in (L.add_ops, L.smul_ops, L.bracket_ops, L.transposed_bracket_ops):
        ops[1][1]
        ops[1][full_mask(len(ops.table[0]))]
        ops[0b110][0b11]
    assert L.bracket_ops and L.add_ops[1]
    alive = weakref.ref(L)
    rows = weakref.ref(L.bracket_ops)
    transposed = weakref.ref(L.transposed_bracket_ops)
    del L, ops
    gc.collect()
    assert alive() is None
    assert rows() is None
    assert transposed() is None


def test_repeat_check_reuses_the_transposed_lift(monkeypatch):
    # the right-side bracket laws of a multivalued algebra read the
    # transposed lift, which the structure keeps after the first check
    L = gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])
    first = check_lie_hyperalgebra(L)
    built = []
    monkeypatch.setattr(structures, "SetOps", lambda table: built.append(table))
    assert check_lie_hyperalgebra(L).axioms == first.axioms
    assert built == []
    assert L.transposed_bracket_ops[1][1 << 2] == L.bracket[2][0]
