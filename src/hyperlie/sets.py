"""Subsets of a finite carrier as int bitmasks.

Carriers are indexed 0..n-1 and a subset is the int with bit i set iff
element i is in the subset. Union is |, intersection &, the empty set 0.
All hyperoperation tables in this package store one mask per cell.
"""

from __future__ import annotations

from functools import partial


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_count(mask: int) -> int:
    return mask.bit_count()


def is_singleton(mask: int) -> bool:
    return mask != 0 and mask & (mask - 1) == 0


def full_mask(n: int) -> int:
    return (1 << n) - 1


class SetOps(dict):
    """Memoized setwise extension of a binary hyperoperation table.

    table[x][y] is the mask of the value at elements x, y. ops[A][B], the
    one entry point, is setwise(table, A, B) memoized per row (the SetOps is
    the dict of its rows). The row of a singleton {x} is born holding its
    singleton cells, copied from table[x] in one step, so a cold cell of two
    singletons is one lookup; it fills any other cell B from table[x] and
    the bits of B, which the SetOps reads once per B (bits). Any other row
    fills a cell as the union of its elements' rows at that cell, so each
    wide cell reuses their memoised work.
    """

    def __init__(self, table):
        super().__init__()
        self.table = table
        self.singletons = [1 << y for y in range(len(table[0]) if table else 0)]
        self.bits = {}

    def __missing__(self, a_mask: int) -> "_Row":
        if is_singleton(a_mask):
            line = self.table[a_mask.bit_length() - 1]
            row = self[a_mask] = _Row(partial(_cell, line, self.bits))
            row.update(zip(self.singletons, line))
        else:
            row = self[a_mask] = _Row(partial(_union, [self[1 << x] for x in iter_bits(a_mask)]))
        return row


def setwise(table, a_mask: int, b_mask: int) -> int:
    """Union of table[x][y] over x in a_mask, y in b_mask; a cold cell of
    two singletons is one lookup. The bits of b_mask are read once."""
    if is_singleton(a_mask) and is_singleton(b_mask):
        return table[a_mask.bit_length() - 1][b_mask.bit_length() - 1]
    out = 0
    ys = list(iter_bits(b_mask))
    for x in iter_bits(a_mask):
        row = table[x]
        for y in ys:
            out |= row[y]
    return out


def _cell(line, bits, b_mask: int) -> int:
    ys = bits.get(b_mask)
    if ys is None:
        ys = bits[b_mask] = list(iter_bits(b_mask))
    out = 0
    for y in ys:
        out |= line[y]
    return out


def _union(rows, b_mask: int) -> int:
    out = 0
    for row in rows:
        out |= row[b_mask]
    return out


class _Row(dict):
    """Row of a SetOps table; a missing cell B is fill(B). fill holds a
    table row and the bits, or the singleton rows, not the SetOps, so the
    row cache forms no reference cycle and is freed with its structure."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, b_mask: int) -> int:
        out = self[b_mask] = self.fill(b_mask)
        return out
