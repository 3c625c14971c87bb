"""The relation engine's enumeration against the brute-force reference.

summand_pair_family, combine_levels and relation_L_values build their
values bottom-up over distinct subtree values; tests/reference_enumerator.py
evaluates every leaf tuple on every bracket shape (and every gated
permutation). Coefficient families and the rows of relation_alpha fold
products and sums through combine_levels; the reference evaluates every
scalar tuple in every order. Both must give the same sorted pairs, levels,
values and rows.

Fixtures are small: trivial algebras over GF(3), orbit quotients, the
self-modules of quotient hyperfields, and unchecked random tables. Lawful
structures over commutative hyperfields only give coefficient pairs with
equal sides; the random tables are what give leaves whose two sides differ
and non-commutative addition. Sum levels are also drawn from unions of
rectangles of pairs under relabelled commutative, associative tables up to
t = 4, where the engine folds rectangle by rectangle and levels become
fixed. Bounds shrink until the reference stays cheap, so every example
runs in milliseconds.
"""

import functools
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_enumerator as ref
from conftest import _self_module
from hyperlie.generators import (
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
)
from hyperlie.relations import (
    ExpressionBounds,
    _blocks,
    _leaf_map,
    _leaf_pool,
    _Owed,
    _owed_dp,
    _rectangles,
    _sums_commute,
    coefficient_pair_family,
    combine_levels,
    hyper_derived_sets,
    relation_alpha,
    relation_L_values,
    summand_pair_family,
)
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra

# brute-force evaluations allowed per example
REF_BUDGET = 20_000
# seeded algebras given twin bracket operands
TWIN_SEEDS = 24


@functools.cache
def lawful_fixtures():
    return (
        gen_trivial_from_lie(3, 1, {}),
        gen_trivial_from_lie(3, 2, {}),
        gen_trivial_from_lie(3, 2, {(0, 1): (0, 1)}),
        gen_trivial_from_lie(3, 3, {(0, 1): (0, 0, 1)}),
        gen_trivial_from_lie(3, 3, {(0, 1): (0, 0, 1), (0, 2): (2, 0, 0), (1, 2): (0, 1, 0)}),
        gen_orbit_quotient(7, 1, {}, [1, 2, 4]),
        gen_orbit_quotient(3, 2, {(0, 1): (0, 1)}, [1, 2]),
        gen_orbit_quotient(5, 2, {(0, 1): (0, 1)}, [1, 2, 3, 4]),
        gen_orbit_quotient(5, 2, {(0, 1): (0, 1)}, [1, 4]),
        _self_module(gen_quotient_hyperfield(7, [1, 2, 4])),
        _self_module(gen_quotient_hyperfield(7, [1, 6])),
        _self_module(gen_quotient_hyperfield(5, [1, 4])),
    )


def _masks(size):
    """Nonempty subset masks, mostly singletons so that values do not all
    grow to the whole carrier."""
    singletons = st.sampled_from([1 << i for i in range(size)])
    return st.one_of(singletons, singletons, singletons, st.integers(1, (1 << size) - 1))


@st.composite
def unchecked_algebras(draw):
    """Random tables of the right shapes; no axiom is asked to hold."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))

    def table(rows, cols, size):
        return [[draw(_masks(size)) for _ in range(cols)] for _ in range(rows)]

    F = FiniteHyperfield([f"s{i}" for i in range(k)], table(k, k, k), table(k, k, k))
    return FiniteLieHyperalgebra(F, [f"x{i}" for i in range(n)],
                                 table(n, n, n), table(k, n, n), table(n, n, n))


def _tree_cost(leaves: int, m: int, gated: int) -> int:
    """Reference evaluations: each leaf tuple with j gated leaves is
    evaluated once per arrangement of them."""
    return sum(len(ref._tree_shapes(k)) * math.comb(k, j) * gated ** j
               * (leaves - gated) ** (k - j) * math.factorial(j)
               for k in range(1, m + 1) for j in range(k + 1))


def _affordable_m(leaves: int, m: int, gated: int) -> int:
    while m > 1 and _tree_cost(leaves, m, gated) > REF_BUDGET:
        m -= 1
    return m


def _affordable_t(count: int, t: int, commutative: bool) -> int:
    while t > 1 and count ** t * (1 if commutative else math.factorial(t)) > REF_BUDGET:
        t -= 1
    return t


@st.composite
def cases(draw):
    """(structure, bounds, gate mask) with t <= 3, m <= 4, p, q <= 2."""
    L = draw(st.one_of(st.sampled_from(lawful_fixtures()), unchecked_algebras()))
    t, m, p, q = (draw(st.integers(1, hi)) for hi in (3, 4, 2, 2))
    if draw(st.booleans()):
        gate = hyper_derived_sets(L, draw(st.integers(1, 3)) - 1)[-1]
    else:
        gate = draw(st.integers(0, (1 << L.size) - 1))
    return L, ExpressionBounds(t, m, p, q), gate


@settings(max_examples=80, deadline=None)
@given(cases())
def test_summand_pairs_and_levels_match_reference(case):
    L, bounds, gate = case
    pool = _leaf_pool(L, coefficient_pair_family(L.field, bounds), gate)
    gated = sum(1 for _, _, sw in pool if sw)
    m = _affordable_m(len(pool), bounds.m, gated)
    bounds = ExpressionBounds(bounds.t, m, bounds.p, bounds.q)
    pairs = summand_pair_family(L, bounds, gate)
    assert pairs == ref.summand_pair_family(L, bounds, gate)
    t = _affordable_t(len(pairs), bounds.t, ref.sums_ignore_order(L.add, 3))
    assert (combine_levels(pairs, L.add_ops, t, _sums_commute(L, t))
            == ref.combine_levels(pairs, L.add, t))


@pytest.mark.parametrize("bounds", [(2, 2, 1, 1), (1, 2, 2, 2)])
@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_worked_examples_match_reference_at_two_leaves(request, name, bounds):
    # the 81- and 27-element presets at m = 2, where summands are read off
    # the leaf pool, on the gates of Sn for n = 1..3
    L, bounds = request.getfixturevalue(name), ExpressionBounds(*bounds)
    for gate in hyper_derived_sets(L, 2):
        pairs = summand_pair_family(L, bounds, gate)
        assert pairs == ref.summand_pair_family(L, bounds, gate)
        assert (combine_levels(pairs, L.add_ops, bounds.t, _sums_commute(L, bounds.t))
                == ref.combine_levels(pairs, L.add, bounds.t))


def _seeded_algebra(seed):
    """(unchecked algebra with 2-3 scalars and 2-3 elements, gate): the
    whole carrier for odd seeds, a random mask for even ones."""
    rng = random.Random(seed)
    k, n = rng.randint(2, 3), rng.randint(2, 3)

    def table(rows, cols, size):
        return [[1 << rng.randrange(size) if rng.random() < 0.75 else rng.randrange(1, 1 << size)
                 for _ in range(cols)] for _ in range(rows)]

    F = FiniteHyperfield([f"s{i}" for i in range(k)], table(k, k, k), table(k, k, k))
    L = FiniteLieHyperalgebra(F, [f"x{i}" for i in range(n)],
                              table(n, n, n), table(k, n, n), table(n, n, n))
    return L, (1 << n) - 1 if seed % 2 else rng.randrange(1 << n)


def _repeated_operands(L):
    """L with bracket row 1 copied onto row 0 and, on three elements, then
    column 0 onto column 2: its rows {0, 1} and its columns {0, 2} repeat,
    so elements that share a row need not share a column."""
    br = [list(row) for row in L.bracket]
    br[0] = list(br[1])
    for row in br if L.size == 3 else ():
        row[2] = row[0]
    return FiniteLieHyperalgebra(L.field, L.names, L.add, L.smul, br)


@pytest.mark.parametrize("bounds", [(1, 3, 1, 1), (1, 3, 2, 1), (1, 4, 1, 1)],
                         ids=lambda b: ",".join(map(str, b)))
def test_seeded_unchecked_algebras_match_reference_from_three_leaves(bounds):
    # random tables reach owed states that lawful fixtures, whose brackets
    # alternate, do not. Every pool here has at most 5 leaves at m = 4. Each
    # algebra is also run with repeated bracket rows and columns, where the
    # leaf map merges two elements only if they share a row and a column
    bounds = ExpressionBounds(*bounds)
    wrong = []
    for seed in range(60):
        L, gate = _seeded_algebra(seed)
        R = _repeated_operands(L)
        leaf, cols = _leaf_map(R.bracket), list(zip(*R.bracket))
        assert R.bracket[0] == R.bracket[1]
        assert (leaf(2) == 1) == (cols[0] == cols[1])
        for S in (L, R):
            if summand_pair_family(S, bounds, gate) != ref.summand_pair_family(S, bounds, gate):
                wrong.append((seed, S is R))
    assert wrong == []


@pytest.mark.parametrize("bounds", [(1, 3, 1, 1), (1, 3, 2, 2), (1, 4, 1, 1)],
                         ids=lambda b: ",".join(map(str, b)))
def test_equal_bracket_rows_match_reference(ab1, bounds):
    # every row and every column of ab1's bracket is the zero row, so the
    # leaf map sends every element to 0
    bounds = ExpressionBounds(*bounds)
    leaf = _leaf_map(ab1.bracket)
    assert {leaf(1 << x) for x in range(ab1.size)} == {1}
    for gate in hyper_derived_sets(ab1, 1):
        assert summand_pair_family(ab1, bounds, gate) == ref.summand_pair_family(ab1, bounds, gate)


def _twin_operands(L):
    """L with element 0's bracket row and column copied onto element 1, so
    that 0 and 1 are operand class mates and their leaves merge."""
    br = [list(row) for row in L.bracket]
    br[1] = list(br[0])
    for row in br:
        row[1] = row[0]
    return FiniteLieHyperalgebra(L.field, L.names, L.add, L.smul, br)


@pytest.mark.parametrize("bounds", [(1, 2, 1, 1), (1, 3, 1, 1), (1, 3, 2, 2), (1, 4, 1, 1)],
                         ids=lambda b: ",".join(map(str, b)))
def test_twin_operands_match_reference_under_every_gate(bounds):
    # summands of two or more leaves run on the class pool; every gate mask
    # is tried, so some hold one twin only and merge a gated leaf with an
    # ungated one into one gated class leaf. Cases whose reference would
    # take more than REF_BUDGET evaluations are left out
    bounds = ExpressionBounds(*bounds)
    wrong, split, run, cases = [], 0, 0, 0
    for seed in range(TWIN_SEEDS):
        T = _twin_operands(_seeded_algebra(seed)[0])
        leaf = _leaf_map(T.bracket)
        assert leaf(2) == 1
        cases += 1 << T.size
        for gate in range(1 << T.size):
            pool = _leaf_pool(T, coefficient_pair_family(T.field, bounds), gate)
            if _tree_cost(len(pool), bounds.m, sum(sw for *_, sw in pool)) > REF_BUDGET:
                continue
            run += 1
            flags = {}
            for vl, vr, sw in pool:
                flags.setdefault((leaf(vl), leaf(vr)), set()).add(sw)
            split += any(len(f) == 2 for f in flags.values())
            if summand_pair_family(T, bounds, gate) != ref.summand_pair_family(T, bounds, gate):
                wrong.append((seed, gate))
    assert wrong == []
    assert split and 2 * run >= cases


def _non_diagonal_pool_case():
    """An unchecked algebra whose field + and . do not commute, so that at
    bounds 1,3,2,2 on the whole carrier its pool holds (x0, x2) and (x2, x0):
    a leaf whose two sides differ."""
    F = FiniteHyperfield(["s0", "s1"], [[1, 2], [1, 2]], [[2, 2], [1, 2]])
    L = FiniteLieHyperalgebra(F, ["x0", "x1", "x2"], [[1, 2, 4], [5, 7, 1], [4, 2, 1]],
                              [[1, 2, 4], [1, 2, 1]], [[4, 1, 4], [2, 2, 1], [4, 6, 4]])
    return L, ExpressionBounds(1, 3, 2, 2), 7


def test_non_diagonal_pool_keeps_every_state():
    # leaves whose two sides differ: on the whole carrier, and on gate 5,
    # which leaves x1 out and (2, 2) ungated, so that the DP runs
    L, bounds, full = _non_diagonal_pool_case()
    R = _repeated_operands(L)
    for gate in full, 5:
        pool = _leaf_pool(L, coefficient_pair_family(L.field, bounds), gate)
        assert {(1, 4), (4, 1)} <= {(vl, vr) for vl, vr, _ in pool}
        assert all(sw for _, _, sw in pool) == (gate == full)
        pairs = summand_pair_family(L, bounds, gate)
        assert len(pairs) == 32 or gate != full
        assert pairs == ref.summand_pair_family(L, bounds, gate)
        assert summand_pair_family(R, bounds, gate) == ref.summand_pair_family(R, bounds, gate)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rectangles_match_the_owed_dp_on_full_gates(m):
    # the full-gate path against the DP it replaces there, on the lawful
    # fixtures, the whole-carrier (odd-seed) unchecked algebras with their
    # repeated-operand copies, and the pool whose leaves differ by side;
    # each forms trees of two or more leaves, up to the swap of a pair. At
    # m = 4 only the unchecked algebras run, at p = q = 1, where their pools
    # hold at most 5 leaves
    bounds = ExpressionBounds(1, m, 2, 2) if m < 4 else ExpressionBounds(1, 4, 1, 1)
    structures = list(lawful_fixtures()) if m < 4 else []
    for seed in range(1, 60, 2):
        L, gate = _seeded_algebra(seed)
        assert gate == (1 << L.size) - 1
        structures += [L, _repeated_operands(L)]
    if m < 4:
        L = _non_diagonal_pool_case()[0]
        structures += [L, _repeated_operands(L)]
    wrong = []
    for i, S in enumerate(structures):
        pool = _leaf_pool(S, coefficient_pair_family(S.field, bounds), (1 << S.size) - 1)
        assert all(sw for _, _, sw in pool)
        rects = _rectangles(pool, S.bracket_ops, m)
        owed = _owed_dp(pool, S.bracket_ops, m, _leaf_map(S.bracket))
        if {*rects, *_swapped(rects)} != {*owed, *_swapped(owed)}:
            wrong.append(i)
    assert wrong == []


def _swapped(pairs):
    return {(V, U) for U, V in pairs}


def _engine_levels(table, pairs, t):
    """combine_levels as the engine calls it on a hyperfield with this
    addition: the order-free branch only when its gate allows."""
    F = FiniteHyperfield([f"s{i}" for i in range(len(table))], table, table)
    return combine_levels(pairs, F.add_ops, t, _sums_commute(F, t))


@st.composite
def sum_cases(draw):
    """(addition table, summand pairs, t) with small random tables, so that
    addition is often neither commutative nor associative."""
    n = draw(st.integers(2, 4))
    table = [[draw(_masks(n)) for _ in range(n)] for _ in range(n)]
    pairs = draw(st.lists(st.tuples(_masks(n), _masks(n)), min_size=1, max_size=8))
    return table, pairs, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(sum_cases())
def test_sum_levels_match_reference(case):
    table, pairs, t = case
    assert _engine_levels(table, pairs, t) == ref.combine_levels(pairs, table, t)


# commutative and associative hyperoperations on elements 0..n-1
_ORDER_FREE = {
    "cyclic": lambda x, y, n: 1 << (x + y) % n,
    "max": lambda x, y, n: 1 << max(x, y),
    "both": lambda x, y, n: 1 << x | 1 << y,
    "interval": lambda x, y, n: (1 << max(x, y) + 1) - (1 << min(x, y)),
    "total": lambda x, y, n: (1 << n) - 1,
}


@st.composite
def rectangle_cases(draw):
    """(addition table, summand pairs, t <= 4): the pairs are a union of
    random rectangles Xs x Ys, and the table is mostly a relabelled
    commutative, associative one, so that wide rectangles and levels equal
    to the one before occur. The rest are random commutative tables, which
    seldom associate."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(sorted(_ORDER_FREE) + ["random"]))
    if kind == "random":
        cells = [[draw(_masks(n)) for _ in range(n)] for _ in range(n)]
        table = [[cells[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
    else:
        sigma = draw(st.permutations(range(n)))

        def relabel(mask):
            return sum(1 << sigma[i] for i in range(n) if mask >> i & 1)

        table = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                table[sigma[x]][sigma[y]] = relabel(_ORDER_FREE[kind](x, y, n))
    side = st.lists(_masks(n), min_size=1, max_size=5, unique=True)
    pairs = [(X, Y) for Xs, Ys in draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))
             for X in Xs for Y in Ys]
    return table, pairs, draw(st.integers(1, 4))


@settings(max_examples=120, deadline=None)
@given(rectangle_cases())
def test_rectangle_levels_match_reference(case):
    table, pairs, t = case
    if not ref.sums_ignore_order(table, t):
        t = _affordable_t(len(set(pairs)), t, False)
    assert _engine_levels(table, pairs, t) == ref.combine_levels(pairs, table, t)


def _order_free_table(kind, n):
    return [[_ORDER_FREE[kind](x, y, n) for y in range(n)] for x in range(n)]


def _level_two_branches(pairs):
    """Per block of level 1, whether combine_levels' cost rule folds it as a
    rectangle at t = 2, where block i meets only the blocks from i on."""
    right = _blocks(sorted(set(pairs)))
    taken = []
    for i, (Xs, Ys) in enumerate(right):
        rest = right[i:]
        su, sv = (sum(map(len, side)) for side in zip(*rest))
        count = sum(len(Us) * len(Vs) for Us, Vs in rest)
        taken.append(5 * len(rest) + len(Xs) * su + len(Ys) * sv < len(Xs) * len(Ys) * count)
    return taken


def test_fold_paths_match_reference():
    # Z5: a singleton block before and three after a 3 x 3 rectangle, so
    # level 2 folds some blocks as rectangles and some pair by pair
    table = _order_free_table("cyclic", 5)
    pairs = [(0b00001, 0b10000), *product((0b00011, 0b00101, 0b01001), (0b001, 0b010, 0b100)),
             (0b10000, 0b01000), (0b10001, 0b00011), (0b10010, 0b11000)]
    assert _level_two_branches(pairs) == [False, True, False, False, False]
    assert _engine_levels(table, pairs, 3) == ref.combine_levels(pairs, table, 3)
    # level 2 is the whole carrier twice, and so is every level after it
    table = _order_free_table("total", 3)
    pairs = [(0b001, 0b010), (0b010, 0b100), (0b100, 0b001)]
    levels = _engine_levels(table, pairs, 4)
    assert levels[1] == levels[2] == [(0b111, 0b111)] != levels[0]
    assert levels == ref.combine_levels(pairs, table, 4)
    # Z2: level 3 is level 1 again, but level 4 is level 2
    table = _order_free_table("cyclic", 2)
    levels = _engine_levels(table, [(0b10, 0b10)], 4)
    assert levels == ref.combine_levels([(0b10, 0b10)], table, 4) == [[(2, 2)], [(1, 1)]] * 2


def test_all_pairs_fold_matches_reference(ex2):
    # A on the 27-element preset at 3,3,1,1: one 27 x 27 block, so level 2
    # folds it with itself only and equals level 1
    bounds = ExpressionBounds(3, 3, 1, 1)
    pairs = summand_pair_family(ex2, bounds, (1 << ex2.size) - 1)
    levels = combine_levels(pairs, ex2.add_ops, bounds.t, _sums_commute(ex2, bounds.t))
    assert [len(lvl) for lvl in levels] == [729] * 3
    assert levels == ref.combine_levels(pairs, ex2.add, bounds.t)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_expression_values_match_reference(case):
    L, bounds, _ = case
    leaves = len({L.smul_ops[cl][1 << h]
                  for cl, _ in coefficient_pair_family(L.field, bounds) for h in range(L.size)})
    m = _affordable_m(leaves, bounds.m, 1)
    trees = len(relation_L_values(L, ExpressionBounds(1, m, bounds.p, bounds.q)))
    bounds = ExpressionBounds(_affordable_t(trees, bounds.t, True), m, bounds.p, bounds.q)
    assert relation_L_values(L, bounds) == ref.relation_L_values(L, bounds)


@functools.cache
def lawful_fields():
    fields = [gen_trivial_field(q) for q in (2, 3, 4)]
    fields += [gen_quotient_hyperfield(q, H) for q, H in
               ((7, [1, 2, 4]), (7, [1, 6]), (5, [1, 4]), (5, [1, 2, 3, 4]))]
    return tuple(fields) + tuple({repr((L.field.names, L.field.add, L.field.mul)): L.field
                                  for L in lawful_fixtures()}.values())


@st.composite
def unchecked_fields(draw):
    """Random add and mul tables, each drawn commutative or not; no axiom
    is asked to hold, so addition is often not associative."""
    k = draw(st.integers(2, 3))

    def table():
        cells = [[draw(_masks(k)) for _ in range(k)] for _ in range(k)]
        if draw(st.booleans()):
            cells = [[cells[min(x, y)][max(x, y)] for y in range(k)] for x in range(k)]
        return cells

    return FiniteHyperfield([f"s{i}" for i in range(k)], table(), table())


def _affordable_p(products: int, p: int) -> int:
    """Largest p' <= p whose sums of at most p' of the product pairs, each
    in every order, stay within the budget."""
    while p > 1 and sum(products ** ln * math.factorial(ln)
                        for ln in range(1, p + 1)) > REF_BUDGET:
        p -= 1
    return p


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(lawful_fields()), unchecked_fields()),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_coefficients_and_alpha_rows_match_reference(F, t, p, q):
    products = len(ref._product_pairs(F, q))
    bounds = ExpressionBounds(_affordable_t(products, t, ref.sums_ignore_order(F.add, 3)), 1,
                              _affordable_p(products, p), q)
    assert coefficient_pair_family(F, bounds) == ref.coefficient_pair_family(F, bounds)
    assert relation_alpha(F, bounds).rows == ref.relation_alpha_rows(F, bounds)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=m))))
def test_owed_multisets_add_and_cancel_exactly(case):
    # leaves (placed value, shown value) of one subtree of at most m leaves
    m, leaves = case
    owed = _Owed([f"w{v}" for v in range(5)], m)
    packed = sum(owed.unit[f"w{p}"] - owed.unit[f"w{s}"] for p, s in leaves)
    counts = Counter(p for p, _ in leaves)
    counts.subtract(s for _, s in leaves)
    assert owed.tokens(packed) == (
        sum(c for c in counts.values() if c > 0),
        sorted(v for v, c in counts.items() if c > 0),
        sorted(v for v, c in counts.items() if c < 0),
    )
