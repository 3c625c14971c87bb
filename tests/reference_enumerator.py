"""Brute-force expression enumerator kept as a test oracle.

Every bracket shape is evaluated on every tuple of pool leaves, and every
gate-preserving leaf permutation on top of that, so the cost grows as
pool^m x shapes x g!. The engine in hyperlie.relations reaches the same
values through a dynamic programme over distinct subtree values; the
property tests compare the two on small structures. Coefficients are
enumerated here too, one scalar tuple and one permutation at a time, so
the reference shares no enumeration code with the engine; every set value
comes from its own _setwise, so it shares no memo either. Sums are folded
in every order unless the reference's own check on every element pair and
triple finds that + commutes and, from three terms on, associates.
"""

from functools import cache, reduce
from itertools import permutations, product

from hyperlie.relations import _leaf_pool

_LEAF = None


def _setwise(table):
    """Setwise extension of a mask table, square or rectangular: the union
    of table[x][y] over x in A and y in B, each element pair looked up
    (memoized)."""
    rows, cols = len(table), len(table[0])

    @cache
    def apply(A, B):
        out = 0
        for x in range(rows):
            if A >> x & 1:
                for y in range(cols):
                    if B >> y & 1:
                        out |= table[x][y]
        return out

    return apply


def _product_pairs(F, q: int):
    """Sorted (written order, permuted order) values of products of at most
    q scalars, each scalar tuple and each permutation evaluated."""
    pairs, mul = set(), _setwise(F.mul)
    for ln in range(1, q + 1):
        for tup in product(range(F.size), repeat=ln):
            left = reduce(mul, [1 << e for e in tup])
            for perm in permutations(tup):
                pairs.add((left, reduce(mul, [1 << e for e in perm])))
    return sorted(pairs)


def coefficient_pair_family(F, bounds):
    """(written order, permuted order) values of sums of at most p products,
    each tuple of product pairs and each permutation evaluated; closed
    under swapping."""
    prod_pairs = _product_pairs(F, bounds.q)
    family, add = set(), _setwise(F.add)
    for ln in range(1, bounds.p + 1):
        for tup in product(prod_pairs, repeat=ln):
            left = reduce(add, [p[0] for p in tup])
            for perm in permutations(tup):
                family.add((left, reduce(add, [p[1] for p in perm])))
    family |= {(r, l) for (l, r) in family}
    return sorted(family)


def _tree_shapes(m: int):
    if m == 1:
        return [_LEAF]
    out = []
    for k in range(1, m):
        for left in _tree_shapes(k):
            for right in _tree_shapes(m - k):
                out.append((left, right))
    return out


def _eval_shape(shape, values, bracket_apply):
    it = iter(values)

    def ev(s):
        if s is _LEAF:
            return next(it)
        return bracket_apply(ev(s[0]), ev(s[1]))

    return ev(shape)


def summand_pair_family(L, bounds, gate_mask: int):
    """All (unpermuted, permuted) value-set pairs of single summands,
    each leaf tuple and each gate-preserving permutation evaluated."""
    coeff_pairs = coefficient_pair_family(L.field, bounds)
    pool = _leaf_pool(L, coeff_pairs, gate_mask)
    bracket = _setwise(L.bracket)
    pairs = set()
    for m in range(1, bounds.m + 1):
        for shape in _tree_shapes(m):
            for assignment in product(pool, repeat=m):
                U = _eval_shape(shape, [a[0] for a in assignment], bracket)
                gated = [j for j, a in enumerate(assignment) if a[2]]
                base = [a[1] for a in assignment]
                if len(gated) <= 1:
                    V = _eval_shape(shape, base, bracket)
                    pairs.add((U, V))
                    pairs.add((V, U))
                    continue
                contents = [assignment[j][1] for j in gated]
                for arrangement in permutations(contents):
                    vr = list(base)
                    for pos, val in zip(gated, arrangement):
                        vr[pos] = val
                    V = _eval_shape(shape, vr, bracket)
                    pairs.add((U, V))
                    pairs.add((V, U))
    return sorted(pairs)


def sums_ignore_order(table, t_max: int) -> bool:
    """Whether every sum of at most t_max terms under the mask table has
    the same value in every order: the table commutes and, from three
    terms on, associates, each checked on every element pair or triple."""
    n, apply = len(table), _setwise(table)
    if any(table[x][y] != table[y][x] for x in range(n) for y in range(n)):
        return False
    return t_max < 3 or all(apply(table[x][y], 1 << z) == apply(1 << x, table[y][z])
                            for x in range(n) for y in range(n) for z in range(n))


def combine_levels(pairs, table, t_max: int):
    """Per-summand-count levels of sum-combined pairs, each sorted, under
    the setwise extension of the mask table. Level t + 1 is every level t
    pair plus every level 1 pair when sums ignore term order; otherwise
    every ordered tuple is evaluated in every order."""
    add_apply = _setwise(table)
    levels = [sorted(set(pairs))]
    if sums_ignore_order(table, t_max):
        for _ in range(t_max - 1):
            nxt = set()
            for X, Y in levels[-1]:
                for U, V in levels[0]:
                    nxt.add((add_apply(X, U), add_apply(Y, V)))
            levels.append(sorted(nxt))
        return levels
    for t in range(2, t_max + 1):
        lvl = set()
        for tup in product(levels[0], repeat=t):
            X = tup[0][0]
            for U, _ in tup[1:]:
                X = add_apply(X, U)
            for sigma in permutations(range(t)):
                Y = tup[sigma[0]][1]
                for i in sigma[1:]:
                    Y = add_apply(Y, tup[i][1])
                lvl.add((X, Y))
        levels.append(sorted(lvl))
    return levels


def relation_L_values(L, bounds):
    """Family of value sets of unpermuted bounded expressions, each leaf
    tuple evaluated on each bracket shape."""
    coeff_pairs = coefficient_pair_family(L.field, bounds)
    scalar, bracket, add = _setwise(L.smul), _setwise(L.bracket), _setwise(L.add)
    leaf_values = sorted({scalar(cl, 1 << h) for cl, _ in coeff_pairs for h in range(L.size)})
    tree_values = set()
    for m in range(1, bounds.m + 1):
        for shape in _tree_shapes(m):
            for assignment in product(leaf_values, repeat=m):
                tree_values.add(_eval_shape(shape, assignment, bracket))
    total = set(tree_values)
    prev = set(tree_values)
    for _ in range(bounds.t - 1):
        nxt = set()
        for X in prev:
            for U in tree_values:
                nxt.add(add(X, U))
        total |= nxt
        prev = nxt
    return sorted(total)


def relation_alpha_rows(F, bounds):
    """Rows of the scalar relation: x related to every element of the
    permuted value of a sum of at most t products whose written value
    holds x."""
    levels = combine_levels(_product_pairs(F, bounds.q), F.add, bounds.t)
    rows = [0] * F.size
    for lvl in levels:
        for X, Y in lvl:
            for x in range(F.size):
                if X >> x & 1:
                    rows[x] |= Y
    return rows
