"""Bounded enumeration of the fundamental relations and their closures.

The relations are defined by unbounded families of expressions; this engine
covers every expression within ExpressionBounds without evaluating them one
by one. The swap relations A and Sn read the leaves of a tree of two or
more leaves by operand class (equal bracket rows and columns), and
summands of at most two leaves off the leaf pool. From three leaves with
every leaf gated (A, Sn:1, and Sn while its gate is the carrier), a tree
and its permuted tree are any two orderings of one leaf multiset in one
shape, so the summands are rectangles of written by permuted values,
built multiset by multiset.
Other gates build bracket trees bottom-up in a tree DP over distinct
subtree states (the written and permuted values, with the gated values a
leaf permutation still owes), reading each state as a bracket operand
through the same operand-class map as the leaves. Every comparison of a
written order with its permutations is one fold, combine_levels: scalar
products, the sums of products that make coefficients, and the sums of
summands for A, Sn and alpha, folded over rectangles of pairs where +
commutes and associates.
L compares no permutations, so it builds the written values alone and
folds its sums over values, not pairs (the pair fold was measured slower
on cold L). Every stage dedupes by evaluated value sets. RelationStatus
reports how the finite run should be read (exact against an oracle,
stabilized, or bound-limited).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from operator import itemgetter, or_

from .errors import AxiomFailure, BoundsExceeded, InternalInvariant, NotSymmetric
from .sets import full_mask, iter_bits
from .structures import FiniteHyperfield, FiniteLieHyperalgebra


@dataclass(frozen=True, order=True)
class ExpressionBounds:
    """Caps for expression enumeration: summands t, bracket leaves m,
    coefficient sum terms p, coefficient product factors q."""

    t: int
    m: int
    p: int
    q: int

    def __post_init__(self):
        if min(self.t, self.m, self.p, self.q) < 1:
            raise BoundsExceeded(f"all bounds must be >= 1, got {self.astuple()}")

    def astuple(self):
        return (self.t, self.m, self.p, self.q)

    def within(self, cap: "ExpressionBounds") -> bool:
        return (
            self.t <= cap.t and self.m <= cap.m and self.p <= cap.p and self.q <= cap.q
        )

    def succ(self, cap: "ExpressionBounds") -> "ExpressionBounds":
        """Next escalation rung: +1 in every coordinate, clamped to cap."""
        return ExpressionBounds(
            min(self.t + 1, cap.t),
            min(self.m + 1, cap.m),
            min(self.p + 1, cap.p),
            min(self.q + 1, cap.q),
        )


DEFAULT_BOUNDS = ExpressionBounds(2, 2, 1, 1)
HARD_CAP = ExpressionBounds(4, 4, 3, 3)


def validate_bounds(bounds: ExpressionBounds):
    if not bounds.within(HARD_CAP):
        raise BoundsExceeded(f"bounds {bounds.astuple()} exceed hard cap {HARD_CAP.astuple()}")


@dataclass(frozen=True)
class RelationStatus:
    mode: str  # exact-oracle-match | stabilized-heuristic | bound-limited
    bounds_used: ExpressionBounds


class BinaryRelation:
    """Relation as adjacency rows: rows[x] = mask of elements related to x."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.size = len(self.rows)

    def row(self, x: int) -> int:
        return self.rows[x]

    def has(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    @property
    def pair_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def is_reflexive(self) -> bool:
        return all(r >> x & 1 for x, r in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        n = self.size
        for x in range(n):
            for y in iter_bits(self.rows[x]):
                if not self.rows[y] >> x & 1:
                    return False
        return True


class Partition:
    """Equivalence relation as a partition with canonical class order.

    Classes are sorted by their minimum element; class_of maps element to
    class index under that order.
    """

    def __init__(self, class_masks):
        masks = sorted(class_masks, key=lambda m: m & -m)
        size = sum(m.bit_count() for m in masks)
        cover = 0
        for m in masks:
            if cover & m:
                raise InternalInvariant("partition classes overlap")
            cover |= m
        if cover != full_mask(size):
            raise InternalInvariant("partition does not cover the carrier")
        self.classes = masks
        self.size = size
        self.class_of = [0] * size
        for ci, m in enumerate(masks):
            for x in iter_bits(m):
                self.class_of[x] = ci

    @classmethod
    def diagonal(cls, n: int) -> "Partition":
        return cls([1 << i for i in range(n)])

    @classmethod
    def all_pairs(cls, n: int) -> "Partition":
        return cls([full_mask(n)])

    @classmethod
    def from_class_of(cls, class_of) -> "Partition":
        groups = {}
        for x, c in enumerate(class_of):
            groups[c] = groups.get(c, 0) | (1 << x)
        return cls(list(groups.values()))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_mask_of(self, x: int) -> int:
        return self.classes[self.class_of[x]]

    def key(self):
        return tuple(self.class_of)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def refines(self, other: "Partition") -> bool:
        """Every class of self is contained in a class of other."""
        if self.size != other.size:
            return False
        return all(m & ~other.class_mask_of((m & -m).bit_length() - 1) == 0 for m in self.classes)

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_class_of(zip(self.class_of, other.class_of))

    def is_diagonal(self) -> bool:
        return len(self.classes) == self.size

    def is_all_pairs(self) -> bool:
        return len(self.classes) == 1

    def classes_as_names(self, names):
        return [[names[i] for i in iter_bits(m)] for m in self.classes]


class ClassOfMask(dict):
    """mask -> index of the class of a partition that holds every element
    of mask, or None when mask meets two classes (memoized)."""

    def __init__(self, partition: Partition):
        super().__init__()
        self.classes = partition.classes
        self.class_of = partition.class_of

    def __missing__(self, mask: int):
        c = self.class_of[(mask & -mask).bit_length() - 1]
        out = self[mask] = None if mask & ~self.classes[c] else c
        return out


def transitive_closure(rel: BinaryRelation) -> Partition:
    """Union-find closure of a reflexive symmetric relation."""
    if not rel.is_symmetric():
        raise NotSymmetric("relation is not symmetric; closure refused")
    if not rel.is_reflexive():
        raise NotSymmetric("relation is not reflexive; closure refused")
    n = rel.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        rx = find(x)
        for y in iter_bits(rel.rows[x] >> (x + 1) << (x + 1)):
            ry = find(y)
            if rx != ry:
                parent[ry] = rx
    return Partition.from_class_of([find(x) for x in range(n)])


def _product_pairs(F: FiniteHyperfield, q: int):
    """Sorted (written order, permuted order) values of products of at most
    q scalars."""
    singletons = [(1 << e, 1 << e) for e in range(F.size)]
    return sorted(set().union(*combine_levels(singletons, F.mul_ops, q, False)))


def coefficient_pair_family(F: FiniteHyperfield, bounds: ExpressionBounds):
    """Deduplicated (unpermuted value, permuted value) scalar-set pairs.

    Products of at most q factors in every order, summed in at most p terms
    in every order; the left entry evaluates the written order, the right
    entry a permuted order. Neither operation is assumed commutative or
    associative, since the tables may be unchecked. The family is closed
    under swapping with no extra step: a permuted order, read as written,
    has the written order among its permutations.
    """
    validate_bounds(bounds)
    return sorted(set().union(*combine_levels(_product_pairs(F, bounds.q), F.add_ops,
                                              bounds.p, False)))


def hyper_derived_sets(L: FiniteLieHyperalgebra, depth: int):
    """Setwise chain: start at the carrier, repeatedly bracket with itself."""
    out = [full_mask(L.size)]
    for _ in range(depth):
        nxt = L.bracket_ops[out[-1]][out[-1]]
        if nxt & ~out[-1]:
            # cannot happen: the setwise bracket is monotone in both arguments
            raise InternalInvariant("hyper-derived chain is not descending")
        out.append(nxt)
    return out


def _leaf_pool(L: FiniteLieHyperalgebra, coeff_pairs, gate_mask: int):
    """Dedup (left value, right value) leaf pairs; swap flag is OR-ed over
    the witnesses h, sound because eligibility depends only on h."""
    pool, smul = {}, L.smul_ops
    for h in range(L.size):
        hm = 1 << h
        sw = bool(gate_mask >> h & 1)
        for cl, cr in coeff_pairs:
            key = (smul[cl][hm], smul[cr][hm])
            pool[key] = pool.get(key, False) or sw
    return [(vl, vr, sw) for (vl, vr), sw in sorted(pool.items())]


class _Owed:
    """Owed multisets of gated values, packed into ints.

    A subtree owes the gated values its unpermuted side has placed and its
    permuted side has not yet shown (positive), and the reverse (negative).
    Gated value number v counts (1 << width * v) per copy, each count a
    balanced digit of width bits, so adding two multisets is integer
    addition and matching values cancel by themselves.
    """

    def __init__(self, gated_values, m: int):
        # a subtree of k <= m leaves holds every count in [-m, m]
        self.width = m.bit_length() + 1
        self.unit = {w: 1 << self.width * v for v, w in enumerate(gated_values)}
        self._memo = {}

    def tokens(self, owed: int):
        """(size, values owed, values owed to) of one multiset, where size
        is the number of values owed."""
        hit = self._memo.get(owed)
        if hit is not None:
            return hit
        width, rest = self.width, owed
        half = 1 << (width - 1)
        size, plus, minus = 0, [], []
        while rest:
            v = ((rest & -rest).bit_length() - 1) // width
            d = ((rest >> width * v) + half) % (half << 1) - half
            if d > 0:
                size += d
                plus.append(v)
            else:
                minus.append(v)
            rest -= d << width * v
        out = self._memo[owed] = (size, plus, minus)
        return out


class _Layer:
    """Distinct (owed, U, V) states of the subtrees of k leaves, kept only
    if they owe at most budget values, grouped by owed; operands holds each
    group with U and V read through the leaf map, as bracket operands."""

    def __init__(self, states, k: int, codec: _Owed, budget: int, leaf):
        groups = {}
        for state in states:
            groups.setdefault(state[0], []).append(state)
        if budget < k:  # k leaves owe at most k values
            groups = {o: g for o, g in groups.items() if codec.tokens(o)[0] <= budget}
        self.codec = codec
        self.groups = groups
        self.operands = {o: list({(o, leaf(U), leaf(V)) for _, U, V in g})
                         for o, g in groups.items()}
        self._index = None

    def sources(self, owed: int, budget: int):
        """State lists a subtree owing owed may pair with so that the sum
        owes at most budget values: at budget 0 the exact negation; else
        those small enough not to need cancelling and those that cancel at
        least one value. A state may be listed twice."""
        if budget == 0:
            return [self.operands.get(-owed, ())]
        if self._index is None:
            by_size, by_plus, by_minus = {}, {}, {}
            for key, group in self.operands.items():
                size, plus, minus = self.codec.tokens(key)
                by_size.setdefault(size, []).extend(group)
                for v in plus:
                    by_plus.setdefault(v, []).extend(group)
                for v in minus:
                    by_minus.setdefault(v, []).extend(group)
            self._index = by_size, by_plus, by_minus
        by_size, by_plus, by_minus = self._index
        size, plus, minus = self.codec.tokens(owed)
        out = [by_size[r] for r in range(budget - size + 1) if r in by_size]
        out += [by_minus[v] for v in plus if v in by_minus]
        out += [by_plus[v] for v in minus if v in by_plus]
        return out


def _leaf_map(table):
    """Map of a mask to the mask of its elements' least class mates, two
    elements being mates when they share a table row and a table column
    (the identity where no element has a mate). Under it br[U][X] is
    unchanged."""
    first, reps = {}, {}
    for x, line in enumerate(zip(map(tuple, table), zip(*table))):
        reps[1 << x] = 1 << first.setdefault(line, x)
    return lambda mask: reps.get(mask) or sum({reps[1 << x] for x in iter_bits(mask)})


def summand_pair_family(L: FiniteLieHyperalgebra, bounds: ExpressionBounds, gate_mask: int):
    """All (unpermuted, permuted) value-set pairs of single summands.

    A summand is a bracket tree over coefficient-scaled leaves; the permuted
    side applies a leaf permutation fixing every position whose element lies
    outside the gate, and each moved position receives the permuted
    coefficient partner of the leaf it takes. One-leaf summands are the
    pool's (vl, vr). Trees of two or more leaves read each leaf only as a
    bracket operand, so they run on the class pool: each pool value mapped
    to its elements' least class mates (_leaf_map), leaves that then
    coincide merged with their swap flags OR-ed. This is exact: br[U][X]
    is unchanged by the map, a gated class leaf is realised by a gated
    member, which may also stay in place, and so class trees and pool
    trees give the same pairs. Each path below may leave out the swap of a
    pair it forms, which one swap closure adds back. The path is picked
    from m and the class pool's swap flags:

    - At m = 2 the pairs are read off the class pool: leaves (x1, r1) and
      (x2, r2) give ([x1, x2], [r1, r2]), and ([x1, x2], [r2, r1]) if both
      are gated.
    - From m = 3 with every leaf gated (A, Sn:1, and each Sn whose gate is
      still the carrier), a written tree may be any ordering of its leaf
      multiset M in its shape s, and so may its permuted tree. So the
      pairs of s over M are exactly W_l(s, M) x W_r(s, M), where W_l (W_r)
      holds the values of s over every ordering of M read on vl (vr):
      W((s1, s2), M) is every [X, Y] with X in W(s1, M1) and Y in
      W(s2, M2), over the splits of M into M1 and M2 (_rectangles).
    - Otherwise, the tree DP over owed multisets (_owed_dp).
    """
    pool = _leaf_pool(L, coefficient_pair_family(L.field, bounds), gate_mask)
    pairs = {(vl, vr) for vl, vr, _ in pool}
    m, br = bounds.m, L.bracket_ops
    if m >= 2:
        leaf, merged = _leaf_map_of(L), {}
        for vl, vr, sw in pool:  # the class pool: leaves of one class merged
            key = leaf(vl), leaf(vr)
            merged[key] = merged.get(key, False) or sw
        leaves = [(*key, sw) for key, sw in sorted(merged.items())]
        if m == 2:
            for x1, r1, sw1 in leaves:
                bx, b1 = br[x1], br[r1]
                pairs.update([(bx[x2], b1[r2]) for x2, r2, _ in leaves])
                if sw1:
                    pairs.update([(bx[x2], br[r2][r1]) for x2, r2, sw2 in leaves if sw2])
        elif all(sw for _, _, sw in leaves):
            pairs |= _rectangles(leaves, br, m)
        else:
            pairs |= _owed_dp(leaves, br, m, leaf)
    return sorted(pairs | {(V, U) for U, V in pairs})


def _owed_dp(pool, br, m: int, leaf):
    """Summand pairs, up to swaps, of 2 to m >= 3 leaves of a partly gated pool.

    Trees are built bottom-up over distinct subtree states (owed, U, V). A
    gated leaf may show any gated value w on its permuted side and then
    owes its own right value in exchange for w; some gate-preserving
    permutation exists exactly when the owed multiset of the whole tree
    cancels to empty. A subtree of k leaves that owes more values than the
    m - k leaves still to come can settle is dropped.

    Each state is read as a bracket operand through leaf, the _leaf_map of
    the bracket. Mates share a row and a column, so br[leaf(U)][X] ==
    br[U][X] == br[U][leaf(X)], for sets too.
    """
    gated = sorted({vr for _, vr, sw in pool if sw})
    codec = _Owed(gated, m)
    unit = codec.unit
    # distinct already: the pool's (vl, vr) are, and owed and w give vr back
    leaves = [(0, vl, vr) for vl, vr, _ in pool]
    leaves += [(unit[vr] - unit[w], vl, w)
               for vl, vr, sw in pool if sw for w in gated if w != vr]
    layers = [None, _Layer(leaves, 1, codec, m - 1, leaf)]
    pairs = set()
    for k in range(2, m + 1):
        budget = m - k
        states = set()
        for i in range(1, k):
            right = layers[k - i]
            for key, group in layers[i].operands.items():
                sources = right.sources(key, budget)
                for _, U, V in group:
                    ru, rv = br[U], br[V]
                    for src in sources:
                        if budget:
                            states.update([(key + o, ru[X], rv[Y]) for o, X, Y in src])
                        else:  # whole trees; every source settles key to empty
                            pairs.update([(ru[X], rv[Y]) for _, X, Y in src])
        if budget:
            layers.append(_Layer(states, k, codec, budget, leaf))
    pairs.update((U, V) for layer in layers[2:] for _, U, V in layer.groups.get(0, ()))
    return pairs


def _rectangles(pool, br, m: int):
    """Summand pairs, up to swaps, of 2 to m >= 3 leaves of a fully gated pool.

    W(s, M) is kept per sorted tuple M of fewer than m pool indices (a lone
    index at one leaf), as a bit mask over the values met so far, one per
    shape s; the bracket of two such masks is memoised. Each distinct split
    (M1, M2) forms a shape (s1, s2) and its mirror (s2, s1) together.
    """
    ids, vals, memo = {}, [], {}

    def unit(v):  # the bit of value v
        if v not in ids:
            vals.append(v)
        return 1 << ids.setdefault(v, len(ids))

    def lift(A, B):
        out = 0
        for x in iter_bits(A):
            row = br[vals[x]]
            for y in iter_bits(B):
                out |= unit(row[vals[y]])
        memo[A, B] = out
        return out

    # the caller's swap closure makes the order of the sides immaterial
    sides = {tuple(vl for vl, _, _ in pool), tuple(vr for _, vr, _ in pool)}
    tables = [{i: [unit(v)] for i, v in enumerate(side)} for side in sides]
    rects = set()
    count = [0, 1]  # shapes of k leaves
    for k in range(2, m + 1):
        # (a, i, j): shape number i of a leaves under shape number j of k - a
        slot = {s: n for n, s in enumerate((a, i, j) for a in range(1, k)
                                           for i in range(count[a]) for j in range(count[k - a]))}
        count.append(len(slot))
        cuts = [(a, itemgetter(*p1), itemgetter(*(p for p in range(k) if p not in p1)))
                for a in range(1, k // 2 + 1) for p1 in combinations(range(k), a)]
        for M in combinations_with_replacement(range(len(pool)), k):
            parts = {(a, f1(M)): f2(M) for a, f1, f2 in cuts}
            row = []
            for W in tables:
                out = [0] * count[k]
                for (a, M1), M2 in parts.items():
                    for i, A in enumerate(W[M1]):
                        for j, B in enumerate(W[M2]):
                            out[slot[a, i, j]] |= memo.get((A, B)) or lift(A, B)
                            if 2 * a < k:
                                out[slot[k - a, j, i]] |= memo.get((B, A)) or lift(B, A)
                row.append(out)
                if k < m:
                    W[M] = out
            rects.update(zip(*row))
    return {(vals[x], vals[y]) for r in rects for x in iter_bits(r[0]) for y in iter_bits(r[-1])}


def _blocks(level):
    """A sorted level as rectangles (Xs, Ys) that partition it: the pairs
    grouped by X, then the Xs that share one tuple of Ys."""
    rects = {}
    for X, group in groupby(level, itemgetter(0)):
        rects.setdefault(tuple(map(itemgetter(1), group)), []).append(X)
    return [(Xs, Ys) for Ys, Xs in rects.items()]


def combine_levels(pairs, ops, t_max: int, commutative: bool):
    """Per-length levels of folded pairs, each sorted.

    Level t holds the (written order, permuted order) values of t-term
    folds of pairs under ops, the SetOps of the operation: sums of
    summands, sums of products, or products of scalars. If ops commutes,
    and from three terms on associates, level t + 1 is every (X + U, Y + V)
    over (X, Y) of level t and (U, V) of level 1; rectangles Xs x Ys and
    Us x Vs give {X + U} x {Y + V} in |Xs||Us| + |Ys||Vs| sums, taken when
    these sums over level 1, plus 5 per rectangle of level 1 for set-up, are
    fewer than the |Xs||Ys||level 1| sums of the flat fold. Otherwise every
    order is evaluated.
    """
    levels = [sorted(set(pairs))]
    if commutative:
        right = _blocks(levels[0])
        su, sv = (sum(map(len, side)) for side in zip(*right))
        for t in range(2, t_max + 1):
            nxt = set()
            for Xs, Ys in right if t == 2 else _blocks(levels[-1]):
                if (5 * len(right) + len(Xs) * su + len(Ys) * sv
                        < len(Xs) * len(Ys) * len(levels[0])):
                    for Us, Vs in right:
                        nxt.update(product({ops[X][U] for X in Xs for U in Us},
                                           {ops[Y][V] for Y in Ys for V in Vs}))
                else:
                    for X, Y in product(Xs, Ys):
                        rx, ry = ops[X], ops[Y]
                        nxt.update([(rx[U], ry[V]) for U, V in levels[0]])
            levels.append(sorted(nxt))
        return levels
    for t in range(2, t_max + 1):
        lvl = set()
        for tup in product(levels[0], repeat=t):
            X = tup[0][0]
            for U, _ in tup[1:]:
                X = ops[X][U]
            for sigma in permutations(range(t)):
                Y = tup[sigma[0]][1]
                for i in sigma[1:]:
                    Y = ops[Y][tup[i][1]]
                lvl.add((X, Y))
        levels.append(sorted(lvl))
    return levels


def _sums_commute(S, t: int) -> bool:
    """Whether + commutes and, for sums of t >= 3 terms, associates."""
    return S.commutative_add and (t < 3 or S.associative_add)


def _relation_from_levels(levels, names) -> BinaryRelation:
    """x related to every element of Y for each pair (X, Y) of the levels
    with x in X; the Ys of each distinct X are joined before X's bits are
    spread. The pair families are closed under swapping, so the relation
    is symmetric; it is reflexive unless an element lies in no value,
    which only tables that fail their axioms allow."""
    related = {}
    for lvl in levels:
        for X, Y in lvl:
            related[X] = related.get(X, 0) | Y
    rows = [0] * len(names)
    for X, Y in related.items():
        for x in iter_bits(X):
            rows[x] |= Y
    for x, row in enumerate(rows):
        if not row >> x & 1:
            raise AxiomFailure("relation-reflexive", (x,),
                               f"no bounded expression takes a value holding {names[x]!r}")
    rel = BinaryRelation(rows)
    if not rel.is_symmetric():
        raise InternalInvariant("engine relation must be symmetric")
    return rel


def relation_Sn(L: FiniteLieHyperalgebra, n: int, bounds: ExpressionBounds) -> BinaryRelation:
    """Depth-gated swap relation: permutations allowed only at leaf
    positions whose element lies in the (n-1)-th hyper-derived set."""
    return _relation_from_levels(sn_pair_levels(L, n, bounds), L.names)


def relation_A(L: FiniteLieHyperalgebra, bounds: ExpressionBounds) -> BinaryRelation:
    """Unrestricted swap relation: Sn at depth 1, whose gate is the whole carrier."""
    return relation_Sn(L, 1, bounds)


def relation_L_values(L: FiniteLieHyperalgebra, bounds: ExpressionBounds):
    """Family of value sets of unpermuted bounded expressions.

    Bracket trees of k leaves take the values of T[k], the union over
    splits i of the brackets of T[i] with T[k - i]; sums are folded on top.
    Brackets read the leaves T[1] by operand class (_leaf_map).
    """
    coeff_pairs = coefficient_pair_family(L.field, bounds)
    br, add, smul = L.bracket_ops, L.add_ops, L.smul_ops
    leaves = {smul[cl][1 << h] for cl, _ in coeff_pairs for h in range(L.size)}
    layers = [None, set(map(_leaf_map_of(L), leaves))]
    for k in range(2, bounds.m + 1):
        layer = set()
        for i in range(1, k):
            right = layers[k - i]
            for A in layers[i]:
                row = br[A]
                layer.update([row[B] for B in right])
        layers.append(layer)
    tree_values = leaves.union(*layers[2:])
    total = set(tree_values)
    prev = tree_values
    for _ in range(bounds.t - 1):
        nxt = set()
        for X in prev:
            row = add[X]
            nxt.update([row[U] for U in tree_values])
        total |= nxt
        prev = nxt
    return sorted(total)


def relation_L(L: FiniteLieHyperalgebra, bounds: ExpressionBounds) -> BinaryRelation:
    """Common-value relation: x related to y when one bounded expression
    value set contains both: each value D is the pair (D, D)."""
    return _relation_from_levels([[(D, D) for D in relation_L_values(L, bounds)]], L.names)


def relation_alpha(F: FiniteHyperfield, bounds: ExpressionBounds) -> BinaryRelation:
    """Scalar relation on a hyperfield: sums of permuted products.

    The two grammar depths map onto bounds as sum length <= t and product
    length <= q; m and p are inert here.
    """
    validate_bounds(bounds)
    levels = combine_levels(_product_pairs(F, bounds.q), F.add_ops, bounds.t,
                            _sums_commute(F, bounds.t))
    return _relation_from_levels(levels, F.names)


def _conditions(S):
    """Strong-regularity conditions of an algebra or hyperfield in witness
    order: groups of (name, table, left) whose third operand ranges over
    the rows of the group's first table."""
    if isinstance(S, FiniteHyperfield):
        return ((("add-left", S.add, True), ("add-right", S.add, False),
                 ("mul-left", S.mul, True), ("mul-right", S.mul, False)),)
    return (
        (("add-left", S.add, True), ("add-right", S.add, False)),
        # scalars act on one side only; the right condition reads x * lam
        # and evaluates to the same sets, so it is decided here too and can
        # never fail on its own
        (("scalar-left", S.smul, True),),
        (("bracket-left", S.bracket, True), ("bracket-right", S.bracket, False)),
    )


def _pairwise_witness(partition: Partition, conditions, classes):
    """First (condition, aux, x, y) of the pairwise scan over some classes,
    or None: for each pair x <= y of a class and each third operand aux,
    the union of the two cells must lie in one class."""
    class_of_mask = ClassOfMask(partition)
    for cls in classes:
        members = list(iter_bits(cls))
        for i, x in enumerate(members):
            for y in members[i:]:
                for group in conditions:
                    for a in range(len(group[0][1])):
                        for name, table, left in group:
                            mask = (table[a][x] | table[a][y] if left
                                    else table[x][a] | table[y][a])
                            if class_of_mask[mask] is None:
                                return name, a, x, y
    return None


def is_strongly_regular(S, partition: Partition):
    """(ok, witness) of strong regularity of an equivalence on a Lie
    hyperalgebra or a hyperfield, decided class by class.

    For x, y in one class and each third operand, the lifted values must
    together lie in one class: on an algebra a + x and a + y, x + a and
    y + a, the scalar multiples and the brackets on both sides; on a
    hyperfield the sums and products. Returns (True, None) or (False,
    (condition, aux, x, y)), aux the third element or scalar index, for the
    first failing pair x <= y of the first failing class. Pairs (x, x)
    count: even then the lifted condition forces whole value sets into one
    class.

    A class passes iff, for each condition and third operand, the union of
    its members' cells lies in one class (the pairs (x, x) and (x, y) chain
    them). Member x's cells are column x of a left condition's table and
    row x of a right one's. Only a failing class runs the pairwise scan,
    which names the witness. The diagonal of a singleton-valued structure
    passes at once: each cell is one element, so lies in one class.
    """
    if S.is_trivial and partition.is_diagonal():
        return True, None
    conditions = _conditions(S)
    class_of_mask = ClassOfMask(partition)
    lines = [list(zip(*table)) if left else table
             for group in conditions for _, table, left in group]

    def passes(cls):
        first, *rest = iter_bits(cls)
        for line in lines:
            union = line[first]
            for x in rest:
                union = list(map(or_, union, line[x]))
            if None in map(class_of_mask.__getitem__, union):
                return False
        return True

    failing = (cls for cls in partition.classes if not passes(cls))
    witness = _pairwise_witness(partition, conditions, failing)
    return witness is None, witness


# structure -> its own {(kind, bounds) | ("Sn", gate, bounds) |
# ("Sn-levels", gate, bounds) | ("leaf-map",): entry}, dropped with the
# structure. A and Sn key on the gate, not the depth, so depths with equal
# gates share entries.
_REL_CACHE = weakref.WeakKeyDictionary()


def clear_relation_cache():
    _REL_CACHE.clear()


def _memo(obj, key, build):
    """obj's cache entry under key, built on a miss; a hit builds no dict."""
    cache = _REL_CACHE.get(obj) or _REL_CACHE.setdefault(obj, {})
    hit = cache.get(key)
    return hit if hit is not None else cache.setdefault(key, build())


def _leaf_map_of(L: FiniteLieHyperalgebra):
    """_leaf_map of L's bracket, kept once per structure."""
    return _memo(L, ("leaf-map",), lambda: _leaf_map(L.bracket))


def _gate(L: FiniteLieHyperalgebra, n: int, bounds: ExpressionBounds) -> int:
    """The (n-1)-th hyper-derived set, the only way Sn depends on n. A chain of
    nonempty sets shrinks strictly until it repeats, so it is constant after |L| steps."""
    validate_bounds(bounds)
    if n < 1:
        raise BoundsExceeded(f"depth index must be >= 1, got {n}")
    return hyper_derived_sets(L, min(n - 1, L.size))[-1]


def _closed(rel: BinaryRelation):
    return rel, transitive_closure(rel)


def closed_relation(obj, kind: str, n: int, bounds: ExpressionBounds):
    """Cached (BinaryRelation, Partition) for one relation at fixed bounds.

    kind: "L" | "A" | "Sn" | "alpha". n is ignored unless kind == "Sn". A and
    Sn are cached by their gate, A's being the whole carrier, so A, Sn:1 and
    every depth with an equal gate share one entry.
    """
    if kind in ("A", "Sn"):
        n = 1 if kind == "A" else n
        key, relation = ("Sn", _gate(obj, n, bounds)), partial(relation_Sn, obj, n, bounds)
    elif kind in ("L", "alpha"):
        key, relation = (kind,), partial(relation_L if kind == "L" else relation_alpha, obj, bounds)
    else:
        raise InternalInvariant(f"unknown relation kind {kind!r}")
    return _memo(obj, (*key, bounds.astuple()), lambda: _closed(relation()))


def sn_pair_levels(L: FiniteLieHyperalgebra, n: int, bounds: ExpressionBounds):
    """Cached per-level (unpermuted, permuted) pair lists for the depth-gated
    relation; level t lists t-summand sums, each sorted for determinism."""
    gate = _gate(L, n, bounds)
    return _memo(L, ("Sn-levels", gate, bounds.astuple()), lambda: combine_levels(
        summand_pair_family(L, bounds, gate), L.add_ops, bounds.t, _sums_commute(L, bounds.t)))


def relation_with_escalation(obj, kind: str, n: int = 1,
                             start: ExpressionBounds = DEFAULT_BOUNDS,
                             cap: ExpressionBounds = HARD_CAP,
                             oracle: Partition | None = None):
    """Escalate bounds until oracle match, stabilization, or the cap.

    Returns (Partition, RelationStatus). Asserts the documented invariants:
    rung partitions coarsen monotonically, and when an oracle is supplied
    every rung refines it.
    """
    if not start.within(cap):
        raise BoundsExceeded(
            f"start bounds {start.astuple()} exceed cap {cap.astuple()}"
        )
    validate_bounds(cap)
    prev = None
    unchanged = 0
    bounds = start
    while True:
        _, part = closed_relation(obj, kind, n, bounds)
        if oracle is not None:
            if part == oracle:
                return part, RelationStatus("exact-oracle-match", bounds)
            if not part.refines(oracle):
                raise InternalInvariant(
                    "engine partition does not refine the supplied oracle"
                )
        if prev is not None:
            if not prev.refines(part):
                raise InternalInvariant("escalation produced a non-coarsening partition")
            unchanged = unchanged + 1 if part == prev else 0
        if part.is_all_pairs() or unchanged >= 2:
            return part, RelationStatus("stabilized-heuristic", bounds)
        if bounds == cap:
            return part, RelationStatus("bound-limited", bounds)
        prev = part
        bounds = bounds.succ(cap)


def relation_json(partition: Partition, names, status: RelationStatus):
    return {
        "classes": partition.classes_as_names(names),
        "mode": status.mode,
        "bounds": list(status.bounds_used.astuple()),
    }
