"""Quotients by strongly regular partitions, classical structure checks,
and the linear oracle, linear_oracle_partition, read on the element tables
of an algebra that FiniteLieAlgebra.validate accepts over a standard field."""

from __future__ import annotations

from operator import or_

from .errors import (
    CharTwoGate,
    DegenerateField,
    InternalInvariant,
    NotAVectorSpace,
    NotLie,
    NotWellDefined,
)
from .gf import FiniteField, canonical_order, is_prime, trusted_field
from .laws import (
    associativity,
    commutativity,
    first_failure,
    homogeneity,
    jacobi,
    left_distributivity,
    on_generators,
    right_distributivity,
)
from .relations import ClassOfMask, Partition
from .sets import iter_bits
from .structures import FiniteHyperfield, FiniteLieHyperalgebra


def require_char_not_2(field: FiniteField):
    if field.characteristic == 2:
        raise CharTwoGate(
            "solvability results need characteristic != 2; "
            f"field of order {field.size} has characteristic 2"
        )


def _class_names(names, partition: Partition):
    return [names[(m & -m).bit_length() - 1] for m in partition.classes]


def _first_straddle(table, xs, ys, class_of):
    """First (x, y, a, b) in the pairwise scan of one class pair at which
    the classes of the cells seen so far number two, a < b the smallest;
    None when they never do."""
    seen = set()
    for x in xs:
        for y in ys:
            seen.update(class_of[v] for v in iter_bits(table[x][y]))
            if len(seen) > 1:
                a, b = sorted(seen)[:2]
                return x, y, a, b
    return None


def _collapse(tables, left: Partition, right: Partition):
    """Quotient tables of (op, table) pairs along class pairs.

    table[x][y] is the mask of x op y for x in the carrier of left and y in
    that of right. The union of a left class's rows gives, at each y, the
    class of right holding that cell, if any; a class pair's value is the
    one its right members all share. At the first left class with a class
    pair whose cells meet two classes, the pairwise scan of its class
    pairs (tables interleaved) names the NotWellDefined witness.
    """
    class_of_mask = ClassOfMask(right)
    firsts = [(m & -m).bit_length() - 1 for m in right.classes]
    rep = [firsts[c] for c in right.class_of]
    outs = [[] for _ in tables]
    for lm in left.classes:
        xs = list(iter_bits(lm))
        for (_, table), out in zip(tables, outs):
            union = table[xs[0]]
            for x in xs[1:]:
                union = list(map(or_, union, table[x]))
            classes = list(map(class_of_mask.__getitem__, union))
            if None in classes or list(map(classes.__getitem__, rep)) != classes:
                for ys in (list(iter_bits(m)) for m in right.classes):
                    for op, scanned in tables:
                        witness = _first_straddle(scanned, xs, ys, right.class_of)
                        if witness:
                            raise NotWellDefined(op, witness)
            out.append(list(map(classes.__getitem__, firsts)))
    return outs


def quotient_field(F: FiniteHyperfield, delta: Partition) -> FiniteField:
    """Collapse a hyperfield along an equivalence; classical field or error.

    Well-definedness demands each lifted operation land in one class; that
    holds exactly when delta is strongly regular. The one-class quotient is
    rejected as degenerate (zero would equal one).
    """
    if delta.size != F.size:
        raise InternalInvariant("partition size differs from field carrier")
    if delta.is_all_pairs():
        raise DegenerateField("quotient field would collapse to a single class")
    qadd, qmul = ((F.add_elt, F.mul_elt) if F.is_trivial and delta.is_diagonal()
                  else _collapse((("add", F.add), ("mul", F.mul)), delta, delta))
    fld = FiniteField(_class_names(F.names, delta), qadd, qmul)
    fld.validate()
    return fld


class FiniteLieAlgebra:
    """Classical finite-dimensional Lie algebra as element tables."""

    def __init__(self, field: FiniteField, names, add, smul, bracket):
        self.field = field
        self.names = list(names)
        self.size = len(self.names)
        self.add = [list(r) for r in add]
        self.smul = [list(r) for r in smul]
        self.bracket = [list(r) for r in bracket]
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.zero = self.smul[field.zero][0]

    def validate(self):
        """Classical Lie algebra axioms with first witness; raises NotLie.

        laws.on_generators decides the axioms of three vectors,
        add-commutative, scalar-dist and bracket-homogeneous; the others,
        and any undecided, run by blocks, as in FiniteField."""
        F, z, rng, sca = self.field, self.zero, range(self.size), range(self.field.size)
        add, smul, br = self.add, self.smul, self.bracket
        decided, scaled = on_generators(add, smul, br, z)
        for laws in (
            (("classical-zero-identity", ((x,) for x in rng if add[z][x] != x or add[x][z] != x)),
             ("classical-scalar-one", ((x,) for x in rng if smul[F.one][x] != x)),
             ("classical-scalar-zero", ((x,) for x in rng if smul[F.zero][x] != z)),
             ("classical-alternating", ((x,) for x in rng if br[x][x] != z)),
             ("classical-add-inverse", ((x,) for x in rng if z not in add[x]))),
            () if decided else (("classical-add-commutative", commutativity(add, rng)),),
            (("classical-scalar-associative", associativity(smul, F.mul, sca, rng)),
             ("classical-scalar-add", right_distributivity(smul, F.add, add, sca, rng))),
            () if scaled else (
                ("classical-scalar-dist", left_distributivity(smul, add, sca, rng)),
                ("classical-bracket-homogeneous", homogeneity(br, smul, sca, rng))),
            () if decided else (
                ("classical-add-associative", associativity(add, add, rng, rng, paced=True)),
                ("classical-bracket-additive-left",
                 right_distributivity(br, add, add, rng, rng, paced=True)),
                ("classical-bracket-additive-right", right_distributivity(
                    [list(c) for c in zip(*br)], add, add, rng, rng, paced=True)),
                ("classical-jacobi", jacobi(add, br, rng, z, paced=True))),
        ):
            failure = first_failure(*laws)
            if failure:
                raise NotLie(*failure)
        return self

    @property
    def dimension(self) -> int:
        return _dim_of_size(self.field.size, self.size)


def quotient_lie_algebra(L: FiniteLieHyperalgebra, rho: Partition) -> FiniteLieAlgebra:
    """Quotient of a Lie hyperalgebra by a carrier equivalence rho.

    The scalars are the field's own, modulo the diagonal (so the hyperfield
    must be trivial). Raises NotWellDefined with the offending operation and
    a witness (x, y, class1, class2) when a lifted operation straddles two
    classes, which by the congruence lemma happens exactly off the strongly
    regular relations. The result is validated classically. On the diagonal
    of a singleton-valued algebra, class i is element i.
    """
    F = L.field
    if rho.size != L.size:
        raise InternalInvariant("partition size differs from carrier size")
    delta = Partition.diagonal(F.size)
    qF = quotient_field(F, delta)
    if L.is_trivial and rho.is_diagonal():
        qadd, qsmul, qbr = L.add_elt, L.smul_elt, L.br_elt
    else:
        [qadd] = _collapse((("add", L.add),), rho, rho)
        [qsmul] = _collapse((("smul", L.smul),), delta, rho)
        [qbr] = _collapse((("bracket", L.bracket),), rho, rho)
    A = FiniteLieAlgebra(qF, _class_names(L.names, rho), qadd, qsmul, qbr)
    A.validate()
    return A


def derived_series(A: FiniteLieAlgebra):
    """Descending chain of derived subalgebras as element sets.

    Entry 0 is the whole carrier; entry i+1 spans all brackets of entry i.
    The terms shrink strictly until one is the zero subspace or repeats its
    predecessor, which is the last entry, so solvability and perfection are
    both readable from the chain.
    """
    add, smul, zero, q = A.add, A.smul, A.zero, A.field.size
    spanned = _span(add, smul, zero, q, range(A.size))
    if spanned is None:
        raise NotAVectorSpace(f"the carrier is not a vector space over the field of order {q}")
    elts, basis = spanned
    chain = [set(elts)]
    while True:
        elts, basis = _derived(add, smul, A.bracket, zero, q, basis)
        nxt = set(elts)
        if not nxt <= chain[-1]:
            raise InternalInvariant("derived series is not descending")
        stop = nxt == chain[-1] or len(nxt) == 1
        chain.append(nxt)
        if stop:
            return chain


def _dim_of_size(q: int, n: int) -> int:
    d = 0
    while q ** d < n:
        d += 1
    if q ** d != n:
        raise NotAVectorSpace(f"size {n} is not a power of the field order {q}")
    return d


def derived_dims(A: FiniteLieAlgebra):
    return [_dim_of_size(A.field.size, len(s)) for s in derived_series(A)]


def solvable_length(A: FiniteLieAlgebra):
    """Steps until the derived series vanishes; None when it never does.

    Gated to odd characteristic: the solvability results this feeds are
    stated away from characteristic 2.
    """
    require_char_not_2(A.field)
    chain = derived_series(A)
    for i, sub in enumerate(chain):
        if len(sub) == 1:
            return i
    return None


def is_perfect(A: FiniteLieAlgebra) -> bool:
    chain = derived_series(A)
    return chain[1] == chain[0]


def _span(add, smul, zero, q, gens):
    """(elements, basis): the span of gens from zero in coordinate order
    over the basis of the gens outside the span so far; None as soon as
    the list repeats an element, which no vector space does."""
    elts, seen, basis = [zero], {zero}, []
    for g in gens:
        if g not in seen:
            basis.append(g)
            elts = [add[s][smul[lam][g]] for lam in range(q) for s in elts]
            seen = set(elts)
            if len(seen) != len(elts):
                return None
    return elts, basis


def _derived(add, smul, br, zero, q, basis):
    """_span of the brackets of basis pairs: the derived subalgebra of the
    span of basis, for a bilinear alternating bracket."""
    return _span(add, smul, zero, q, (br[x][y] for i, x in enumerate(basis) for y in basis[i + 1:]))


def detect_trivial(L: FiniteLieHyperalgebra):
    """(field, basis) when L is a classical Lie algebra over its field, read
    on its element tables, else None.

    field is gf.trusted_field's, with any labels on a prime field and only
    GF(q)'s own tables otherwise; FiniteLieAlgebra.validate decides the rest.
    Its axioms hold exactly when, in the coordinates of basis, the span of
    the carrier from zero, L's tables are classical_tables of the field and
    the basis brackets, with an alternating bracket and Jacobi on basis triples.
    """
    field = trusted_field(L.field) if L.is_trivial else None
    if field is None:
        return None
    q = field.size
    if not is_prime(q) and canonical_order(field.add, field.mul) is None:
        return None
    try:
        FiniteLieAlgebra(field, L.names, L.add_elt, L.smul_elt, L.br_elt).validate()
    except NotLie:
        return None
    return field, _span(L.add_elt, L.smul_elt, L.zero, q, range(L.size))[1]


def linear_oracle_partition(L: FiniteLieHyperalgebra, n: int) -> Partition:
    """Cosets of the n-th derived subalgebra of L, read on L's own tables.

    The term is derived_series's at min(n, last), since the series is fixed
    after its last entry (n <= 0 reads the whole carrier), and x falls in the
    class of min(x + s for s in it). L must pass detect_trivial (NotLie
    otherwise) and have odd characteristic (CharTwoGate after that).
    """
    info = detect_trivial(L)
    if info is None:
        raise NotLie("trivial-presentation", None,
                     "linear oracle needs a single-valued algebra over a standard field")
    field, _ = info
    if field.size % 2 == 0:
        raise CharTwoGate("linear oracle is stated for odd characteristic")
    chain = derived_series(FiniteLieAlgebra(field, L.names, L.add_elt, L.smul_elt, L.br_elt))
    sub, add = chain[min(max(n, 0), len(chain) - 1)], L.add_elt
    return Partition.from_class_of([min(add[x][s] for s in sub) for x in range(L.size)])
