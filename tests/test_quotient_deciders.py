"""The quotient deciders against the scans that name their witnesses.

FiniteLieAlgebra.validate decides its three-vector axioms on additive
generators, strong regularity unions the table lines of each class, and
collapse unions the rows of each class; each runs its exhaustive or
pairwise scan only on a failure. Each must agree with the scan alone (for
collapse, the per-element-pair scan kept here): the same verdict, and the
same witness or error text.

validate runs on classical algebras over GF(2), GF(3), GF(4), GF(5), GF(8)
and GF(9) (over the last three the additive generators outnumber a basis)
with one to three corruptions. Single cells are mostly caught by the
one- and two-vector axioms. Sums and brackets changed along whole scalar
lines or planes, bracket rows or columns changed by a linear map (so that
additivity fails on one side only), a Steiner loop and random alternating
bilinear brackets reach associativity, additivity and Jacobi. Strong
regularity and collapse run on random partitions, cosets of cyclic
additive subgroups and relation closures (half of them with two classes
merged) of hyperfields, their self-modules, orbit quotients, trivial
algebras and unchecked random tables.

FiniteField.validate runs one loop per law and names the least first
witness of each block; on random tables with identities it must name the
failure that the one-loop scan kept here meets first, ties included. The
laws of a block run row by row in step, so on GF(243) with one changed
product a law that holds stops at the row of the failing law's witness.
"""

import functools
import random
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import _bilinear_algebra, _self_module, _steiner_loop
from hyperlie import gf, laws, quotients
from hyperlie.errors import NotAField, NotLie, NotWellDefined
from hyperlie.generators import (
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_s3,
)
from hyperlie.gf import FiniteField, int_to_digits
from hyperlie.quotients import FiniteLieAlgebra, _collapse, quotient_lie_algebra
from hyperlie.relations import (
    DEFAULT_BOUNDS,
    Partition,
    _conditions,
    _pairwise_witness,
    closed_relation,
    is_strongly_regular,
)
from hyperlie.sets import iter_bits
from hyperlie.structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    check_lie_hyperalgebra,
)


def _classical(q, dim, constants=None):
    L = gen_trivial_from_lie(q, dim, constants or {})
    return quotient_lie_algebra(L, Partition.diagonal(L.size))


@functools.cache
def group_bases():
    """The classical bases whose + is a group: all but the Steiner loop."""
    return (
        _classical(2, 3),
        _classical(2, 3, {(0, 1): (0, 0, 1)}),
        _classical(3, 1),
        _classical(3, 2, {(0, 1): (0, 1)}),
        _classical(3, 3, {(0, 1): (0, 0, 1), (0, 2): (2, 0, 0), (1, 2): (0, 1, 0)}),
        _bilinear_algebra(3, 3, random.Random(1)),
        _bilinear_algebra(3, 3, random.Random(2)),
        _classical(4, 2, {(0, 1): (0, 1)}),
        _classical(5, 1),
        _classical(8, 1),
        _classical(9, 1),
    )


@functools.cache
def classical_bases():
    return group_bases()[:2] + (_steiner_loop(),) + group_bases()[2:]


@st.composite
def corrupted_algebras(draw, keep_group=False):
    """One to three corruptions of a classical base; with keep_group, +
    stays a commutative group (no sum lines, no cells of add)."""
    A = draw(st.sampled_from(group_bases() if keep_group else classical_bases()))
    n, F = A.size, A.field
    tables = {"add": [list(r) for r in A.add], "smul": [list(r) for r in A.smul],
              "bracket": [list(r) for r in A.bracket]}
    element = st.integers(0, n - 1)
    scale, q = A.smul, F.size
    dim = next((d for d in range(1, 8) if q ** d == n), 0)
    kinds = ["cell"] + ["sum line"] * (not keep_group) + ["bracket line", "bracket plane"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds + ["linear rows", "linear columns"] * (dim >= 2)))
        x, y, w = draw(element), draw(element), draw(element)
        if kind == "cell":
            name = draw(st.sampled_from([t for t in sorted(tables)
                                         if not (keep_group and t == "add")]))
            rows = tables[name]
            rows[draw(st.integers(0, len(rows) - 1))][y] = w
            continue
        if kind.startswith("linear"):
            # [lam e_j, c] (or [c, lam e_j]) gains lam c_i w for i != j:
            # still linear in c, homogeneous and alternating, but not
            # additive in the other operand
            j = x % dim
            i = (j + 1 + y % (dim - 1)) % dim
            br = tables["bracket"]
            for lam in range(1, q):
                e = scale[lam][q ** j]
                for c in range(n):
                    r, k = (e, c) if kind == "linear rows" else (c, e)
                    br[r][k] = A.add[br[r][k]][scale[F.mul[lam][int_to_digits(c, q, dim)[i]]][w]]
            continue
        if x == y:
            # on the diagonal these only break alternation or inverses
            y = (x + 1) % n
        # the other kinds change whole scalar lines or planes consistently,
        # so that the axioms of one or two vectors tend to hold and only
        # associativity, additivity and Jacobi can notice
        for lam in range(1, F.size):
            u, v = scale[lam][x], scale[lam][y]
            if kind == "sum line":
                tables["add"][u][v] = tables["add"][v][u] = scale[lam][w]
            elif kind == "bracket line":
                tables["bracket"][u][y] = scale[lam][w]
            else:
                for mu in range(1, F.size):
                    lm, v = F.mul[lam][mu], scale[mu][y]
                    tables["bracket"][u][v] = scale[lm][w]
                    tables["bracket"][v][u] = scale[F.neg(lm)][w]
    return FiniteLieAlgebra(F, A.names, tables["add"], tables["smul"], tables["bracket"])


def _validate_outcome(A):
    try:
        A.validate()
    except NotLie as e:
        return str(e)
    return "ok"


@settings(max_examples=150, deadline=None)
@given(corrupted_algebras())
def test_validate_agrees_with_exhaustive_scan(A):
    with mock.patch.object(quotients, "on_generators", return_value=(False, False)):
        exhaustive = _validate_outcome(A)
    assert _validate_outcome(A) == exhaustive


def test_generator_steps_are_built_once_per_check(monkeypatch):
    # on_generators builds one spanning tree per validate and per
    # check_lie_hyperalgebra
    L = gen_trivial_from_lie(3, 2, {(0, 1): (0, 1)})
    runs = []
    real = laws.spanning_tree
    monkeypatch.setattr(laws, "spanning_tree", lambda *args: runs.append(1) or real(*args))
    quotient_lie_algebra(L, Partition.diagonal(L.size))
    assert len(runs) == 1
    assert check_lie_hyperalgebra(L).ok
    assert len(runs) == 2


def test_generators_outnumber_a_basis_over_prime_powers():
    counts = {(A.field.size, A.size): len(laws.spanning_tree(A.add, A.zero)[0])
              for A in classical_bases()}
    assert counts[(4, 16)] == 4
    assert counts[(8, 8)] == 3
    assert counts[(9, 9)] == 2
    assert counts[(3, 27)] == 3


def test_steiner_loop_fails_associativity():
    # every axiom of one or two vectors holds, so the generators decide
    assert _validate_outcome(_steiner_loop()).startswith(
        "axiom classical-add-associative fails")


def test_noncommutative_group_fails_commutativity():
    # S3 under composition with a zero bracket: associativity, additivity
    # and Jacobi hold, so only the decider's premise that + commutes keeps
    # the commutativity loop, which names the first witness
    add, names = make_s3()
    n = len(add)
    A = FiniteLieAlgebra(FiniteField.from_trivial_hyperfield(gen_trivial_field(2)), names, add,
                         [[0] * n, list(range(n))], [[0] * n for _ in range(n)])
    assert _validate_outcome(A) == str(NotLie("classical-add-commutative", (1, 2)))


def _field_scan(F):
    """FiniteField.validate's verdict by one loop per block that checks its
    laws in turn at each instance: the first failure it meets, or "ok"."""
    rng, add, mul, zero = range(F.size), F.add, F.mul, F.zero
    if F.size < 2 or zero is None or F.one is None or zero == F.one:
        return "identities"
    for a, b in product(rng, rng):
        for name, t in (("add-commutative", add), ("mul-commutative", mul)):
            if t[a][b] != t[b][a]:
                return name, (a, b)
    for a, b, c in product(rng, rng, rng):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return "add-associative", (a, b, c)
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return "mul-associative", (a, b, c)
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return "distributive", (a, b, c)
    for a in rng:
        if all(add[a][b] != zero for b in rng):
            return "add-inverse", (a,)
        if a != zero and mul[a][zero] != zero:
            return "zero-absorbing", (a,)
        if a != zero and all(b == zero or mul[a][b] != F.one for b in rng):
            return "mul-inverse", (a,)
    return "ok"


def _random_field_tables(rng, n):
    """Tables on n elements with 0 an identity of + and 1 one of · on the
    nonzeros, each random cell mirrored, and now and then one unmirrored."""
    add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for t in add, mul:
        for a in range(n):
            for b in range(a):
                t[a][b] = t[b][a]
    for x in range(n):
        add[0][x] = add[x][0] = x
    for x in range(1, n):
        mul[1][x] = mul[x][1] = x
    if rng.random() < 0.2:
        t = rng.choice((add, mul))
        t[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return add, mul


def test_field_validate_names_the_first_failure_of_each_block():
    # the field's laws run as one loop each; per block, the least first
    # witness wins, the law listed first on a tie, as in _field_scan
    rng = random.Random(25)
    reached = set()
    for _ in range(600):
        n = rng.randint(2, 4)
        F = FiniteField([str(x) for x in range(n)], *_random_field_tables(rng, n))
        try:
            F.validate()
            got = "ok"
        except NotAField as e:
            got = e.args if e.args[1] is not None else "identities"
        assert got == _field_scan(F), (F.add, F.mul)
        reached.add(got if got == "ok" else got[0])
    assert reached >= {"ok", "add-commutative", "mul-commutative", "add-associative",
                       "mul-associative", "distributive"}


def test_field_validate_tie_goes_to_the_law_listed_first():
    # both associativities fail first at (2, 3, 3), distributivity later at
    # (3, 1, 1); add-associative is listed first, so it is named
    add = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1], [3, 1, 1, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 1]]
    def first(t):
        return next(w for w in product(range(4), repeat=3)
                    if t[t[w[0]][w[1]]][w[2]] != t[w[0]][t[w[1]][w[2]]])

    assert first(add) == first(mul) == (2, 3, 3)
    F = FiniteField("0123", add, mul)
    assert _field_scan(F) == ("add-associative", (2, 3, 3))
    try:
        F.validate()
    except NotAField as e:
        assert e.args == ("add-associative", (2, 3, 3))
    else:
        raise AssertionError("validate accepted a non-associative table")


def test_field_rejection_stops_the_holding_laws_at_its_witness(monkeypatch):
    # GF(243) with one symmetric pair of product cells changed: its first
    # failure is mul-associative in row 2, and add-associative, which holds
    # and is listed first, stops after the same three rows instead of
    # scanning all 243
    F = gen_trivial_field(243)
    mul = [list(r) for r in F.mul_elt]
    mul[100][150] = mul[150][100] = (mul[100][150] + 1) % 243 or 2
    field = FiniteField(F.names, F.add_elt, mul)
    expected = _field_scan(field)
    assert expected == ("mul-associative", (2, 100, 150))
    rows = {}

    def counted(f, g, A, C, paced=False):
        name = "add" if f is field.add else "mul"
        rows[name] = 0
        for witness in laws.associativity(f, g, A, C, paced):
            rows[name] += witness is None
            yield witness
        rows[name] = "exhausted"

    monkeypatch.setattr(gf, "associativity", counted)
    try:
        field.validate()
    except NotAField as e:
        assert e.args == expected
    else:
        raise AssertionError("validate accepted a non-associative table")
    assert rows == {"add": 3, "mul": 2}


# ---------------------------------------------------------------------------
# strong regularity and collapse


@functools.cache
def lawful_algebras():
    return (
        gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
        gen_orbit_quotient(5, 2, {(0, 1): (0, 1)}, [1, 4]),
        _self_module(gen_quotient_hyperfield(7, [1, 2, 4])),
        _self_module(gen_quotient_hyperfield(7, [1, 6])),
        _self_module(gen_quotient_hyperfield(5, [1, 4])),
        gen_trivial_from_lie(3, 2, {(0, 1): (0, 1)}),
        gen_trivial_from_lie(2, 3, {(0, 1): (0, 0, 1)}),
        gen_trivial_from_lie(4, 1, {}),
    )


@st.composite
def unchecked_algebras(draw):
    """Random tables of the right shapes from a drawn seed, mostly
    singleton cells; no axiom is asked to hold."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k, n = rng.randint(2, 3), rng.randint(2, 5)

    def table(rows, cols, size):
        return [[1 << rng.randrange(size) if rng.random() < 0.7
                 else rng.randint(1, (1 << size) - 1) for _ in range(cols)]
                for _ in range(rows)]

    F = FiniteHyperfield([f"s{i}" for i in range(k)], table(k, k, k), table(k, k, k))
    return FiniteLieHyperalgebra(F, [f"x{i}" for i in range(n)],
                                 table(n, n, n), table(k, n, n), table(n, n, n))


def _cyclic_cosets(structure, v):
    """Cosets of the additive subgroup generated by v (single-valued sums)."""
    add = structure.add_elt
    sub, s = {structure.zero}, v
    while s not in sub:
        sub.add(s)
        s = add[s][v]
    return Partition(list({sum(1 << add[x][t] for t in sub) for x in range(structure.size)}))


@st.composite
def partitions(draw, structure, lawful):
    """Random labels, cosets of a cyclic additive subgroup or a relation
    closure, with two classes merged half of the time."""
    kinds = ["labels"]
    if lawful:
        kinds.append("closure")
        if structure.add_elt is not None:
            kinds.append("cosets")
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = structure.size
    if kind == "labels":
        labels = rng.randint(1, n)
        part = Partition.from_class_of([rng.randrange(labels) for _ in range(n)])
    elif kind == "cosets":
        part = _cyclic_cosets(structure, rng.randrange(n))
    elif isinstance(structure, FiniteHyperfield):
        part = closed_relation(structure, "alpha", 0, DEFAULT_BOUNDS)[1]
    else:
        part = closed_relation(structure, rng.choice("LA"), 0, DEFAULT_BOUNDS)[1]
    if part.num_classes > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(part.num_classes), 2)
        merged = [m for k, m in enumerate(part.classes) if k not in (i, j)]
        part = Partition(merged + [part.classes[i] | part.classes[j]])
    return part


@st.composite
def algebra_cases(draw):
    """(algebra, carrier partition, scalar partition)."""
    lawful = draw(st.booleans())
    L = draw(st.sampled_from(lawful_algebras()) if lawful else unchecked_algebras())
    return L, draw(partitions(L, lawful)), draw(partitions(L.field, lawful))


@st.composite
def field_cases(draw):
    lawful = draw(st.booleans())
    F = (draw(st.sampled_from(lawful_algebras())) if lawful else draw(unchecked_algebras())).field
    return F, draw(partitions(F, lawful))


@settings(max_examples=200, deadline=None)
@given(algebra_cases(), field_cases())
def test_strong_regularity_agrees_with_pairwise_scan(case, field_case):
    L, rho, _ = case
    witness = _pairwise_witness(rho, _conditions(L), rho.classes)
    assert is_strongly_regular(L, rho) == (witness is None, witness)
    F, delta = field_case
    witness = _pairwise_witness(delta, _conditions(F), delta.classes)
    assert is_strongly_regular(F, delta) == (witness is None, witness)


def _collapse_pairwise(tables, left, right):
    """_collapse by accumulating the classes of every element pair, as the
    quotients did before they unioned rows per class."""
    cof = right.class_of
    outs = [[[0] * right.num_classes for _ in left.classes] for _ in tables]
    for ci, lm in enumerate(left.classes):
        for cj, rm in enumerate(right.classes):
            for (op, table), out in zip(tables, outs):
                seen = set()
                for x in iter_bits(lm):
                    for y in iter_bits(rm):
                        seen |= {cof[v] for v in iter_bits(table[x][y])}
                        if len(seen) > 1:
                            a, b = sorted(seen)[:2]
                            raise NotWellDefined(op, (x, y, a, b))
                out[ci][cj] = seen.pop()
    return outs


def _collapse_outcome(collapse, tables, left, right):
    try:
        return collapse(tables, left, right)
    except NotWellDefined as e:
        return str(e)


@settings(max_examples=120, deadline=None)
@given(algebra_cases())
def test_collapse_agrees_with_pairwise_scan(case):
    L, rho, delta = case
    F = L.field
    for tables, left, right in (
        ((("add", F.add), ("mul", F.mul)), delta, delta),
        ((("add", L.add),), rho, rho),
        ((("smul", L.smul),), delta, rho),
        ((("bracket", L.bracket),), rho, rho),
    ):
        assert (_collapse_outcome(_collapse, tables, left, right)
                == _collapse_outcome(_collapse_pairwise, tables, left, right))
