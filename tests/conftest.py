import random

import pytest

from reference_linear import mat_inverse, random_invertible
from hyperlie.generators import (
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    preset_structure,
    vector_name,
)
from hyperlie.gf import get_gf, int_to_digits
from hyperlie.quotients import FiniteField, FiniteLieAlgebra, quotient_lie_algebra
from hyperlie.relations import Partition
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra


@pytest.fixture(scope="session")
def ex1():
    return preset_structure("ex1")


@pytest.fixture(scope="session")
def ex2():
    return preset_structure("ex2")


@pytest.fixture(scope="session")
def ab1():
    return preset_structure("ab1")


@pytest.fixture(scope="session")
def ab5():
    return preset_structure("ab5")


@pytest.fixture(scope="session")
def m1():
    return gen_quotient_hyperfield(7, [1, 2, 4])


@pytest.fixture(scope="session")
def m2():
    return gen_quotient_hyperfield(7, [1, 6])


@pytest.fixture(scope="session")
def m3():
    return gen_quotient_hyperfield(5, [1, 4])


@pytest.fixture(scope="session")
def m4():
    return gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])


def _self_module(F):
    """Hyperfield viewed as a Lie hyperalgebra over itself with zero bracket."""
    n = F.size
    zero_row = [[1 << F.zero] * n for _ in range(n)]
    return FiniteLieHyperalgebra(
        field=F,
        names=list(F.names),
        add=[list(row) for row in F.add],
        smul=[list(row) for row in F.mul],
        bracket=zero_row,
    )


@pytest.fixture(scope="session")
def m1_module(m1):
    return _self_module(m1)


@pytest.fixture(scope="session")
def m2_module(m2):
    return _self_module(m2)


@pytest.fixture(scope="session")
def m3_module(m3):
    return _self_module(m3)


def _conjugated(q, dim, constants, seed):
    """Structure constants pushed through a random basis change.

    Keeps the isomorphism class while scrambling the table, so oracle
    comparisons cannot ride on a special basis.
    """
    gf = get_gf(q)
    rng = random.Random(seed)
    P = random_invertible(gf, dim, rng)
    Pinv = mat_inverse(gf, P)
    from hyperlie.generators import constants_table

    C = constants_table(gf, dim, constants)
    newC = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            vec = [0] * dim
            for a in range(dim):
                for b in range(dim):
                    coef = gf.mul[P[i][a]][P[j][b]]
                    if coef == 0:
                        continue
                    base = C[a][b]
                    for k in range(dim):
                        term = gf.mul[coef][base[k]]
                        for l in range(dim):
                            vec[l] = gf.add[vec[l]][gf.mul[term][Pinv[k][l]]]
            if any(vec):
                newC[(i, j)] = tuple(vec)
    return gen_trivial_from_lie(q, dim, newC)


_RANDOM_SPECS = [
    # (q, dim, constants, seed): base algebras conjugated by random bases
    (5, 2, {}, 11),
    (3, 2, {(0, 1): (0, 1)}, 23),
    (5, 3, {(0, 1): (0, 0, 1)}, 37),
    (3, 3, {(0, 1): (0, 0, 1), (0, 2): (2, 0, 0), (1, 2): (0, 1, 0)}, 41),
    (3, 4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)}, 53),
]


@pytest.fixture(scope="session")
def randomized_trivial():
    return [_conjugated(*spec) for spec in _RANDOM_SPECS]


@pytest.fixture(scope="session")
def fixture_files(tmp_path_factory, ex1, ex2, ab1, m1):
    from hyperlie.interchange import serialize_structure

    root = tmp_path_factory.mktemp("structures")
    paths = {}
    for name, obj in (("ex1", ex1), ("ex2", ex2), ("ab1", ab1), ("m1", m1)):
        p = root / f"{name}.json"
        p.write_text(serialize_structure(obj), encoding="utf-8")
        paths[name] = str(p)
    return paths


def _bilinear_algebra(q, dim, rng):
    """Classical tables of GF(q)^dim with a random alternating bilinear
    bracket, which need not satisfy Jacobi."""
    gf = get_gf(q)
    A = quotient_lie_algebra(gen_trivial_from_lie(q, dim, {}),
                             Partition.diagonal(q ** dim))
    C = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            C[i][j] = [rng.randrange(q) for _ in range(dim)]
            C[j][i] = [gf.neg(c) for c in C[i][j]]
    vecs = [int_to_digits(v, q, dim) for v in range(A.size)]

    def br(u, v):
        acc = [0] * dim
        for i in range(dim):
            for j in range(dim):
                coef = gf.mul[u[i]][v[j]]
                for t in range(dim):
                    acc[t] = gf.add[acc[t]][gf.mul[coef][C[i][j][t]]]
        return sum(c * q ** t for t, c in enumerate(acc))

    bracket = [[br(u, v) for v in vecs] for u in vecs]
    return FiniteLieAlgebra(A.field, A.names, A.add, A.smul, bracket)


def _steiner_loop():
    """Zero-bracket 'algebra' over GF(2) whose addition is the Steiner loop
    of the affine plane over GF(3): commutative, x + x = 0, not associative."""
    field = FiniteField.from_trivial_hyperfield(gen_trivial_field(2))
    n = 10

    def point_sum(p, q):
        if p == 0 or q == 0:
            return p + q
        if p == q:
            return 0
        (a, b), (c, d) = divmod(p - 1, 3), divmod(q - 1, 3)
        return 1 + 3 * (-(a + c) % 3) + (-(b + d) % 3)

    add = [[point_sum(p, q) for q in range(n)] for p in range(n)]
    return FiniteLieAlgebra(field, [str(i) for i in range(n)], add,
                            [[0] * n, list(range(n))], [[0] * n for _ in range(n)])


def _singleton_lift(A):
    """Element tables of A (and of its field) as singleton-valued masks."""
    def masks(table):
        return [[1 << v for v in row] for row in table]

    F = A.field
    return FiniteLieHyperalgebra(FiniteHyperfield(F.names, masks(F.add), masks(F.mul)),
                                 A.names, masks(A.add), masks(A.smul), masks(A.bracket))


def _relabelled(L, fperm, cperm):
    """L written out again with field element i standing for fperm[i] and
    carrier element i for cperm[i] of L; singleton-valued L only."""
    F = L.field
    finv, cinv = ({v: i for i, v in enumerate(p)} for p in (fperm, cperm))

    def masks(table, rows, cols, inv):
        return [[1 << inv[table[r][c]] for c in cols] for r in rows]

    field = FiniteHyperfield([F.names[i] for i in fperm], masks(F.add_elt, fperm, fperm, finv),
                             masks(F.mul_elt, fperm, fperm, finv))
    return FiniteLieHyperalgebra(field, [L.names[x] for x in cperm],
                                 masks(L.add_elt, cperm, cperm, cinv),
                                 masks(L.smul_elt, fperm, cperm, cinv),
                                 masks(L.br_elt, cperm, cperm, cinv))


def _gf_line_document(q):
    """The file that gen trivial --q q --dim 1 writes, built from GF(q)'s
    tables, because the generator's own checks take seconds near the cap."""
    gf = get_gf(q)
    names = [vector_name([x]) for x in range(q)]
    return {
        "kind": "lie_hyperalgebra", "elements": names, "zero": "0",
        "add": [[[names[x]] for x in row] for row in gf.add],
        "bracket": [[["0"]] * q] * q, "field": f"trivial:F{q}",
        "scalar": [[[names[x]] for x in row] for row in gf.mul]}
