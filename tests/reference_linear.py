"""The linear oracle in GF(q)^d coordinates, kept as a test oracle.

Brackets are computed in coordinates from the structure constants
(bracket_coords), never from a packed table, and derived subspaces are
found by row reduction over GF(q). hyperlie.quotients reads the same
oracle on an algebra's own element tables (linear_oracle_partition), and
hyperlie.generators checks Jacobi on its packed tables; the tests compare
each with this module, which imports neither.
"""

from itertools import product

from hyperlie.errors import CharTwoGate, HyperlieError, NotLie
from hyperlie.gf import constants_table, digits_to_int, get_gf, int_to_digits
from hyperlie.relations import Partition


def bracket_coords(gf, C, u, v):
    """[u, v] in coordinates, from the structure-constant table C."""
    acc = [0] * len(u)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            coef = gf.mul[ui][vj]
            for t, c in enumerate(C[i][j]):
                if c:
                    acc[t] = gf.add[acc[t]][gf.mul[coef][c]]
    return tuple(acc)


def check_constants_lie(gf, dim: int, C) -> None:
    """Jacobi on structure constants over GF(q); raises NotLie with witness."""
    basis = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]
    for i, j, k in product(range(dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        acc = [0] * dim
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            term = bracket_coords(gf, C, a, bracket_coords(gf, C, b, c))
            acc = [gf.add[s][t] for s, t in zip(acc, term)]
        if any(acc):
            raise NotLie("jacobi-constants", (i, j, k), "Jacobi fails on basis triple")


def _inverse(gf, a):
    return next(b for b in range(gf.size) if gf.mul[a][b] == gf.one)


def row_reduce(gf, rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot column list)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _inverse(gf, mat[r][c])
        mat[r] = [gf.mul[inv][v] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [gf.add[v][gf.neg(gf.mul[f][w])] for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def span_indices(gf, rows, dim: int):
    """All vectors in the span of rows, as sorted packed indices."""
    basis, _ = row_reduce(gf, rows)
    vecs = {tuple([0] * dim)}
    for b in basis:
        new = set()
        for lam in range(1, gf.size):
            scaled = tuple(gf.mul[lam][x] for x in b)
            for v in vecs:
                new.add(tuple(gf.add[a][b2] for a, b2 in zip(v, scaled)))
        vecs |= new
    return sorted(digits_to_int(v, gf.size) for v in vecs)


def random_invertible(gf, n: int, rng):
    """Random invertible n x n matrix over gf, rejection sampled."""
    while True:
        m = [[rng.randrange(gf.size) for _ in range(n)] for _ in range(n)]
        if len(row_reduce(gf, m)[0]) == n:
            return m


def mat_inverse(gf, m):
    n = len(m)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m)]
    red, piv = row_reduce(gf, aug)
    if piv[:n] != list(range(n)):
        raise HyperlieError("matrix not invertible")
    return [r[n:] for r in red]


def _constants_table(gf, dim, constants):
    """The full table of constants given as the generator's dict or as a table."""
    return constants_table(gf, dim, constants) if isinstance(constants, dict) else constants


def _derived_subspace_basis(gf, d, table, n):
    basis = [tuple(1 if t == i else 0 for t in range(d)) for i in range(d)]
    for _ in range(n):
        brackets = [
            bracket_coords(gf, table, u, v)
            for ui, u in enumerate(basis)
            for v in basis[ui + 1:]
        ]
        basis, _ = row_reduce(gf, brackets)
        if not basis:
            return []
    return basis


def linear_oracle_Sn(q: int, dim: int, constants, n: int) -> Partition:
    """Cosets of the n-th derived subspace of the classical algebra.

    constants is either the upper-triangular dict accepted by the trivial
    generator or a full d x d table of coefficient tuples. Carrier index of
    a coordinate vector is its little-endian base-q packing. Odd order only.
    """
    if q % 2 == 0:
        raise CharTwoGate("linear oracle is stated for odd characteristic")
    gf = get_gf(q)
    table = _constants_table(gf, dim, constants)
    check_constants_lie(gf, dim, table)
    sub = span_indices(gf, _derived_subspace_basis(gf, dim, table, n), dim)
    sub_digits = [int_to_digits(w, q, dim) for w in sub]
    return Partition.from_class_of([
        min(digits_to_int([gf.add[vd[t]][w[t]] for t in range(dim)], q) for w in sub_digits)
        for vd in (int_to_digits(v, q, dim) for v in range(q ** dim))
    ])


def classical_dims_chain(q: int, dim: int, constants, depth: int):
    """Dimensions of the classical derived series from structure constants."""
    gf = get_gf(q)
    table = _constants_table(gf, dim, constants)
    return [dim] + [len(_derived_subspace_basis(gf, dim, table, n)) for n in range(1, depth + 1)]
