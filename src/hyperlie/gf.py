"""Arithmetic and linear algebra over GF(q) for prime powers q.

Elements are ints 0..q-1 read as base-p digit vectors, i.e. coefficients of
a polynomial over F_p reduced modulo a fixed irreducible polynomial of
degree k (q = p^k). Tables are precomputed; q stays small here (<= 256).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import HyperlieError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, p prime, or raise."""
    if q < 2:
        raise HyperlieError(f"field order must be >= 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            if not is_prime(p):
                break
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise HyperlieError(f"{q} is not a prime power")
            return p, k
    raise HyperlieError(f"{q} is not a prime power")


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, mod, p):
    # a, mod little-endian coefficient lists over F_p; mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = _poly_trim(a)
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return _poly_trim(a)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _monic_polys(p, deg):
    # all monic polynomials of exact degree deg, little-endian
    def rec(i, cur):
        if i == deg:
            yield cur + [1]
            return
        for c in range(p):
            yield from rec(i + 1, cur + [c])

    yield from rec(0, [])


def _is_irreducible(poly, p):
    deg = len(poly) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _poly_mod(poly, cand, p):
                return False
    return True


def _find_irreducible(p, k):
    for poly in _monic_polys(p, k):
        if _is_irreducible(poly, p):
            return poly
    raise HyperlieError(f"no irreducible polynomial of degree {k} over F_{p}")


def int_to_digits(x: int, p: int, k: int):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def digits_to_int(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


class GF:
    """GF(q) with full add/mul tables and neg/inv arrays."""

    def __init__(self, q: int):
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.characteristic = p
        if k == 1:
            self.modulus = None
            self.add = [[(x + y) % p for y in range(q)] for x in range(q)]
            self.mul = [[(x * y) % p for y in range(q)] for x in range(q)]
        else:
            mod = _find_irreducible(p, k)
            self.modulus = mod
            digs = [int_to_digits(x, p, k) for x in range(q)]
            self.add = [
                [digits_to_int([(a + b) % p for a, b in zip(digs[x], digs[y])], p)
                 for y in range(q)]
                for x in range(q)
            ]
            self.mul = []
            for x in range(q):
                row = []
                for y in range(q):
                    prod = _poly_mod(_poly_mul(_poly_trim(digs[x]), _poly_trim(digs[y]), p), mod, p)
                    prod = prod + [0] * (k - len(prod))
                    row.append(digits_to_int(prod, p))
                self.mul.append(row)
        self.neg = [0] * q
        for x in range(q):
            for y in range(q):
                if self.add[x][y] == 0:
                    self.neg[x] = y
                    break
        self.inv = [None] * q
        for x in range(1, q):
            for y in range(1, q):
                if self.mul[x][y] == 1:
                    self.inv[x] = y
                    break
            assert self.inv[x] is not None

    def sub(self, x: int, y: int) -> int:
        return self.add[x][self.neg[y]]


@lru_cache(maxsize=None)
def get_gf(q: int) -> GF:
    return GF(q)


def row_reduce(gf: GF, rows):
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
        inv = gf.inv[mat[r][c]]
        mat[r] = [gf.mul[inv][v] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [gf.sub(v, gf.mul[f][w]) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(gf: GF, rows) -> int:
    return len(row_reduce(gf, rows)[0])


def span_indices(gf: GF, rows, dim: int, q: int):
    """All vectors in the span of rows, as base-q packed indices.

    Vector (v_0..v_{d-1}) packs to sum v_i * q^i. Returns a sorted list.
    """
    basis, _ = row_reduce(gf, rows)
    vecs = {tuple([0] * dim)}
    for b in basis:
        new = set()
        for lam in range(1, q):
            scaled = tuple(gf.mul[lam][x] for x in b)
            for v in vecs:
                new.add(tuple(gf.add[a][b2] for a, b2 in zip(v, scaled)))
        vecs |= new
    out = []
    for v in vecs:
        idx = 0
        for d in reversed(v):
            idx = idx * q + d
        out.append(idx)
    out.sort()
    return out


def random_invertible(gf: GF, n: int, rng):
    """Random invertible n x n matrix over gf, rejection sampled."""
    while True:
        m = [[rng.randrange(gf.q) for _ in range(n)] for _ in range(n)]
        if rank(gf, m) == n:
            return m


def mat_inverse(gf: GF, m):
    n = len(m)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m)]
    red, piv = row_reduce(gf, aug)
    if piv[:n] != list(range(n)):
        raise HyperlieError("matrix not invertible")
    return [r[n:] for r in red]
