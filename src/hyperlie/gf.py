"""GF(q) and classical Lie algebras over it, given by structure constants.

This module is the one home of that arithmetic:

- FiniteField, a field given by element-valued tables. get_gf(q) returns
  the canonical GF(q): element x is the polynomial over F_p whose base-p
  digits are those of x, taken modulo f, the first monic irreducible of
  degree k (q = p^k) in _monic_polys order, q <= 256. Its tables are
  classical_tables over GF(p) with basis products t^(i+j) mod f.
  trusted_field reads a hyperfield as one.
- The base-q packing of coordinate vectors, int_to_digits and
  digits_to_int: the vector (v_0, ..., v_{d-1}) has index sum v_i q^i, so
  basis vector 0 is the lowest digit. Every carrier built from GF(q)^d is
  in this order.
- Structure constants: normalize_constants and constants_table, the full
  antisymmetric table C[i][j] = [e_i, e_j].
- classical_tables, the one builder of the add, scalar and bracket tables
  of F^d, and so the package's one structure-constant bracket.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import HyperlieError, MalformedTable, NotAField
from .laws import associativity, commutativity, first_failure, identity, left_distributivity


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
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least factor is prime
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise HyperlieError(f"{q} is not a prime power")
    return p, k


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


def _monic_polys(p, deg):
    # all monic polynomials of exact degree deg, little-endian, lowest
    # coefficient varying slowest
    return (list(low) + [1] for low in product(range(p), repeat=deg))


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


class FiniteField:
    """Classical finite field given by element-valued Cayley tables.

    neg and validate read the negatives from a list built once from the
    tables. The tables are not assumed to be a field until
    validate() says so: neg raises NotAField where no negative exists.
    """

    def __init__(self, names, add, mul):
        self.names = list(names)
        self.size = len(self.names)
        self.add = [list(r) for r in add]
        self.mul = [list(r) for r in mul]
        self.index = {nm: i for i, nm in enumerate(self.names)}
        rng = range(self.size)
        self.zero = identity(self.add, rng, rng)
        self.one = identity(self.mul, [x for x in rng if x != self.zero], rng)
        self._neg = [next((b for b in rng if self.add[a][b] == self.zero), None) for a in rng]

    @classmethod
    def from_trivial_hyperfield(cls, F) -> "FiniteField":
        if not F.is_trivial:
            raise NotAField("single-valued", None, "hyperfield tables are multivalued")
        return cls(F.names, F.add_elt, F.mul_elt)

    def validate(self):
        """Field axioms with first witness, by blocks; raises NotAField."""
        rng, add, mul, zero = range(self.size), self.add, self.mul, self.zero
        if self.size < 2 or zero is None or self.one is None or zero == self.one:
            raise NotAField("identities", None, "need distinct zero and one")
        for laws in (
            (("add-commutative", commutativity(add, rng)),
             ("mul-commutative", commutativity(mul, rng))),
            (("add-associative", associativity(add, add, rng, rng, paced=True)),
             ("mul-associative", associativity(mul, mul, rng, rng, paced=True)),
             ("distributive", left_distributivity(mul, add, rng, rng, paced=True))),
            (("add-inverse", ((a,) for a in rng if self._neg[a] is None)),
             ("zero-absorbing", ((a,) for a in rng if a != zero and mul[a][zero] != zero)),
             ("mul-inverse", ((a,) for a in rng if a != zero and self.one not in mul[a]))),
        ):
            failure = first_failure(*laws)
            if failure:
                raise NotAField(*failure)
        return self

    @property
    def characteristic(self) -> int:
        acc = self.one
        k = 1
        while acc != self.zero:
            acc = self.add[acc][self.one]
            k += 1
            if k > self.size:
                raise NotAField("characteristic", None, "one has no additive order")
        return k

    def neg(self, a: int) -> int:
        b = self._neg[a]
        if b is None:
            raise NotAField("add-inverse", (a,))
        return b


def trusted_field(F):
    """The FiniteField of the singleton-valued hyperfield F, or None when
    F's tables are no field. GF(q)'s own tables (F.gf_order set) skip
    validate, which is n³: seconds near the carrier cap."""
    try:
        fld = FiniteField.from_trivial_hyperfield(F)
        return fld if F.gf_order is not None else fld.validate()
    except NotAField:
        return None


@lru_cache(maxsize=None)
def get_gf(q: int) -> FiniteField:
    """The canonical GF(q), built once per q. GF(p) has the residue tables
    mod p; GF(p^k), k >= 2, is classical_tables over GF(p) in dimension k
    with basis products t^i t^j = t^(i+j) mod f, f the first monic
    irreducible of degree k in _monic_polys order."""
    p, k = factor_prime_power(q)
    if k == 1:
        add = [[(x + y) % p for y in range(q)] for x in range(q)]
        mul = [[x * y % p for y in range(q)] for x in range(q)]
    else:
        f = _find_irreducible(p, k)
        C = [[digits_to_int(_poly_mod([0] * (i + j) + [1], f, p), p) for j in range(k)]
             for i in range(k)]
        add, _, mul = classical_tables(get_gf(p), k, C)
    return FiniteField([str(x) for x in range(q)], add, mul)


def canonical_order(add, mul):
    """q when add and mul are GF(q)'s own tables, get_gf(q)'s, else None."""
    try:
        gf = get_gf(len(add))
    except HyperlieError:
        return None
    return gf.size if (gf.add, gf.mul) == (add, mul) else None


def normalize_constants(dim: int, constants):
    """Upper-triangular dict {(i,j): vector} with i < j; fill checks."""
    out = {}
    for key, vec in dict(constants).items():
        i, j = key
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise MalformedTable(f"constant key {key} out of range for dim {dim}")
        v = tuple(vec)
        if len(v) != dim:
            raise MalformedTable(f"constant {key} has length {len(v)}, want {dim}")
        if i > j:
            raise MalformedTable(f"constants must use upper-triangular keys, got {key}")
        out[(i, j)] = v
    return out


def constants_table(gf: FiniteField, dim: int, constants):
    """Full antisymmetric table C[i][j] = vector of [e_i, e_j]."""
    tri = normalize_constants(dim, constants)
    zero = tuple([0] * dim)
    C = [[zero] * dim for _ in range(dim)]
    for (i, j), v in tri.items():
        vv = tuple(x % gf.size for x in v)
        C[i][j] = vv
        C[j][i] = tuple(gf.neg(x) for x in vv)
    return C


def classical_tables(F: FiniteField, dim: int, C):
    """(add, smul, bracket) of F^dim in packed order, over any field table F:
    add[u][v] is the index of u + v, smul[lam][v] that of lam v and
    bracket[u][v] that of [u, v], the bilinear extension of the basis
    brackets C[i][j] = [e_i, e_j], given as packed indices. Each table is
    extended one digit at a time; a digit is an element in F's labels.
    """
    rq = range(F.size)
    add, smul = [[0]], [[0] for _ in rq]
    for k in range(dim):
        w = F.size ** k
        add = [[s + w * F.add[a][b] for b in rq for s in row] for a in rq for row in add]
        smul = [[s + w * F.mul[lam][a] for a in rq for s in row] for lam, row in zip(rq, smul)]
    zero = smul[F.zero][0]
    bracket = [[zero] * len(add)]
    for Ci in C:
        # [e_i, v] = sum_j v_j C[i][j], then [u, v] = sum_i u_i [e_i, v]
        ei = [zero]
        for Cij in Ci:
            ei = [add[s][smul[b][Cij]] for b in rq for s in ei]
        scaled = [[smul[a][r] for r in ei] for a in rq]
        bracket = [[add[s][t] for s, t in zip(row, sc)] for sc in scaled for row in bracket]
    return add, smul, bracket
