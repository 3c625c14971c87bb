"""Structure factories: trivialized classical algebras, coset hypergroups,
quotient hyperfields, and scalar-orbit quotients.

Every generator validates its own output with the matching checker before
returning; outputs are never trusted by construction. The one exception is
gen_trivial_field: GF(q)'s own tables are a field (gf_order set, the rule
gf.trusted_field applies). A test runs the field check on them for every q
up to 27, and the generator goldens pin them for q up to 256.

Every quotient table (coset, quotient hyperfield, scalar orbit) is
_quotient, the class hyperoperation by its definition: no argument about
representatives is needed.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    HyperlieError,
    InternalInvariant,
    MalformedTable,
    NotAGroup,
    NotASubgroup,
    NotLie,
)
from .gf import (
    classical_tables,
    constants_table,
    digits_to_int,
    get_gf,
    int_to_digits,
    is_prime,
)
from .laws import associativity, identity, jacobi
from .sets import mask_of
from .structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
    check_carrier_size,
    check_hyperfield,
    check_hypergroup,
    check_lie_hyperalgebra,
)

BASIS_LETTERS = "abcdefgh"


def _masks(elt):
    """The mask table of an element-index table."""
    return [[1 << x for x in row] for row in elt]


def gen_trivial_field(q: int) -> FiniteHyperfield:
    """Trivial hyperfield of GF(q): the field with singleton-valued tables.
    Not checked: they are GF(q)'s own tables."""
    check_carrier_size(q)
    gf = get_gf(q)
    elt = [row[:] for row in gf.add], [row[:] for row in gf.mul]  # get_gf's are cached
    return FiniteHyperfield(gf.names, *map(_masks, elt), gf_order=q, elt=elt)


def vector_name(vec) -> str:
    """Display name of a coefficient vector: 0, a, 2a, a+2b, ..."""
    terms = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        letter = BASIS_LETTERS[i]
        terms.append(letter if c == 1 else f"{c}{letter}")
    return "+".join(terms) if terms else "0"


def _classical(q: int, dim: int, constants):
    """The add, scalar and bracket tables of GF(q)^dim under the structure
    constants, as gf.classical_tables builds them; NotLie at the first basis
    triple (i, j, k) off Jacobi, read on those tables."""
    gf = get_gf(q)
    C = constants_table(gf, dim, constants)
    packed = [[digits_to_int(c, q) for c in row] for row in C]
    add, smul, bracket = classical_tables(gf, dim, packed)
    witness = next(jacobi(add, bracket, [q ** i for i in range(dim)], 0), None)
    if witness is not None:
        raise NotLie("jacobi-constants", witness, "Jacobi fails on basis triple")
    return add, smul, bracket


def check_trivial_carrier(q: int, dim: int) -> None:
    """Refuse a dim outside 1..8, then a carrier q^dim above the cap, before
    any work that grows with q."""
    if dim < 1 or dim > len(BASIS_LETTERS):
        raise MalformedTable(f"dim must be in 1..{len(BASIS_LETTERS)}, got {dim}")
    check_carrier_size(q ** dim)


def gen_trivial_from_lie(q: int, dim: int, constants) -> FiniteLieHyperalgebra:
    """Trivialize a classical Lie algebra over GF(q) given by structure constants.

    Carrier is all q^dim coefficient vectors in packed order; every
    hyperoperation is the singleton of the classical value. The carrier cap
    is enforced before any table is built. Even q is allowed but flags the
    result (theorem pipelines gate on characteristic separately).
    """
    check_trivial_carrier(q, dim)
    elt = _classical(q, dim, constants)
    names = [vector_name(int_to_digits(u, q, dim)) for u in range(q ** dim)]
    L = FiniteLieHyperalgebra(gen_trivial_field(q), names, *map(_masks, elt), elt=elt)
    L.even_char_warning = q % 2 == 0
    check_lie_hyperalgebra(L).raise_if_failed()
    return L


def _orbits(n: int, orbit):
    """(members, class_of) of the partition of range(n) into orbits, where
    orbit(u) yields the members of the orbit of u, u among them: each orbit
    sorted, orbits ordered by their least element."""
    class_of = [None] * n
    members = []
    for u in range(n):
        if class_of[u] is None:
            orb = sorted(set(orbit(u)))
            for v in orb:
                class_of[v] = len(members)
            members.append(orb)
    return members, class_of


def _quotient(op, rows, cols, class_of):
    """Cell (X, Y) is the mask of the classes of op(x, y), x in X, y in Y."""
    return [[mask_of(class_of[op(x, y)] for x in X for y in Y) for Y in cols] for X in rows]


def _group_checks(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise MalformedTable("group table must be square over its own indices")
    for witness in associativity(table, table, range(n), range(n)):
        raise NotAGroup("group-associative", witness)
    ident = identity(table, range(n), range(n))
    if ident is None:
        raise NotAGroup("group-identity", ())
    for x in range(n):
        if not any(table[x][y] == ident for y in range(n)):
            raise NotAGroup("group-inverses", (x,))
    return ident


def gen_coset_hypergroup(group_table, subgroup) -> Hypergroup:
    """Left-coset hypergroup of a finite group: entry (xH, yH) = {zH : z = xhy}."""
    table = [list(r) for r in group_table]
    n = len(table)
    check_carrier_size(n)
    ident = _group_checks(table)
    H = sorted(set(subgroup))
    if any(not (0 <= h < n) for h in H):
        raise NotASubgroup(f"subgroup elements out of range: {H}")
    if ident not in H:
        raise NotASubgroup("subgroup must contain the identity")
    for a in H:
        for b in H:
            if table[a][b] not in H:
                raise NotASubgroup(f"not closed: {a}*{b} outside subgroup")

    cosets, coset_of = _orbits(n, lambda x: (table[x][h] for h in H))
    coset_names = [f"[{members[0]}]" for members in cosets]
    hg = Hypergroup(coset_names, _quotient(lambda x, y: table[x][y], cosets, cosets, coset_of))
    report = check_hypergroup(hg)
    if not report.ok:
        raise InternalInvariant(f"coset hypergroup failed checks: {report.failures}")
    return hg


def make_cyclic_group(k: int):
    check_carrier_size(k)
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    names = [str(i) for i in range(k)]
    return table, names


def make_s3():
    """Symmetric group on 3 points; elements ordered lexicographically."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return table, names


def _unit_cosets(q: int, subgroup):
    """Cosets of a multiplicative subgroup H of GF(q), q prime, as
    (members, class_of): class 0 is {0}, class c > 0 the sorted coset of
    its smallest element, classes ordered by that element. The carrier
    cap is checked before any work that grows with q."""
    if q < 2:
        raise MalformedTable(f"quotient hyperfield needs prime q, got {q}")
    H = sorted(set(int(h) % q for h in subgroup))
    if 0 in H or 1 not in H:
        raise NotASubgroup("subgroup must be a subset of units containing 1")
    for a in H:
        for b in H:
            if (a * b) % q not in H:
                raise NotASubgroup(f"not closed under multiplication: {a}*{b}")
    # H acts freely on the q - 1 units: {0} and the cosets number 1 + (q - 1) / |H|
    check_carrier_size(1 + (q - 1) // len(H))
    if not is_prime(q):
        raise MalformedTable(f"quotient hyperfield needs prime q, got {q}")
    return _orbits(q, lambda a: (a * h % q for h in H))


def gen_quotient_hyperfield(q: int, subgroup) -> FiniteHyperfield:
    """Quotient of GF(q), q prime, by a multiplicative subgroup H.

    Carrier {0} plus cosets aH; class sum = classes meeting the elementwise
    sum; class product is single-valued. Output must pass check_hyperfield.
    """
    members, class_of = _unit_cosets(q, subgroup)
    names = ["0"] + [f"[{m[0]}]" for m in members[1:]]
    add = _quotient(lambda u, v: (u + v) % q, members, members, class_of)
    mul = _quotient(lambda u, v: u * v % q, members, members, class_of)
    F = FiniteHyperfield(names, add, mul, gf_order=q if len(members) == q else None)
    check_hyperfield(F).raise_if_failed()
    return F


def gen_orbit_quotient(q: int, dim: int, constants, subgroup) -> FiniteLieHyperalgebra:
    """Lie hyperalgebra on scalar-orbit classes of a trivial algebra.

    Carrier: orbits of GF(q)^dim under scaling by the multiplicative
    subgroup H; scalars: the quotient hyperfield of GF(q) by H. The induced
    bracket and scalar action are single-valued on orbits; addition is
    genuinely multivalued when |H| > 1.
    """
    F = gen_quotient_hyperfield(q, subgroup)
    field_members, _ = _unit_cosets(q, subgroup)
    H = field_members[1]  # the coset of 1
    # H acts freely on the nonzero vectors, so the orbits number 1 + (n - 1) / |H|
    check_carrier_size(1 + (q ** dim - 1) // len(H))
    vadd, vsmul, vbracket = _classical(q, dim, constants)
    orbits, orbit_of = _orbits(len(vadd), lambda u: (vsmul[h][u] for h in H))
    names = ["0" if members == [0] else f"[{vector_name(int_to_digits(members[0], q, dim))}]"
             for members in orbits]
    add = _quotient(lambda u, v: vadd[u][v], orbits, orbits, orbit_of)
    smul = _quotient(lambda lam, v: vsmul[lam][v], field_members, orbits, orbit_of)
    bracket = _quotient(lambda u, v: vbracket[u][v], orbits, orbits, orbit_of)
    L = FiniteLieHyperalgebra(F, names, add, smul, bracket)
    check_lie_hyperalgebra(L).raise_if_failed()
    return L


# Named structure-constant presets used by tests and the CLI.
CONSTANT_PRESETS = {
    "ex1": (3, 4, {(1, 2): (1, 0, 0, 0), (1, 3): (0, 1, 0, 0), (2, 3): (0, 0, 2, 0)}),
    "ex2": (3, 3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, 2, 0)}),
    "ab1": (3, 1, {}),
    "ab5": (5, 1, {}),
}


def preset_structure(name: str) -> FiniteLieHyperalgebra:
    key = name.lower()
    if key not in CONSTANT_PRESETS:
        raise HyperlieError(f"unknown preset {name!r}; have {sorted(CONSTANT_PRESETS)}")
    q, dim, constants = CONSTANT_PRESETS[key]
    return gen_trivial_from_lie(q, dim, constants)
