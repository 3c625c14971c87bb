"""Seeded benchmark fixtures built through the package's public API.

Every structure starts from a preset or a generator, is relabelled by a
random permutation of its carrier drawn from the seed, and is validated by
the package's own axiom checker before any job sees it. Trivial algebras in
the analysis session are, in addition, presented in a random basis drawn
from the seed. A relabelling or a change of basis gives an isomorphic
structure, so the facts each job checks do not depend on the seed.
"""

from __future__ import annotations

import os
import random

import hyperlie

# Base algebras for the seed-conjugated trivial algebras: (q prime, dim,
# structure constants). Same isomorphism classes as the test suite uses.
CONJUGATED_SPECS = [
    (5, 2, {}),
    (3, 2, {(0, 1): (0, 1)}),
    (5, 3, {(0, 1): (0, 0, 1)}),
    (3, 3, {(0, 1): (0, 0, 1), (0, 2): (2, 0, 0), (1, 2): (0, 1, 0)}),
    (3, 4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)}),
]

# Which fixtures each workload builds.
WORKLOAD_FIXTURES = {
    "cli-desk": ("ex1", "ex2", "ab1", "m1", "m4"),
    "engine-deep": ("ex1", "ex2", "m4"),
    # conj2 (125 elements) is left out: building and checking it alone
    # would take longer than the rest of the set-up
    "analysis-session": ("ex1", "ex2", "ab1", "ab5", "conj0", "conj1", "conj3",
                         "conj4", "m1_module", "m3_module", "m4"),
}


def _permute_mask(mask: int, perm) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def _permute_table(table, row_perm, col_perm, val_perm):
    """Table with row r moved to row_perm[r], column c to col_perm[c], and
    every value mask pushed through val_perm (None keeps an axis)."""
    rows = len(table)
    cols = len(table[0])
    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        nr = r if row_perm is None else row_perm[r]
        for c in range(cols):
            nc = c if col_perm is None else col_perm[c]
            out[nr][nc] = _permute_mask(table[r][c], val_perm)
    return out


def _permute_names(names, perm):
    new = [None] * len(names)
    for old, nm in enumerate(names):
        new[perm[old]] = nm
    return new


def relabel_algebra(L, rng: random.Random):
    """Same algebra with its carrier listed in a random order."""
    perm = list(range(L.size))
    rng.shuffle(perm)
    return hyperlie.FiniteLieHyperalgebra(
        L.field,
        _permute_names(L.names, perm),
        _permute_table(L.add, perm, perm, perm),
        _permute_table(L.smul, None, perm, perm),
        _permute_table(L.bracket, perm, perm, perm),
    )


def relabel_hyperfield(F, rng: random.Random):
    perm = list(range(F.size))
    rng.shuffle(perm)
    return hyperlie.FiniteHyperfield(
        _permute_names(F.names, perm),
        _permute_table(F.add, perm, perm, perm),
        _permute_table(F.mul, perm, perm, perm),
        gf_order=F.gf_order,
    )


def _random_invertible(q: int, dim: int, rng: random.Random):
    while True:
        m = [[rng.randrange(q) for _ in range(dim)] for _ in range(dim)]
        inv = _inverse_mod(m, q)
        if inv is not None:
            return m, inv


def _inverse_mod(m, q: int):
    """Inverse of a square matrix over GF(q), q prime, or None if singular."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % q), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], q - 2, q)
        a[col] = [v * inv % q for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % q for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def conjugated_algebra(q: int, dim: int, constants, rng: random.Random):
    """Trivial algebra of the given constants, written in a random basis.

    New basis vector i is sum_a P[i][a] e_a; the bracket of two new basis
    vectors is expanded in the old basis and mapped back through P^-1.
    """
    P, Pinv = _random_invertible(q, dim, rng)
    C = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in constants.items():
        for k, c in enumerate(vec):
            C[i][j][k] = c % q
            C[j][i][k] = -c % q
    new = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            old = [0] * dim
            for a in range(dim):
                for b in range(dim):
                    coef = P[i][a] * P[j][b] % q
                    if coef:
                        for k in range(dim):
                            old[k] = (old[k] + coef * C[a][b][k]) % q
            vec = tuple(sum(old[k] * Pinv[k][l] for k in range(dim)) % q
                        for l in range(dim))
            if any(vec):
                new[(i, j)] = vec
    return hyperlie.gen_trivial_from_lie(q, dim, new)


def self_module(F):
    """Hyperfield as a Lie hyperalgebra over itself with the zero bracket."""
    zero_row = [[1 << F.zero] * F.size for _ in range(F.size)]
    return hyperlie.FiniteLieHyperalgebra(F, list(F.names), F.add, F.mul, zero_row)


def _base(name: str, rng: random.Random):
    if name in hyperlie.CONSTANT_PRESETS:
        return hyperlie.preset_structure(name)
    if name == "m1":
        return hyperlie.gen_quotient_hyperfield(7, [1, 2, 4])
    if name == "m1_module":
        return self_module(hyperlie.gen_quotient_hyperfield(7, [1, 2, 4]))
    if name == "m3_module":
        return self_module(hyperlie.gen_quotient_hyperfield(5, [1, 4]))
    if name == "m4":
        return hyperlie.gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])
    if name.startswith("conj"):
        return conjugated_algebra(*CONJUGATED_SPECS[int(name[4:])], rng)
    raise KeyError(name)


def build_fixtures(workload: str, seed: int):
    """Relabelled, checker-validated structures of one workload by name."""
    out = {}
    for name in WORKLOAD_FIXTURES[workload]:
        rng = random.Random(f"{seed}:{name}")
        x = _base(name, rng)
        if isinstance(x, hyperlie.FiniteHyperfield):
            x = relabel_hyperfield(x, rng)
            report = hyperlie.check_hyperfield(x)
        else:
            x = relabel_algebra(x, rng)
            report = hyperlie.check_lie_hyperalgebra(x)
        if not report.ok:
            raise RuntimeError(f"fixture {name} fails {report.failures} at seed {seed}")
        out[name] = x
    return out


def write_fixtures(structures, directory: str):
    """Serialise each structure to <directory>/<name>.json; name -> path."""
    paths = {}
    for name, x in structures.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(hyperlie.serialize_structure(x))
        paths[name] = path
    return paths
