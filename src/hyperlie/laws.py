"""The law-shape loops, the identity search and the generator decider,
shared by the hyperstructure checkers, the classical validators and the
generators; this module imports nothing from the package. Each loop runs
on element-index tables or SetOps set lifts, takes the values of its
positions as lists, looks every row up outside the innermost loop and
yields the positions of each failing instance in product order; a paced
loop also yields None after each row of its first position, so that
first_failure can run several laws in step. on_generators decides seven Lie laws on element tables at steps
along the additive generators, so that the others alone need loops."""

from itertools import product


def commutativity(f, A):
    """(a, b) in A x A with f(a, b) != f(b, a)."""
    for a, va in enumerate(A):
        fa = f[va]
        for b, vb in enumerate(A):
            if fa[vb] != f[vb][va]:
                yield a, b


def associativity(f, g, A, C, paced=False):
    """(a, b, c) in A x A x C with f(g(a, b), c) != f(a, f(b, c))."""
    for a, va in enumerate(A):
        fa, ga = f[va], g[va]
        for b, vb in enumerate(A):
            fab, fb = f[ga[vb]], f[vb]
            for c, vc in enumerate(C):
                if fab[vc] != fa[fb[vc]]:
                    yield a, b, c
        if paced:
            yield None


def left_distributivity(f, g, A, X, paced=False):
    """(a, x, y) in A x X x X with f(a, g(x, y)) != g(f(a, x), f(a, y))."""
    for a, va in enumerate(A):
        fa = f[va]
        for x, vx in enumerate(X):
            gx, gfx = g[vx], g[fa[vx]]
            for y, vy in enumerate(X):
                if fa[gx[vy]] != gfx[fa[vy]]:
                    yield a, x, y
        if paced:
            yield None


def right_distributivity(f, g, h, A, X, paced=False):
    """(a, b, x) in A x A x X with f(g(a, b), x) != h(f(a, x), f(b, x))."""
    for a, va in enumerate(A):
        fa, ga = f[va], g[va]
        for b, vb in enumerate(A):
            fab, fb = f[ga[vb]], f[vb]
            for x, vx in enumerate(X):
                if fab[vx] != h[fa[vx]][fb[vx]]:
                    yield a, b, x
        if paced:
            yield None


def homogeneity(f, s, A, X):
    """(a, x, y) in A x X x X with f(s(a, x), y) != s(a, f(x, y))."""
    for a, va in enumerate(A):
        sa = s[va]
        for x, vx in enumerate(X):
            fx, fax = f[vx], f[sa[vx]]
            for y, vy in enumerate(X):
                if fax[vy] != sa[fx[vy]]:
                    yield a, x, y


def jacobi(add, br, X, zero, lifted=False, paced=False):
    """(x, y, z) in X x X x X whose Jacobiator [x, [y, z]] + [y, [z, x]] +
    [z, [x, y]] is not the element zero, or on set lifts misses the mask zero."""
    rows = [(v, br[v]) for v in X]
    for x, (vx, bx) in enumerate(rows):
        for y, (vy, by) in enumerate(rows):
            bxy = bx[vy]
            for z, (vz, bz) in enumerate(rows):
                t = add[add[bx[by[vz]]][by[bz[vx]]]][bz[bxy]]
                if (not t & zero) if lifted else t != zero:
                    yield x, y, z
        if paced:
            yield None


def identity(f, E, vals):
    """The first e of E with f(e, x) = vals[x] = f(x, e) for every x of E,
    vals[x] the value of x in the table's view, or None."""
    for e in E:
        fe = f[e]
        if all(fe[x] == vals[x] == f[x][e] for x in E):
            return e
    return None


def first_failure(*laws):
    """(name, witness) of the least first witness over the (name, failures)
    pairs, the earlier law on a tie; None when none fails. On laws that scan
    one product in one order, that is the failure that one loop checking
    them in turn meets first. The laws run row by row in step: each round
    takes every law to its next None (a paced loop's end of row), its first
    witness or its end, and the rounds stop once they pass the first index
    of the best witness, so a law that holds stops there too."""
    best, live, row = None, [(i, name, iter(f)) for i, (name, f) in enumerate(laws)], 0
    while live and (best is None or best[0][0] >= row):
        paced = []
        for i, name, failures in live:
            witness = next(failures, ())
            if witness is None:
                paced.append((i, name, failures))
            elif witness and (best is None or (witness, i) < best[:2]):
                best = witness, i, name
        live, row = paced, row + 1
    return best and (best[2], best[0])


def spanning_tree(add, zero):
    """(G, tree): additive generators G, each the least element that steps
    s -> s + g (g in G) from zero do not reach, and the first step into each."""
    gens, into = [], {zero: None}
    for v in range(len(add)):
        if v not in into:
            gens.append(v)
            steps = [(s, v) for s in into]
            for s, g in steps:
                if add[s][g] not in into:
                    into[add[s][g]] = s, g
                    steps += [(add[s][g], h) for h in gens]
    return gens, [step for step in into.values() if step]


def associates_at(add, steps) -> bool:
    """Light's test at each step (x, g): (x + g) + c = x + (g + c) for all c.
    At every (x, g), g in additive generators of a table with identity zero,
    it decides associativity (the g that pass are closed under +)."""
    return all(add[add[x][g]] == list(map(add[x].__getitem__, add[g])) for x, g in steps)


def _steps(add, zero):
    """(G, steps) of on_generators. By I and C, zero and g lie on one
    cycle of s -> s + g, of length p for G's first; ends holds p g."""
    gens, tree = spanning_tree(add, zero)
    p, ends = 1, list(gens)
    while ends and ends[0] != zero and p <= len(add):
        p, ends = p + 1, [add[e][g] for e, g in zip(ends, gens)]
    if ends.count(zero) == len(gens) and p ** len(gens) == len(add):
        return gens, tree + list(product(gens, gens))
    return gens, list(product(range(len(add)), gens))


def _additive(add, rows, steps) -> bool:
    """Whether rows[x + g] is rows[x] + rows[g] cell by cell at each step."""
    return all(rows[add[x][g]] == [add[a][b] for a, b in zip(rows[x], rows[g])]
               for x, g in steps)


def on_generators(add, smul, br, zero):
    """(decided, scaled) on element tables: decided when + is associative,
    the bracket bi-additive and the Jacobiator zero; scaled when decided and
    l(x + y) = lx + ly and [lx, y] = l[x, y] = [x, ly] for every row l of
    smul. Both False unless the proof's premises hold: (I) zero + x = x =
    x + zero, (C) a + b = b only for a = zero (columns of + permutations)
    and (K) + commutative. Decided at steps (x, g), g in the additive
    generators G: the n - 1 of spanning_tree and G x G if (F) p g = 0 for
    all g, p the order of G's first, and n = p^|G|; else every (x, g). A
    step checks t_(x+g) = t_x t_g (Light, t_x the row of x) and
    f(x + g) = f(x) + f(g) for f x -> [x, c] for all c.
    1. + associates: by G x G and K the t_g commute; along the tree each t_x
       lies in the abelian group they generate, transitive by I, so regular;
       t_(x+y) and t_x t_y lie in it and agree at zero, so they are equal.
    2. f is additive (likewise on the right); f(zero) = 0 at (zero, g) by C.
       With F, (Z/p)^G -> V, c -> sum c_g g, is onto, so one to one, and f
       is linear in x's path counts mod p, as its values have exponent p.
       Else the y with f(x + y) = f(x) + f(y) for all x hold zero and are
       closed under + by 1, so y in G suffices.
    3. By 1, 2 and K the Jacobiator is additive in each argument, and zero
       when one is, so zero once on G x G x G. By C and K + is reproductive.
    4. x -> (lx for all l) is additive as f in 2.
    5. The x with [lx, y] = l[x, y] for all l, y hold zero by 2 and 4 and
       are closed under + by 4 and 2, so x in G suffices; so on the right.
    """
    n = len(add)
    add_cols = [list(c) for c in zip(*add)]
    if add_cols != add or add[zero] != list(range(n)) or any(
            len(set(c)) != n for c in add_cols):
        return False, False
    gens, steps = _steps(add, zero)
    cols = [list(c) for c in zip(*br)]
    if not (associates_at(add, steps) and _additive(add, br, steps)
            and _additive(add, cols, steps) and next(jacobi(add, br, gens, zero), None) is None):
        return False, False
    return True, _additive(add, [list(c) for c in zip(*smul)], steps) and all(
        br[s[g]] == list(map(s.__getitem__, br[g]))
        and cols[s[g]] == list(map(s.__getitem__, cols[g])) for s in smul for g in gens)
