"""The law-shape loops, shared by the hyperstructure checkers, the
classical validators and the generators; this module imports nothing from
the package. Each loop runs on element-index tables or SetOps set lifts,
takes the values of its positions as lists, looks every row up outside the
innermost loop and yields the positions of each failing instance in
product order; a paced loop also yields None after each row of its first
position, so that first_failure can run several laws in step."""


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
