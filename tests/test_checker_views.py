"""The axiom checkers against the independent per-instance replay.

Structures of at most 17 elements, each with one corrupted table cell:
singleton corruptions of singleton-valued structures keep the checkers on
element-index tables, wider ones (and every multivalued structure) put
them on set lifts. For each axiom the checker reports, ok must hold
exactly when no instance of its domain replays False under reevaluate,
and a reported witness must replay False.

On singleton-valued algebras whose + is a commutative group, the Lie
checker decides associativity, bracket additivity and Jacobi on additive
generators, and behind that distributivity over vectors and homogeneity;
with the decision patched to fail it runs their loops. The two reports
must be equal, witnesses included, on the quotient decider tests'
corruptions of classical algebras lifted to singleton masks. The decider
checks its own premises, so on unchecked element tables, and on random
scalar tables, a True must survive the exhaustive loops; each premise has
a table on which the decision would be wrong without it. On sums that are
free over Z/p additivity is checked along a spanning tree, elsewhere at
every step (x, g): both agree with the loops on brackets built along the
tree, which break the relations of a + that is not free.
"""

import random
from functools import lru_cache
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import _singleton_lift
from hyperlie import laws, structures
from hyperlie.gf import digits_to_int, int_to_digits
from hyperlie.generators import (
    gen_coset_hypergroup,
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
)
from hyperlie.structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
    check_hyperfield,
    check_hypergroup,
    check_lie_hyperalgebra,
    reevaluate,
)
from test_quotient_deciders import corrupted_algebras, group_bases

# instance domain of every witnessed axiom: V the structure's carrier,
# S the scalar field of an algebra, N the nonzero elements of a hyperfield
_LIE_DOMAINS = {
    "add-associative": "VVV",
    "add-reproduction": "V",
    "scalar-zero": "V",
    "scalar-one": "V",
    "zero-vector-identity": "V",
    "scalar-dist-vector-add": "SVV",
    "scalar-dist-scalar-add": "SSV",
    "scalar-associative": "SSV",
    "bracket-additive-left": "VVV",
    "bracket-additive-right": "VVV",
    "bracket-homogeneous-left": "SVV",
    "bracket-homogeneous-right": "SVV",
    "bracket-alternating": "V",
    "jacobi-contains-zero": "VVV",
}
_FIELD_DOMAINS = {
    "add-associative": "VVV",
    "add-reproduction": "V",
    "mul-nonzero-closure": "NN",
    "mul-associative": "NNN",
    "mul-reproduction": "N",
    "zero-absorbing": "V",
    "distributive-left": "VVV",
    "distributive-right": "VVV",
}
_HYPERGROUP_DOMAINS = {"add-associative": "VVV", "add-reproduction": "V"}
_UNWITNESSED = {"scalar-field", "zero-vector", "zero-identity", "one-identity"}


@lru_cache(maxsize=None)
def _bases():
    """(structure, names of its tables) for every base structure."""
    algebras = [
        gen_trivial_from_lie(3, 1, {}),
        gen_trivial_from_lie(5, 1, {}),
        gen_trivial_from_lie(3, 2, {(0, 1): (0, 1)}),
        gen_trivial_from_lie(7, 1, {}),
        gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
    ]
    fields = [gen_trivial_field(3), gen_trivial_field(5),
              gen_quotient_hyperfield(7, [1, 2, 4]), gen_quotient_hyperfield(7, [1, 6]),
              gen_quotient_hyperfield(5, [1, 4])]
    s3, _ = make_s3()
    z6, _ = make_cyclic_group(6)
    groups = [gen_coset_hypergroup(s3, [0, 1]), gen_coset_hypergroup(z6, [0, 3]),
              gen_coset_hypergroup(z6, [0])]
    return ([(L, ("add", "smul", "bracket", "field.add", "field.mul")) for L in algebras]
            + [(F, ("add", "mul")) for F in fields]
            + [(hg, ("add",)) for hg in groups])


def _corrupted(structure, table, i, j, value):
    def edit(rows):
        rows = [list(r) for r in rows]
        rows[i % len(rows)][j % len(rows[0])] = value
        return rows

    if isinstance(structure, Hypergroup):
        return Hypergroup(structure.names, edit(structure.add))
    if isinstance(structure, FiniteHyperfield):
        tables = {"add": structure.add, "mul": structure.mul}
        tables[table] = edit(tables[table])
        return FiniteHyperfield(structure.names, tables["add"], tables["mul"])
    L = structure
    F = L.field
    if table.startswith("field."):
        F = _corrupted(F, table[len("field."):], i, j, value)
    tables = {"add": L.add, "smul": L.smul, "bracket": L.bracket}
    if table in tables:
        tables[table] = edit(tables[table])
    return FiniteLieHyperalgebra(F, L.names, tables["add"], tables["smul"], tables["bracket"])


def _report_and_domains(structure):
    if isinstance(structure, FiniteLieHyperalgebra):
        carriers = {"V": range(structure.size), "S": range(structure.field.size)}
        return check_lie_hyperalgebra(structure), _LIE_DOMAINS, carriers
    if isinstance(structure, FiniteHyperfield):
        carriers = {"V": range(structure.size),
                    "N": [x for x in range(structure.size) if x != structure.zero]}
        return check_hyperfield(structure), _FIELD_DOMAINS, carriers
    return check_hypergroup(structure), _HYPERGROUP_DOMAINS, {"V": range(structure.size)}


@st.composite
def corrupted_structures(draw):
    structure, tables = draw(st.sampled_from(_bases()))
    table = draw(st.sampled_from(tables))
    target = structure.field if table.startswith("field.") else structure
    size = target.size
    i, j = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        value = 1 << draw(st.integers(0, size - 1))
    else:
        value = draw(st.integers(1, (1 << size) - 1))
    return _corrupted(structure, table, i, j, value)


@settings(max_examples=100, deadline=None)
@given(corrupted_structures())
def test_checker_agrees_with_instance_replay(structure):
    report, domains, carriers = _report_and_domains(structure)
    for name, entry in report.axioms.items():
        if name in _UNWITNESSED:
            assert entry["witness"] is None
            continue
        instances = product(*(carriers[c] for c in domains[name]))
        holds = all(reevaluate(structure, name, w) for w in instances)
        assert entry["ok"] == holds, name
        if not entry["ok"]:
            assert reevaluate(structure, name, entry["witness"]) is False, name


class _Unusable:
    """Stands where a set lift was: any attribute or index raises."""

    def __getattr__(self, name):
        raise AssertionError(f"the replay read .{name} of a set lift")

    def __getitem__(self, key):
        raise AssertionError("the replay indexed a set lift")


def test_replay_reads_no_set_lift():
    # the replay is independent of the checker's set lifts: with every
    # SetOps of a fresh structure made unusable, every instance of every
    # witnessed axiom still replays, and as the checker reported
    for structure in (gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4]),
                      gen_quotient_hyperfield(7, [1, 6])):
        report, domains, carriers = _report_and_domains(structure)
        for owner in {structure, getattr(structure, "field", structure)}:
            for attr in [a for a in vars(owner) if a.endswith("_ops")]:
                setattr(owner, attr, _Unusable())
        replayed = {name: all([reevaluate(structure, name, w)
                               for w in product(*(carriers[c] for c in domains[name]))])
                    for name in report.axioms if name not in _UNWITNESSED}
        assert replayed == {name: entry["ok"] for name, entry in report.axioms.items()
                            if name not in _UNWITNESSED}
        assert len(replayed) == len(domains)


def _decided(add, br, zero):
    """on_generators' first verdict, with the identity as the one scalar."""
    return laws.on_generators(add, [list(range(len(add)))], br, zero)[0]


_DECIDED = ("add-associative", "bracket-additive-left", "bracket-additive-right",
         "jacobi-contains-zero", "scalar-dist-vector-add", "bracket-homogeneous-left",
         "bracket-homogeneous-right")


def test_generator_decision_agrees_with_loops():
    outcomes = []

    def decide(*tables):
        outcomes.append(laws.on_generators(*tables))
        return outcomes[-1]

    @settings(max_examples=150, deadline=None)
    @given(corrupted_algebras(keep_group=True))
    def agrees(A):
        L = _singleton_lift(A)
        with mock.patch.object(structures, "on_generators", decide):
            report = check_lie_hyperalgebra(L)
        with mock.patch.object(structures, "on_generators", return_value=(False, False)):
            loops = check_lie_hyperalgebra(L)
        assert report.axioms == loops.axioms
        for name in _DECIDED:
            entry = report.axioms[name]
            if not entry["ok"]:
                assert reevaluate(L, name, entry["witness"]) is False, name
            elif L.size <= 9:
                carriers = {"V": range(L.size), "S": range(L.field.size)}
                assert all(reevaluate(L, name, w)
                           for w in product(*(carriers[c] for c in _LIE_DOMAINS[name])))

    agrees()
    assert {decided for decided, _ in outcomes} == {True, False}
    assert all(decided for decided, scaled in outcomes if scaled)


def test_generator_decision_needs_its_premises():
    # commutative, 0 + 0 = 0, but 0 is no identity and + no Latin square:
    # the generator clauses hold and + is not associative, so the decider
    # must refuse on its premises
    add = [[0, 2, 1], [2, 1, 2], [1, 2, 1]]
    zeros = [[0] * 3 for _ in range(3)]
    assert not _decided(add, zeros, 0)
    F = gen_trivial_field(2)
    L = FiniteLieHyperalgebra(F, ["0", "1", "2"], [[1 << v for v in r] for r in add],
                              [[1] * 3, [1, 2, 4]], [[1] * 3 for _ in range(3)])
    report = check_lie_hyperalgebra(L)
    assert report.axioms["add-associative"]["ok"] is False
    with mock.patch.object(structures, "on_generators", return_value=(False, False)):
        assert check_lie_hyperalgebra(L).axioms == report.axioms


def test_generator_decision_needs_zero_to_be_the_identity():
    # Z/5 written with 0 and 1 swapped, the bracket xy and zero taken as 3:
    # the bracket is bi-additive and the Jacobiator 3xyc is 3 on the one
    # generator triple (1, 1, 1), but not where an argument is 0; the
    # decider must refuse on its premise that zero is an identity of +
    value = [1, 0, 2, 3, 4]
    label = {v: i for i, v in enumerate(value)}
    add = [[label[(u + v) % 5] for v in value] for u in value]
    br = [[label[u * v % 5] for v in value] for u in value]
    assert not _loops_hold(add, br, label[3])
    assert not _decided(add, br, label[3])


def test_generator_decision_needs_commuting_generators():
    # XOR on 0..7, changed by 4 where the low two bits of the summands are
    # 2 and 3, is a commutative loop with x + x = 0 that does not associate.
    # Relabelled so that the additive generators are 1, 2 and 3, Light's
    # test holds at every step of the spanning tree; only the steps g + h
    # of two generators show that + is not associative
    perm = [0, 3, 1, 4, 2, 5, 6, 7]
    add = [[0] * 8 for _ in range(8)]
    for x, y in product(range(8), repeat=2):
        add[perm[x]][perm[y]] = perm[x ^ y ^ 4 * ({x & 3, y & 3} == {2, 3})]
    gens, tree = laws.spanning_tree(add, 0)
    assert gens == [1, 2, 3] and laws.associates_at(add, tree)
    assert not laws.associates_at(add, product(range(8), gens))
    assert not _decided(add, [[0] * 8 for _ in range(8)], 0)


def test_generator_decision_needs_latin_columns():
    # 0 + x = x and a + a = a: + is commutative and associative, and the
    # zero bracket meets every decided law, but no a + x is 0, so + is not
    # reproductive; the decider must refuse on its premise that each column
    # of + is a permutation
    add = [[0, 1], [1, 1]]
    zeros = [[0, 0], [0, 0]]
    assert not _decided(add, zeros, 0)
    L = FiniteLieHyperalgebra(gen_trivial_field(2), ["0", "a"], [[1, 2], [2, 2]],
                              [[1, 1], [1, 2]], [[1, 1], [1, 1]])
    report = check_lie_hyperalgebra(L)
    assert report.axioms["add-reproduction"] == {"ok": False, "witness": (1,), "detail": ""}
    with mock.patch.object(structures, "on_generators", return_value=(False, False)):
        assert check_lie_hyperalgebra(L).axioms == report.axioms


@st.composite
def element_tables(draw):
    """(add, br, zero): random tables of at most 9 elements, half of them
    with zero an identity of a commutative +, or the element tables of a
    corrupted classical algebra lifted to singleton masks."""
    if draw(st.booleans()):
        L = _singleton_lift(draw(corrupted_algebras()))
        return L.add_elt, L.br_elt, L.zero
    n = draw(st.integers(1, 9))
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    add, br, zero = draw(table), draw(table), draw(cell)
    if draw(st.booleans()):
        for x in range(n):
            for y in range(x):
                add[x][y] = add[y][x]
        for x in range(n):
            add[zero][x] = add[x][zero] = x
    return add, br, zero


def test_generator_decision_is_sound_on_unchecked_tables():
    outcomes, premises = set(), set()

    @settings(max_examples=200, deadline=None)
    @given(element_tables())
    def sound(tables):
        add, br, zero = tables
        rng = range(len(add))
        premises.add(all(add[zero][x] == x == add[x][zero] for x in rng)
                     and all(add[x][y] == add[y][x] for x in rng for y in rng)
                     and all(add[a][b] != b for a in rng for b in rng if a != zero))
        decided = _decided(add, br, zero)
        outcomes.add(decided)
        if decided:
            for x, y, c in product(rng, repeat=3):
                assert add[add[x][y]][c] == add[x][add[y][c]]
                assert br[add[x][y]][c] == add[br[x][c]][br[y][c]]
                assert br[c][add[x][y]] == add[br[c][x]][br[c][y]]
                assert add[add[br[x][br[y][c]]][br[y][br[c][x]]]][br[c][br[x][y]]] == zero

    sound()
    assert outcomes == {True, False}
    assert False in premises


def _additive_map(add, zero, gens, images):
    """The additive map of an elementary abelian + that sends the basis gens
    to images, extended along +."""
    row, frontier = {zero: zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g, image in zip(gens, images):
            if add[x][g] not in row:
                row[add[x][g]] = add[row[x]][image]
                frontier.append(add[x][g])
    return [row[x] for x in range(len(add))]


@lru_cache(maxsize=None)
def lie_bases():
    """The classical bases that satisfy Jacobi."""
    return [A for A in group_bases() if _loops_hold(A.add, A.bracket, A.zero)]


@st.composite
def scalar_tables(draw):
    """(add, smul, br, zero): the sums and brackets of a classical Lie
    algebra, with each scalar row one of its own rows, an additive map or a
    random row, and one cell changed in a quarter of them."""
    A = draw(st.sampled_from(lie_bases()))
    gens = laws.spanning_tree(A.add, A.zero)[0]
    element = st.integers(0, A.size - 1)
    smul = []
    for _ in range(A.field.size):
        kind = draw(st.sampled_from(["own", "own", "additive", "random"]))
        if kind == "own":
            row = list(A.smul[draw(st.integers(0, A.field.size - 1))])
        elif kind == "additive":
            row = _additive_map(A.add, A.zero, gens, [draw(element) for _ in gens])
        else:
            row = [draw(element) for _ in range(A.size)]
        if draw(st.integers(0, 3)) == 0:
            row[draw(element)] = draw(element)
        smul.append(row)
    return A.add, smul, A.bracket, A.zero


def test_scalar_decision_is_sound_on_unchecked_tables():
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(scalar_tables())
    def sound(tables):
        add, smul, br, zero = tables
        verdicts = laws.on_generators(add, smul, br, zero)
        assert verdicts[0]
        decided = verdicts[1]
        outcomes.add(decided)
        if decided:
            for s, x, y in product(smul, range(len(add)), range(len(add))):
                assert s[add[x][y]] == add[s[x]][s[y]]
                assert br[s[x]][y] == s[br[x][y]] == br[x][s[y]]

    sound()
    assert outcomes == {True, False}


def _sums(orders, values=None):
    """(add, values): the + table of Z/m1 x Z/m2 x ..., element i standing
    for the tuple values[i], in lexicographic order unless given."""
    values = values or list(product(*map(range, orders)))
    index = {v: i for i, v in enumerate(values)}
    return [[index[tuple((a + b) % m for a, b, m in zip(u, v, orders))] for v in values]
            for u in values], values


def _per_generator_steps(add, zero):
    gens = laws.spanning_tree(add, zero)[0]
    return gens, list(product(range(len(add)), gens))


def _loops_hold(add, br, zero):
    """Bi-additivity and Jacobi on every triple (+ is a group here)."""
    return all(br[add[x][y]][c] == add[br[x][c]][br[y][c]]
               and br[c][add[x][y]] == add[br[c][x]][br[c][y]]
               and add[add[br[x][br[y][c]]][br[y][br[c][x]]]][br[c][br[x][y]]] == zero
               for x, y, c in product(range(len(add)), repeat=3))


def _agree_on_tree_brackets(orders, values, tree_path, trials=25):
    """On + of Z/m1 x ..., brackets sum_ij k_i(x) k_j(y) m_ij with k_g(x)
    the count of g on x's path in the spanning tree and m_ij drawn, one
    cell changed in a third of them: the decider takes the tree path
    exactly when tree_path, and it, the per-generator path and the loops
    agree. Returns the outcomes."""
    add, values = _sums(orders, values)
    index = {v: i for i, v in enumerate(values)}
    zero, n = index[(0,) * len(orders)], len(add)
    gens, tree = laws.spanning_tree(add, zero)
    assert (laws._steps(add, zero) != _per_generator_steps(add, zero)) == tree_path
    counts = {zero: [0] * len(gens)}
    for s, g in tree:
        counts[add[s][g]] = [k + (h == g) for k, h in zip(counts[s], gens)]
    rng, outcomes = random.Random(n), set()
    for _ in range(trials):
        m = [[rng.choice(values) if rng.random() < 0.3 else (0,) * len(orders) for _ in gens]
             for _ in gens]

        def bracket(x, y):
            return index[tuple(sum(kx * ky * m[i][j][t] for i, kx in enumerate(counts[x])
                                   for j, ky in enumerate(counts[y])) % mt
                               for t, mt in enumerate(orders))]

        br = [[bracket(x, y) for y in range(n)] for x in range(n)]
        if rng.random() < 1 / 3:
            br[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        truth = _loops_hold(add, br, zero)
        assert _decided(add, br, zero) == truth
        with mock.patch.object(laws, "_steps", _per_generator_steps):
            assert _decided(add, br, zero) == truth
        outcomes.add(truth)
    return outcomes


def test_tree_steps_agree_with_loops_on_elementary_abelian_sums():
    # (Z/p)^d: the generators are a basis and every bracket of the family
    # is bilinear unless a cell was changed
    outcomes = set()
    for orders in ((5,), (3, 3), (2, 2, 2), (2, 2, 2, 2)):
        outcomes |= _agree_on_tree_brackets(orders, None, True)
    assert outcomes == {True, False}


def test_generator_steps_agree_with_loops_on_other_sums():
    # Z/4, Z/9 and Z/4 x Z/4 are free over Z/4 or Z/9 and take the tree
    # path. The others take the per-generator path: the first generator of
    # Z/2 x Z/4 and Z/3 x Z/9 has order 4 or 9, but |V| is not a power of
    # it; relabelled Z/4 and Z/9 have generators 2, 1 and 3, 1, and |V| is
    # a power of the first one's order but 2 1 and 3 1 are not 0. There
    # the tree brackets break a relation such as 3 1 = 3 unless m allows it
    outcomes = set()
    for orders in ((4,), (9,), (4, 4)):
        outcomes |= _agree_on_tree_brackets(orders, None, True)
    relabelled = {4: [0, 2, 1, 3], 9: [0, 3, 1, 2, 4, 5, 6, 7, 8]}
    for orders, values in (((2, 4), None), ((3, 9), None),
                           ((4,), [(v,) for v in relabelled[4]]),
                           ((9,), [(v,) for v in relabelled[9]])):
        outcomes |= _agree_on_tree_brackets(orders, values, False)
    assert outcomes == {True, False}


def test_scalar_decision_matches_loops_on_a_one_sided_bracket():
    # on GF(3)^2, [x, y] = x_1 y_0 e_1 is bilinear with a zero Jacobiator
    # but not alternating, so a linear map may commute with it on one side
    # only. Over every linear map, and each one with a cell changed, the
    # decision is the loops' verdict
    vecs = [int_to_digits(v, 3, 2) for v in range(9)]
    add = [[digits_to_int([(a + b) % 3 for a, b in zip(u, w)], 3) for w in vecs] for u in vecs]
    br = [[digits_to_int([0, u[1] * w[0] % 3], 3) for w in vecs] for u in vecs]
    assert _decided(add, br, 0)
    pairs, outcomes = list(product(range(9), repeat=2)), set()
    for m in product(range(3), repeat=4):
        row = [digits_to_int([(m[0] * u[0] + m[1] * u[1]) % 3, (m[2] * u[0] + m[3] * u[1]) % 3],
                             3) for u in vecs]
        for s in (row, row[:4] + [(row[4] + 1) % 9] + row[5:]):
            holds = (all(s[add[x][y]] == add[s[x]][s[y]] for x, y in pairs),
                     all(br[s[x]][y] == s[br[x][y]] for x, y in pairs),
                     all(br[x][s[y]] == s[br[x][y]] for x, y in pairs))
            assert laws.on_generators(add, [s], br, 0) == (True, all(holds))
            outcomes.add(holds)
    assert {(True, True, True), (True, True, False), (True, False, True)} <= outcomes
    assert any(not holds[0] for holds in outcomes)
