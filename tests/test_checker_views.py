"""The axiom checkers against the independent per-instance replay.

Structures of at most 17 elements, each with one corrupted table cell:
singleton corruptions of singleton-valued structures keep the checkers on
element-index tables, wider ones (and every multivalued structure) put
them on set lifts. For each axiom the checker reports, ok must hold
exactly when no instance of its domain replays False under reevaluate,
and a reported witness must replay False.

On singleton-valued algebras whose + is a commutative group, the Lie
checker decides associativity, bracket additivity and Jacobi on additive
generators; with that decision patched to fail it runs their loops. The
two reports must be equal, witnesses included, on the quotient decider
tests' corruptions of classical algebras lifted to singleton masks. The
decider checks its own premises, so on unchecked element tables a True
must survive the exhaustive loops.
"""

from functools import lru_cache
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import _singleton_lift
from hyperlie import structures
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
from test_quotient_deciders import corrupted_algebras

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


_DECIDED = ("add-associative", "bracket-additive-left", "bracket-additive-right",
         "jacobi-contains-zero")


def test_generator_decision_agrees_with_loops():
    holds_on_generators = structures.holds_on_generators
    outcomes = []

    def decide(*tables):
        outcomes.append(holds_on_generators(*tables))
        return outcomes[-1]

    @settings(max_examples=150, deadline=None)
    @given(corrupted_algebras(keep_group=True))
    def agrees(A):
        L = _singleton_lift(A)
        with mock.patch.object(structures, "holds_on_generators", decide):
            report = check_lie_hyperalgebra(L)
        with mock.patch.object(structures, "holds_on_generators", return_value=False):
            loops = check_lie_hyperalgebra(L)
        assert report.axioms == loops.axioms
        for name in _DECIDED:
            entry = report.axioms[name]
            if not entry["ok"]:
                assert reevaluate(L, name, entry["witness"]) is False, name
            elif L.size <= 9:
                assert all(reevaluate(L, name, w) for w in product(range(L.size), repeat=3))

    agrees()
    assert set(outcomes) == {True, False}


def test_generator_decision_needs_its_premises():
    # commutative, 0 + 0 = 0, but 0 is no identity and + no Latin square:
    # the generator clauses hold and + is not associative, so the decider
    # must refuse on its premises
    add = [[0, 2, 1], [2, 1, 2], [1, 2, 1]]
    zeros = [[0] * 3 for _ in range(3)]
    assert not structures.holds_on_generators(add, zeros, 0)
    F = gen_trivial_field(2)
    L = FiniteLieHyperalgebra(F, ["0", "1", "2"], [[1 << v for v in r] for r in add],
                              [[1] * 3, [1, 2, 4]], [[1] * 3 for _ in range(3)])
    report = check_lie_hyperalgebra(L)
    assert report.axioms["add-associative"]["ok"] is False
    with mock.patch.object(structures, "holds_on_generators", return_value=False):
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
        decided = structures.holds_on_generators(add, br, zero)
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
