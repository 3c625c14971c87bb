"""Property-based invariants over randomized small structures."""

import json
import random
from functools import lru_cache, reduce

import pytest

from hypothesis import given, settings, strategies as st

from conftest import _RANDOM_SPECS, _bilinear_algebra, _conjugated, _relabelled, _singleton_lift
from reference_linear import linear_oracle_Sn, mat_inverse, random_invertible

from hyperlie.analysis import relation_S
from hyperlie.generators import (
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    preset_structure,
)
from hyperlie.gf import classical_tables, get_gf
from hyperlie.interchange import parse_structure, serialize_structure
from hyperlie.quotients import (
    detect_trivial,
    linear_oracle_partition,
    quotient_lie_algebra,
)
from hyperlie.relations import (
    DEFAULT_BOUNDS,
    ExpressionBounds,
    Partition,
    clear_relation_cache,
    closed_relation,
    coefficient_pair_family,
    hyper_derived_sets,
    is_strongly_regular,
    relation_Sn,
    sn_pair_levels,
    transitive_closure,
)
from hyperlie.errors import NotLie, NotWellDefined
from hyperlie.sets import iter_bits
from hyperlie.structures import FiniteLieHyperalgebra, check_lie_hyperalgebra, reevaluate

# known-good structure constants, conjugated by seeded random bases in
# _algebra below so properties do not ride on a special basis
_FAMILY = [
    (3, 1, {}),
    (5, 1, {}),
    (3, 2, {(0, 1): (0, 1)}),
    (5, 2, {(0, 1): (0, 1)}),
    (3, 3, {(0, 1): (0, 0, 1)}),
    (3, 2, {}),
]


def _family_constants(pick: int, seed: int):
    """(q, dim, constants) of a _FAMILY member in a seeded random basis."""
    q, dim, constants = _FAMILY[pick % len(_FAMILY)]
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
                    for k in range(dim):
                        term = gf.mul[coef][C[a][b][k]]
                        for l in range(dim):
                            vec[l] = gf.add[vec[l]][gf.mul[term][Pinv[k][l]]]
            if any(vec):
                newC[(i, j)] = tuple(vec)
    return q, dim, newC


def _algebra(pick: int, seed: int):
    return gen_trivial_from_lie(*_family_constants(pick, seed))


algebras = st.builds(_algebra, st.integers(0, 5), st.integers(0, 10**6))


@settings(max_examples=20, deadline=None)
@given(algebras, st.integers(1, 3))
def test_depth_chain_inclusion(L, n):
    finer = relation_Sn(L, n + 1, DEFAULT_BOUNDS)
    coarser = relation_Sn(L, n, DEFAULT_BOUNDS)
    for x in range(L.size):
        assert finer.row(x) & ~coarser.row(x) == 0


@settings(max_examples=15, deadline=None)
@given(algebras, st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
def test_bounds_monotone(L, t, m, n):
    small = relation_Sn(L, n, ExpressionBounds(t, m, 1, 1))
    big = relation_Sn(L, n, ExpressionBounds(t + 1, m + 1, 1, 1))
    for x in range(L.size):
        assert small.row(x) & ~big.row(x) == 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 5, 7, 9]), st.integers(1, 3), st.integers(1, 2))
def test_coefficient_family_swap_closed(q, p, qq):
    F = gen_trivial_field(q)
    fam = set(coefficient_pair_family(F, ExpressionBounds(1, 1, p, qq)))
    assert fam == {(b, a) for a, b in fam}


@settings(max_examples=10, deadline=None)
@given(algebras)
def test_shared_gate_entries_serve_what_each_depth_computes_cold(L):
    cold = []
    for n in range(1, 5):
        clear_relation_cache()
        rel, part = closed_relation(L, "Sn", n, DEFAULT_BOUNDS)
        cold.append(([rel.row(x) for x in range(L.size)], part,
                     sn_pair_levels(L, n, DEFAULT_BOUNDS)))
    clear_relation_cache()
    for n, (rows, part, levels) in enumerate(cold, 1):
        rel, shared = closed_relation(L, "Sn", n, DEFAULT_BOUNDS)
        assert [rel.row(x) for x in range(L.size)] == rows
        assert shared == part
        assert sn_pair_levels(L, n, DEFAULT_BOUNDS) == levels


@settings(max_examples=15, deadline=None)
@given(algebras, st.integers(1, 3))
def test_closure_idempotent_and_coarser(L, n):
    rel = relation_Sn(L, n, DEFAULT_BOUNDS)
    part = transitive_closure(rel)
    for x in range(L.size):
        assert rel.row(x) & ~part.class_mask_of(x) == 0
    regrouped = Partition(list(part.classes))
    assert regrouped == part


@settings(max_examples=15, deadline=None)
@given(algebras, st.integers(1, 3))
def test_engine_refines_oracle(L, n):
    part = transitive_closure(relation_Sn(L, n, DEFAULT_BOUNDS))
    assert part.refines(linear_oracle_partition(L, n))


def _assert_relation_S_is_the_walk_past_its_stop(L):
    """relation_S against the meet of the closures at depths 1 .. r + 2,
    each computed cold, where r is the first depth whose gate repeats."""
    gates = hyper_derived_sets(L, L.size)
    r = next(n for n in range(1, L.size + 1) if gates[n] == gates[n - 1])
    walk = []
    for n in range(1, r + 3):
        clear_relation_cache()
        walk.append(closed_relation(L, "Sn", n, DEFAULT_BOUNDS)[1])
    meet = reduce(Partition.meet, walk)
    clear_relation_cache()
    part, m = relation_S(L)
    assert part == meet
    assert m == next(n for n, p in enumerate(walk, 1) if p == meet)
    # the stop by two equal consecutive closures names the same depth
    assert m == next(k for k in range(1, r + 2) if walk[k - 1] == walk[k])


@settings(max_examples=10, deadline=None)
@given(algebras)
def test_relation_S_is_the_walk_past_its_stop(L):
    _assert_relation_S_is_the_walk_past_its_stop(L)


@pytest.mark.parametrize("name", ["m4", "m3_module"])
def test_relation_S_is_the_walk_past_its_stop_on_multivalued_inputs(request, name):
    _assert_relation_S_is_the_walk_past_its_stop(request.getfixturevalue(name))


@settings(max_examples=10, deadline=None)
@given(algebras)
def test_relation_S_matches_the_linear_oracle(L):
    assert relation_S(L)[0] == linear_oracle_partition(L, L.size)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ab1", "ab5"])
def test_relation_S_matches_the_linear_oracle_on_the_presets(request, name):
    L = request.getfixturevalue(name)
    assert relation_S(L)[0] == linear_oracle_partition(L, L.size)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (2, 2)]), st.integers(0, 10**6))
def test_congruence_lemma_sampled(shape, seed):
    q, dim = shape
    L = gen_trivial_from_lie(q, dim, {})
    rng = random.Random(seed)
    class_of = [rng.randrange(1 + seed % L.size + 1) for _ in range(L.size)]
    rho = Partition.from_class_of(class_of)
    sr = is_strongly_regular(L, rho)[0]
    try:
        quotient_lie_algebra(L, rho)
        works = True
    except (NotWellDefined, NotLie):
        works = False
    assert sr == works


@settings(max_examples=15, deadline=None)
@given(algebras)
def test_hyper_derived_descends(L):
    chain = hyper_derived_sets(L, 4)
    for big, small in zip(chain, chain[1:]):
        assert small & ~big == 0


@settings(max_examples=15, deadline=None)
@given(algebras)
def test_interchange_roundtrip(L):
    text = serialize_structure(L)
    again = serialize_structure(parse_structure(text))
    assert text == again


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(7, (1, 2, 4)), (7, (1, 6)), (5, (1, 4)),
                        (11, (1, 3, 9, 5, 4)), (13, (1, 3, 9))]))
def test_coset_hyperfield_serialization_stable(spec):
    q, sub = spec
    F = gen_quotient_hyperfield(q, list(sub))
    a = serialize_structure(F)
    b = serialize_structure(gen_quotient_hyperfield(q, list(sub)))
    assert a == b
    assert json.loads(a)["kind"] == "hyperfield"


@settings(max_examples=20, deadline=None)
@given(algebras, st.integers(0, 10**6))
def test_reevaluate_reproduces_breakage(L, seed):
    """Corrupt one bracket cell; the checker's witness must replay False."""
    rng = random.Random(seed)
    i = rng.randrange(L.size)
    j = rng.randrange(L.size)
    old = L.bracket[i][j]
    new = 1 << rng.randrange(L.size)
    if new == old or i == j:
        return
    bracket = [list(row) for row in L.bracket]
    bracket[i][j] = new
    from hyperlie.structures import FiniteLieHyperalgebra

    broken = FiniteLieHyperalgebra(L.field, L.names, L.add, L.smul, bracket)
    rep = check_lie_hyperalgebra(broken)
    if rep.ok:  # a lucky corruption can still satisfy every axiom
        return
    name = rep.failures[0]
    assert reevaluate(broken, name, rep.axioms[name]["witness"]) is False


@settings(max_examples=10, deadline=None)
@given(algebras, st.integers(1, 3))
def test_sn_classes_are_cosets(L, n):
    """Closure classes are translates of the zero class."""
    part = transitive_closure(relation_Sn(L, n, DEFAULT_BOUNDS))
    sizes = {c.bit_count() for c in part.classes}
    assert len(sizes) == 1  # cosets of one subspace are equal-sized
    zero_class = part.class_mask_of(L.zero)
    for cls in part.classes:
        r = cls.bit_length() and (cls & -cls).bit_length() - 1
        shifted = 0
        for z in iter_bits(zero_class):
            shifted |= L.add[r][z]  # singleton cells on trivial carriers
        assert shifted == cls


@lru_cache(maxsize=None)
def _premise_bases():
    """The 9-element algebra, ex2 and the conftest random-basis algebras."""
    return (gen_trivial_from_lie(3, 2, {(0, 1): (1, 0)}), preset_structure("ex2"),
            *(_conjugated(*spec) for spec in _RANDOM_SPECS))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_premise_implies_the_axioms(data):
    # the linear oracle's theorem holds on Lie algebras only, so whatever
    # detect_trivial accepts must pass the checker; one changed cell of
    # the add, scalar or bracket table
    L = data.draw(st.sampled_from(_premise_bases()))
    tables = {"add": L.add, "smul": L.smul, "bracket": L.bracket}
    kind = data.draw(st.sampled_from(sorted(tables)))
    r = data.draw(st.integers(0, len(tables[kind]) - 1))
    c = data.draw(st.integers(0, L.size - 1))
    v = data.draw(st.integers(0, L.size - 1).filter(lambda v: 1 << v != tables[kind][r][c]))
    tables = {k: [list(row) for row in t] for k, t in tables.items()}
    tables[kind][r][c] = 1 << v
    bad = FiniteLieHyperalgebra(L.field, L.names, **tables)
    if detect_trivial(bad) is not None:
        assert check_lie_hyperalgebra(bad).ok


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_oracle_premise_holds_on_a_relabelled_prime_field(data):
    # a prime field in any labels, its zero included, keeps the oracle
    L = data.draw(st.sampled_from(_premise_bases()))
    fperm = data.draw(st.permutations(range(L.field.size)))
    relabelled = _relabelled(L, fperm, range(L.size))
    assert detect_trivial(L) is not None and detect_trivial(relabelled) is not None
    for n in (1, 2):
        assert linear_oracle_partition(relabelled, n) == linear_oracle_partition(L, n)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_oracle_premise_on_alternating_bilinear_brackets(rng):
    # such tables equal classical_tables of their basis brackets, so Jacobi
    # on basis triples decides the premise, as the checker decides the axioms
    L = _singleton_lift(_bilinear_algebra(3, 3, rng))
    assert (detect_trivial(L) is not None) == check_lie_hyperalgebra(L).ok


def test_oracle_premise_needs_an_alternating_bracket():
    # [a, a] = a extends to a bilinear bracket on GF(3), which is no Lie bracket
    add, smul, bracket = classical_tables(get_gf(3), 1, [[1]])
    masks = [[[1 << x for x in row] for row in t] for t in (add, smul, bracket)]
    L = FiniteLieHyperalgebra(gen_trivial_field(3), ["0", "a", "2a"], *masks)
    assert detect_trivial(L) is None


def test_oracle_premise_needs_gf_own_tables_off_prime_order():
    L = gen_trivial_from_lie(9, 1, {})
    swapped = [0, 2, 1, *range(3, 9)]  # 1 and 2 trade labels: not GF(9)'s tables
    assert detect_trivial(L) is not None
    assert detect_trivial(_relabelled(L, swapped, range(L.size))) is None


def _named_classes(L, part):
    return {frozenset(L.names[x] for x in iter_bits(m)) for m in part.classes}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 10**6), st.randoms(use_true_random=False))
def test_oracle_on_the_tables_matches_the_coordinate_oracle(pick, seed, rng):
    q, dim, constants = _family_constants(pick, seed)
    L = gen_trivial_from_lie(q, dim, constants)
    cperm = list(range(L.size))
    rng.shuffle(cperm)
    shuffled = _relabelled(L, range(q), cperm)
    for n in (1, 2, 3):
        reference = linear_oracle_Sn(q, dim, constants, n)
        assert linear_oracle_partition(L, n) == reference
        assert _named_classes(shuffled, linear_oracle_partition(shuffled, n)) == \
            _named_classes(L, reference)
