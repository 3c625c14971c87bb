"""Relation engine on the worked 81-element fixture and friends.

Expected values below were produced by the engine once, cross-checked
against the linear oracle, and frozen. Derivations are noted inline.
"""

import gc

import pytest

from hyperlie import relations
from hyperlie.analysis import relation_S
from hyperlie.errors import BoundsExceeded, InternalInvariant, NotSymmetric
from hyperlie.relations import (
    DEFAULT_BOUNDS,
    HARD_CAP,
    BinaryRelation,
    ExpressionBounds,
    Partition,
    _REL_CACHE,
    _leaf_map,
    clear_relation_cache,
    closed_relation,
    coefficient_pair_family,
    hyper_derived_sets,
    is_strongly_regular,
    relation_A,
    relation_L,
    relation_Sn,
    relation_alpha,
    relation_with_escalation,
    sn_pair_levels,
    transitive_closure,
)
from hyperlie.generators import gen_trivial_field, preset_structure
from hyperlie.quotients import linear_oracle_partition
from hyperlie.sets import iter_bits
from hyperlie.structures import FiniteHyperfield, FiniteLieHyperalgebra


def _names(L, mask):
    return sorted(L.names[i] for i in iter_bits(mask))


def test_bounds_validation():
    with pytest.raises(BoundsExceeded):
        ExpressionBounds(0, 1, 1, 1)
    b = ExpressionBounds(2, 2, 1, 1)
    assert b.astuple() == (2, 2, 1, 1)
    assert b.within(HARD_CAP)
    assert b.succ(HARD_CAP).astuple() == (3, 3, 2, 2)
    assert HARD_CAP.succ(HARD_CAP) == HARD_CAP  # clamped


def test_operand_classes_of_the_presets(ex1, ex2, m4):
    # ex1's bracket has 27 operand classes, elements with equal rows and
    # equal columns, each mapped to its least element, and a set to the
    # union of its elements' images; no two elements of ex2 or m4 are mates,
    # so their maps fix every singleton and the full mask
    leaf = _leaf_map(ex1.bracket)
    singletons = [1 << x for x in range(ex1.size)]
    reps = {leaf(s) for s in singletons}
    assert len(reps) == 27
    assert all(leaf(s) <= s and leaf(leaf(s)) == leaf(s) for s in singletons)
    assert leaf((1 << ex1.size) - 1) == sum(reps)
    cols = list(zip(*ex1.bracket))
    mates = {x for x in range(ex1.size) if leaf(1 << x) == 1}
    assert {x for x in range(ex1.size) if ex1.bracket[x] == ex1.bracket[0]} == mates
    assert {x for x in range(ex1.size) if cols[x] == cols[0]} == mates
    for L in ex2, m4:
        leaf = _leaf_map(L.bracket)
        assert all(leaf(1 << x) == 1 << x for x in range(L.size))
        assert leaf((1 << L.size) - 1) == (1 << L.size) - 1


def test_leaf_map_is_kept_once_per_structure(ex1, ex2, monkeypatch):
    # read by every summand enumeration from two leaves and by
    # relation_L_values
    built, real = [], relations._leaf_map
    monkeypatch.setattr(relations, "_leaf_map", lambda table: built.append(table) or real(table))
    clear_relation_cache()
    for L in ex1, ex2, ex1, ex2:
        relations.summand_pair_family(L, DEFAULT_BOUNDS, (1 << L.size) - 1)
        relations.relation_L_values(L, DEFAULT_BOUNDS)
    assert built == [ex1.bracket, ex2.bracket]


def test_hyper_derived_chain_ex1(ex1):
    # bracket values: all of <a,b,c> plus 0 at depth 1 (27 elements),
    # then <a> (3), then {0}
    chain = hyper_derived_sets(ex1, 3)
    assert [m.bit_count() for m in chain] == [81, 27, 3, 1]
    assert _names(ex1, chain[2]) == ["0", "2a", "a"]
    assert _names(ex1, chain[3]) == ["0"]


def test_pair_counts_ex1(ex1):
    # diagonal; 27 classes of 3 (3*3=9 pairs each); 3 classes of 27
    assert relation_L(ex1, DEFAULT_BOUNDS).pair_count == 81
    assert relation_Sn(ex1, 2, DEFAULT_BOUNDS).pair_count == 243
    assert relation_A(ex1, DEFAULT_BOUNDS).pair_count == 2187


def test_specific_memberships_ex1(ex1):
    s2 = relation_Sn(ex1, 2, DEFAULT_BOUNDS)
    ia, i2a, ib = (ex1.index[n] for n in ("a", "2a", "b"))
    assert s2.has(ia, i2a)
    assert not s2.has(ia, ib)
    a_rel = relation_A(ex1, DEFAULT_BOUNDS)
    assert a_rel.has(ia, ib)


def test_chain_inclusion_ex1(ex1):
    rels = [
        relation_L(ex1, DEFAULT_BOUNDS),
        relation_Sn(ex1, 3, DEFAULT_BOUNDS),
        relation_Sn(ex1, 2, DEFAULT_BOUNDS),
        relation_A(ex1, DEFAULT_BOUNDS),
    ]
    for finer, coarser in zip(rels, rels[1:]):
        for x in range(ex1.size):
            assert finer.row(x) & ~coarser.row(x) == 0


def test_closures_match_oracle_ex1(ex1):
    assert transitive_closure(relation_L(ex1, DEFAULT_BOUNDS)).is_diagonal()
    s2 = transitive_closure(relation_Sn(ex1, 2, DEFAULT_BOUNDS))
    assert s2.num_classes == 27
    assert s2 == linear_oracle_partition(ex1, 2)
    a_star = transitive_closure(relation_A(ex1, DEFAULT_BOUNDS))
    assert a_star.num_classes == 3
    assert a_star == linear_oracle_partition(ex1, 1)


def test_depth_stabilizes_at_value_relation(ex1):
    # beyond the solvable length the gate empties and Sn collapses to L
    l_star = transitive_closure(relation_L(ex1, DEFAULT_BOUNDS))
    for n in (3, 4):
        sn = transitive_closure(relation_Sn(ex1, n, DEFAULT_BOUNDS))
        assert sn == l_star


def test_bounds_monotone_ex1(ex1):
    small = relation_Sn(ex1, 2, ExpressionBounds(1, 1, 1, 1))
    big = relation_Sn(ex1, 2, DEFAULT_BOUNDS)
    for x in range(ex1.size):
        assert small.row(x) & ~big.row(x) == 0


def test_coefficient_pairs_swap_closed(ex1):
    fam = coefficient_pair_family(ex1.field, DEFAULT_BOUNDS)
    pairs = set(fam)
    assert pairs == {(b, a) for a, b in pairs}


def test_coefficient_pairs_diagonal_when_commutative(ex1):
    # commutative scalars make permuted products equal the original
    for a, b in coefficient_pair_family(ex1.field, HARD_CAP):
        assert a == b


def test_transitive_closure_rejects_asymmetric():
    rel = BinaryRelation([0b011, 0b010, 0b100])
    with pytest.raises(NotSymmetric):
        transitive_closure(rel)


def test_partition_helpers():
    p = Partition.from_class_of([0, 0, 1, 1, 2])
    assert p.num_classes == 3
    q = Partition.all_pairs(5)
    assert p.refines(q) and not q.refines(p)
    assert p.meet(q) == p
    assert Partition.diagonal(5).refines(p)


def test_strong_regularity_of_engine_partitions(ex1):
    for n in (1, 2, 3):
        part = transitive_closure(relation_Sn(ex1, n, DEFAULT_BOUNDS))
        ok, witness = is_strongly_regular(ex1, part)
        assert ok and witness is None


def test_strong_regularity_counterexample(ex1):
    # merging {0,d} only: d+d = 2d must then match 0+0 = 0, it does not
    class_of = list(range(ex1.size))
    class_of[ex1.index["d"]] = ex1.index["0"]
    seen = {}
    packed = []
    for c in class_of:
        packed.append(seen.setdefault(c, len(seen)))
    bad = Partition.from_class_of(packed)
    ok, witness = is_strongly_regular(ex1, bad)
    assert not ok
    assert witness is not None


def test_alpha_trivial_field_is_diagonal():
    F = gen_trivial_field(3)
    part = transitive_closure(relation_alpha(F, DEFAULT_BOUNDS))
    assert part.is_diagonal()
    assert is_strongly_regular(F, part)[0]


def test_sums_on_a_commutative_nonassociative_addition_fold_every_order():
    # a + a = b, a + b = b + a = a, b + b = a: (a + a) + b = a but
    # (a + b) + a = b, so the three-term sums relate a and b, which the
    # order-free fold (every two-term sum plus one term) never shows
    add = [[2, 1], [1, 1]]
    F = FiniteHyperfield(["a", "b"], add, [[1, 1], [1, 2]])
    L = FiniteLieHyperalgebra(F, ["a", "b"], add, [[1, 1], [1, 2]], [[1, 1], [1, 1]])
    assert F.commutative_add and not F.associative_add and not L.associative_add
    for t, rows in ((2, [1, 2]), (3, [3, 3])):
        bounds = ExpressionBounds(t, 1, 1, 1)
        assert relation_alpha(F, bounds).rows == rows
        assert relation_A(L, bounds).rows == rows


def test_alpha_coset_field_collapses(m1):
    # [1] + [-1] covers both 0 and nonzero classes, so closure is all-pairs
    part = transitive_closure(relation_alpha(m1, DEFAULT_BOUNDS))
    assert part.is_all_pairs()


def test_escalation_oracle_match(ex1):
    part, status = relation_with_escalation(
        ex1, "Sn", 2, oracle=linear_oracle_partition(ex1, 2)
    )
    assert status.mode == "exact-oracle-match"
    assert status.bounds_used == DEFAULT_BOUNDS
    assert part.num_classes == 27


def test_escalation_pinned_bounds(ex1):
    part, status = relation_with_escalation(
        ex1, "Sn", 2, start=DEFAULT_BOUNDS, cap=DEFAULT_BOUNDS
    )
    assert status.mode == "bound-limited"
    assert part.num_classes == 27


def test_escalation_all_pairs_stops(ex2):
    part, status = relation_with_escalation(ex2, "A", 1)
    assert part.is_all_pairs()
    assert status.mode == "stabilized-heuristic"
    assert status.bounds_used == DEFAULT_BOUNDS


def test_escalation_start_above_cap(ex1):
    with pytest.raises(BoundsExceeded):
        relation_with_escalation(ex1, "Sn", 2, start=HARD_CAP,
                                 cap=DEFAULT_BOUNDS)


def test_relation_cache_reuses(ex1):
    clear_relation_cache()
    r1 = closed_relation(ex1, "Sn", 2, DEFAULT_BOUNDS)
    r2 = closed_relation(ex1, "Sn", 2, DEFAULT_BOUNDS)
    assert r1[1] is r2[1]


def test_relation_cache_entries_live_with_their_structure(ab1):
    clear_relation_cache()
    L = preset_structure("ab1")
    closed_relation(L, "A", 1, DEFAULT_BOUNDS)
    sn_pair_levels(L, 2, DEFAULT_BOUNDS)
    _, kept = closed_relation(ab1, "L", 1, DEFAULT_BOUNDS)
    assert set(_REL_CACHE) == {L, ab1}
    del L
    gc.collect()
    assert list(_REL_CACHE) == [ab1]
    assert closed_relation(ab1, "L", 1, DEFAULT_BOUNDS)[1] is kept
    clear_relation_cache()
    assert not _REL_CACHE
    assert closed_relation(ab1, "L", 1, DEFAULT_BOUNDS)[1] is not kept


def test_relation_cache_keys_hold_gates_not_depths(ex1):
    clear_relation_cache()
    b = ExpressionBounds(1, 1, 1, 1)
    served = [closed_relation(ex1, "A", 0, b)]
    served += [closed_relation(ex1, "Sn", n, b) for n in (1, 2, 3, 4, 5, 10**6)]
    levels = [sn_pair_levels(ex1, n, b) for n in (1, 2, 3, 4, 5, 10**6)]
    gates = hyper_derived_sets(ex1, 4)
    assert [g.bit_count() for g in gates] == [81, 27, 3, 1, 1]
    assert set(_REL_CACHE[ex1]) == {
        (kind, g, (1, 1, 1, 1)) for kind in ("Sn", "Sn-levels") for g in gates}
    assert served[0] is served[1]
    assert served[4] is served[5] is served[6]
    assert levels[3] is levels[4] is levels[5]


def test_depths_with_one_gate_share_one_enumeration(ex2, monkeypatch):
    # ex2 is perfect: every gate is the whole carrier
    runs = []
    real = relations.summand_pair_family
    monkeypatch.setattr(relations, "summand_pair_family",
                        lambda L, bounds, gate: runs.append(gate) or real(L, bounds, gate))
    clear_relation_cache()
    relation_S(ex2)
    assert runs == [(1 << ex2.size) - 1]
    assert closed_relation(ex2, "Sn", 2, DEFAULT_BOUNDS) is closed_relation(
        ex2, "A", 0, DEFAULT_BOUNDS)
    assert len(runs) == 1


@pytest.mark.parametrize("name, enumerations", [("ex1", 3), ("ab1", 1)])
def test_relation_S_enumerates_up_to_its_proven_stop(request, monkeypatch, name, enumerations):
    # the closure is the diagonal at depth 3 on ex1 and at depth 1 on ab1,
    # so no deeper gate is enumerated
    L = request.getfixturevalue(name)
    runs = []
    real = relations.summand_pair_family
    monkeypatch.setattr(relations, "summand_pair_family",
                        lambda L, bounds, gate: runs.append(gate) or real(L, bounds, gate))
    clear_relation_cache()
    assert relation_S(L)[0].is_diagonal()
    assert len(runs) == enumerations


def _built_owed_classes(monkeypatch):
    """Names of relations._Owed and _Layer, each time one is built."""
    built = []
    for name in ("_Owed", "_Layer"):
        real = getattr(relations, name)
        monkeypatch.setattr(relations, name,
                            lambda *args, real=real: built.append(real.__name__) or real(*args))
    return built


@pytest.mark.parametrize("m", [1, 2, 3])
def test_owed_states_are_built_from_three_leaves(ex1, monkeypatch, m):
    # up to two leaves the summands are read off the leaf pool in closed
    # form; the owed-multiset DP runs from m = 3 on a gate that leaves a
    # class leaf ungated: ex1's Sn:2 gate, where the 81 leaves fall into 27
    # operand classes, 9 of them gated. The exact pool, which the reference
    # enumerator reads, keeps all 81 leaves
    built = _built_owed_classes(monkeypatch)
    pools, real = [], relations._owed_dp
    monkeypatch.setattr(relations, "_owed_dp",
                        lambda pool, *args: pools.append(pool) or real(pool, *args))
    gate = hyper_derived_sets(ex1, 1)[-1]
    relations.summand_pair_family(ex1, ExpressionBounds(1, m, 1, 1), gate)
    assert set(built) == ({"_Owed", "_Layer"} if m == 3 else set())
    assert [(len(pool), sum(sw for *_, sw in pool)) for pool in pools] == (
        [(27, 9)] if m == 3 else [])
    coeffs = coefficient_pair_family(ex1.field, ExpressionBounds(3, 3, 1, 1))
    assert len(relations._leaf_pool(ex1, coeffs, gate)) == 81


def test_the_dp_reads_every_state_through_the_leaf_map(ex1, monkeypatch):
    # br[U][X] reads U and X only up to class mates, so every state that
    # the DP brackets, on either side and at the root, is its own class
    # image; on ex1's Sn:2 gate some stored states are not
    leaf, layers, read = _leaf_map(ex1.bracket), [], []

    class Layer(relations._Layer):
        def sources(self, owed, budget):
            out = super().sources(owed, budget)
            read.extend(state for src in out for state in src)
            return out

    monkeypatch.setattr(relations, "_Layer", lambda *args: layers.append(Layer(*args)) or layers[-1])
    gate = hyper_derived_sets(ex1, 1)[-1]
    relations.summand_pair_family(ex1, ExpressionBounds(1, 3, 1, 1), gate)
    read += [state for layer in layers for group in layer.operands.values() for state in group]
    assert read and all(leaf(U) == U and leaf(V) == V for _, U, V in read)
    assert any(leaf(U) != U or leaf(V) != V
               for layer in layers for group in layer.groups.values() for _, U, V in group)


@pytest.mark.parametrize("m", [3, 4])
def test_full_gates_build_no_owed_states(ab1, ex2, monkeypatch, m):
    # with every leaf gated the summands are rectangles, and no owed
    # multiset is formed
    built = _built_owed_classes(monkeypatch)
    for L in (ab1, ex2):
        relations.summand_pair_family(L, ExpressionBounds(1, m, 1, 1), (1 << L.size) - 1)
    assert built == []


_SN_ENTRIES = {
    "closed_relation": lambda L, n, bounds: closed_relation(L, "Sn", n, bounds),
    "relation_Sn": relation_Sn,
    "sn_pair_levels": sn_pair_levels,
}


@pytest.mark.parametrize("entry", sorted(_SN_ENTRIES))
def test_depth_below_one_is_refused_after_the_bounds(ab1, entry):
    call = _SN_ENTRIES[entry]
    with pytest.raises(BoundsExceeded) as exc:
        call(ab1, 0, DEFAULT_BOUNDS)
    assert str(exc.value) == "depth index must be >= 1, got 0"
    with pytest.raises(BoundsExceeded) as exc:
        call(ab1, -3, DEFAULT_BOUNDS)
    assert str(exc.value) == "depth index must be >= 1, got -3"
    with pytest.raises(BoundsExceeded) as exc:
        call(ab1, 0, ExpressionBounds(5, 1, 1, 1))
    assert str(exc.value) == "bounds (5, 1, 1, 1) exceed hard cap (4, 4, 3, 3)"
