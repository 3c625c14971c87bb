"""Axiom checkers and witness replay on hand-built and generated tables."""

import random

import pytest

from hyperlie.errors import CarrierCapExceeded, FieldMismatch, HyperlieError, MalformedTable
from hyperlie.generators import gen_trivial_field, gen_trivial_from_lie
from hyperlie.structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
    check_hyperfield,
    check_hypergroup,
    check_lie_hyperalgebra,
    reevaluate,
)


def test_fixture_axioms_all_pass(ex1, ex2, ab1, m1, m2, m3, m4):
    for L in (ex1, ex2, ab1, m4):
        assert check_lie_hyperalgebra(L).ok
    for F in (m1, m2, m3):
        assert check_hyperfield(F).ok


def test_self_modules_pass(m1_module, m2_module, m3_module):
    for L in (m1_module, m2_module, m3_module):
        rep = check_lie_hyperalgebra(L)
        assert rep.ok, rep.failures


def test_hypergroup_bad_associativity_witnessed():
    # 2-element table: 0∘0={0,1} breaks reproduction row for 1? build a
    # genuinely non-associative one instead: x∘y = {0} except 1∘1={1}
    add = [[1, 1], [1, 2]]
    hg = Hypergroup(["u", "v"], add)
    rep = check_hypergroup(hg)
    assert not rep.ok
    name = rep.failures[0]
    w = rep.axioms[name]["witness"]
    assert reevaluate(hg, name, w) is False


def test_reevaluate_confirms_passing_axiom(ab1):
    rep = check_lie_hyperalgebra(ab1)
    for name, entry in rep.axioms.items():
        assert entry["ok"]
        if entry["witness"] is not None:
            assert reevaluate(ab1, name, entry["witness"]) is True


def test_trivial_field_detection():
    F = gen_trivial_field(3)
    assert F.is_trivial
    assert F.gf_order == 3
    assert check_hyperfield(F).ok


def test_nontrivial_field_not_flagged_trivial(m1):
    assert not m1.is_trivial


def test_duplicate_names_rejected():
    with pytest.raises(MalformedTable):
        Hypergroup(["x", "x"], [[1, 2], [2, 1]])


@pytest.mark.parametrize("build", [
    lambda F: Hypergroup([], []),
    lambda F: FiniteHyperfield([], [], []),
    lambda F: FiniteLieHyperalgebra(F, [], [], [[]] * F.size, []),
], ids=["hypergroup", "hyperfield", "lie_hyperalgebra"])
def test_empty_carrier_rejected(build):
    with pytest.raises(MalformedTable, match="empty carrier"):
        build(gen_trivial_field(3))


def test_ragged_table_rejected():
    with pytest.raises(MalformedTable):
        Hypergroup(["x", "y"], [[1, 2]])


def test_mask_out_of_range_rejected():
    with pytest.raises(MalformedTable):
        Hypergroup(["x", "y"], [[1, 4], [4, 1]])


def test_field_type_enforced():
    with pytest.raises(FieldMismatch):
        FiniteLieHyperalgebra("F3", ["0"], [[1]], [[1]], [[1]])


def test_carrier_cap_env(monkeypatch):
    monkeypatch.setenv("HYPERLIE_MAX_CARRIER", "10")
    with pytest.raises(CarrierCapExceeded):
        gen_trivial_from_lie(3, 3, {})
    monkeypatch.delenv("HYPERLIE_MAX_CARRIER")
    assert gen_trivial_from_lie(3, 3, {}).size == 27


def test_even_char_warning_flag():
    L = gen_trivial_from_lie(2, 2, {})
    assert L.even_char_warning
    assert not gen_trivial_from_lie(3, 1, {}).even_char_warning


def test_zero_located(ex1):
    assert ex1.names[ex1.zero] == "0"


def test_broken_hyperfield_distributivity_witnessed():
    # tweak one mul cell of trivial F3 so distributivity fails
    F0 = gen_trivial_field(3)
    mul = [list(r) for r in F0.mul]
    mul[2][2] = 1 << 2  # 2*2 = 2 instead of 1
    F = FiniteHyperfield(F0.names, [list(r) for r in F0.add], mul)
    rep = check_hyperfield(F)
    assert not rep.ok
    name = rep.failures[0]
    assert reevaluate(F, name, rep.axioms[name]["witness"]) is False


def test_replay_reads_both_sides_of_two_sided_laws():
    # at each witness the first side of the law holds and the second fails
    hg = Hypergroup(["u", "v"], [[1, 2], [1, 1]])  # u + {u, v} = {u, v}, {u, v} + u = {u}
    assert reevaluate(hg, "add-reproduction", (0,)) is False
    F0 = gen_trivial_field(3)
    mul = [list(r) for r in F0.mul]
    mul[1][0] = 1 << 1  # 0 * 1 = 0, but 1 * 0 = 1
    F = FiniteHyperfield(F0.names, F0.add, mul)
    assert reevaluate(F, "zero-absorbing", (1,)) is False
    L0 = gen_trivial_from_lie(3, 1, {})
    x = (L0.zero + 1) % 3
    add = [list(r) for r in L0.add]
    add[x][L0.zero] = 1 << L0.zero  # 0 + x = x, but x + 0 = 0
    L = FiniteLieHyperalgebra(L0.field, L0.names, add, L0.smul, L0.bracket)
    assert reevaluate(L, "zero-vector-identity", (x,)) is False



@pytest.mark.parametrize("witness", [(0, 1), (0, 1, 2, 0)])
def test_replay_rejects_a_witness_of_the_wrong_length(witness):
    with pytest.raises(HyperlieError, match="takes 3 witness elements"):
        reevaluate(gen_trivial_field(3), "add-associative", witness)


def _commutative_loops(n):
    """Every symmetric Latin square on 0..n-1 with identity 0."""
    cells = [(x, y) for x in range(1, n) for y in range(x, n)]
    table = [[x + y if 0 in (x, y) else None for y in range(n)] for x in range(n)]

    def fill(i):
        if i == len(cells):
            yield [row[:] for row in table]
            return
        x, y = cells[i]
        for v in range(n):
            if v not in table[x] and v not in table[y]:
                table[x][y] = table[y][x] = v
                yield from fill(i + 1)
                table[x][y] = table[y][x] = None

    return fill(0)


def test_associative_add_matches_every_triple_on_commutative_loops():
    # the 456 commutative loops of order 6, relabelled: 60 are groups, so
    # Light's test on additive generators (zero located) and the setwise
    # scan (no zero vector) must each tell the other 396 apart
    rng = random.Random(6)
    names, n = [f"e{i}" for i in range(6)], 6
    F2 = gen_trivial_field(2)
    verdicts = []
    for loop in _commutative_loops(n):
        sigma = rng.sample(range(n), n)
        add = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                add[sigma[x]][sigma[y]] = 1 << sigma[loop[x][y]]
        truth = all(loop[loop[x][y]][z] == loop[x][loop[y][z]]
                    for x in range(n) for y in range(n) for z in range(n))
        F = FiniteHyperfield(names, add, add)
        L = FiniteLieHyperalgebra(F2, names, add, [[3] * n] * 2, add)
        assert F.zero == sigma[0] and L.zero is None
        assert F.associative_add == L.associative_add == truth
        verdicts.append(truth)
    assert (len(verdicts), sum(verdicts)) == (456, 60)
