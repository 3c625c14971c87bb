"""Quotient construction, derived series, and the linear oracle.

The bidirectional congruence sweep at the bottom is the small-scale
version of the acceptance run: on every partition of a tiny carrier,
strong regularity and quotient well-definedness must coincide.
"""

import itertools

import pytest

from hyperlie import quotients, relations
from hyperlie.errors import (
    CharTwoGate,
    DegenerateField,
    NotAVectorSpace,
    NotLie,
    NotWellDefined,
)
from hyperlie.generators import gen_trivial_field, gen_trivial_from_lie
from hyperlie.quotients import (
    FiniteField,
    FiniteLieAlgebra,
    derived_dims,
    derived_series,
    detect_trivial,
    is_perfect,
    linear_oracle_partition,
    quotient_field,
    quotient_lie_algebra,
    require_char_not_2,
    solvable_length,
)
from hyperlie.relations import (
    DEFAULT_BOUNDS,
    Partition,
    is_strongly_regular,
    relation_Sn,
    transitive_closure,
)
from hyperlie.analysis import iter_partitions_rgs
from hyperlie.structures import FiniteLieHyperalgebra
from reference_linear import classical_dims_chain


def test_finite_field_from_trivial():
    K = FiniteField.from_trivial_hyperfield(gen_trivial_field(5))
    K.validate()
    assert K.characteristic == 5
    two = K.names.index("2")
    assert K.add[two][K.neg(two)] == K.names.index("0")


def test_char_gate():
    K2 = FiniteField.from_trivial_hyperfield(gen_trivial_field(2))
    with pytest.raises(CharTwoGate):
        require_char_not_2(K2)
    require_char_not_2(FiniteField.from_trivial_hyperfield(gen_trivial_field(9)))


def test_gf9_characteristic_is_3():
    K = FiniteField.from_trivial_hyperfield(gen_trivial_field(9))
    K.validate()
    assert K.characteristic == 3


def test_quotient_field_diagonal_identity():
    F = gen_trivial_field(3)
    K = quotient_field(F, Partition.diagonal(3))
    assert K.size == 3
    assert K.characteristic == 3


def test_quotient_field_all_pairs_degenerates():
    with pytest.raises(DegenerateField):
        quotient_field(gen_trivial_field(3), Partition.all_pairs(3))


def test_quotient_field_multivalued_diagonal_not_well_defined(m1):
    with pytest.raises(NotWellDefined):
        quotient_field(m1, Partition.diagonal(m1.size))


def test_quotient_by_diagonal_reproduces_ex1(ex1):
    A = quotient_lie_algebra(ex1, Partition.diagonal(ex1.size))
    assert A.dimension == 4
    assert solvable_length(A) == 3
    assert derived_dims(A) == [4, 3, 1, 0]
    # bracket table carries over elementwise
    for i in range(ex1.size):
        for j in range(ex1.size):
            want = ex1.bracket[i][j]
            assert A.bracket[i][j] == want.bit_length() - 1


def test_diagonal_quotient_and_regularity_read_the_element_tables(ex1, monkeypatch):
    # on the diagonal of a singleton-valued algebra class i is element i:
    # neither the collapse nor a class lookup runs, and the tables agree
    # with the collapse's
    diagonal = Partition.diagonal(ex1.size)
    collapse = quotients._collapse
    want = [collapse(((op, table),), left, diagonal)[0] for op, table, left in (
        ("add", ex1.add, diagonal), ("smul", ex1.smul, Partition.diagonal(ex1.field.size)),
        ("bracket", ex1.bracket, diagonal))]
    calls = []
    for module, name in ((quotients, "_collapse"), (relations, "ClassOfMask")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert is_strongly_regular(ex1, diagonal) == (True, None)
    A = quotient_lie_algebra(ex1, diagonal)
    assert calls == []
    assert [A.add, A.smul, A.bracket] == want
    quotient_lie_algebra(ex1, _sn_star(ex1, 2))
    assert "_collapse" in calls


def test_diagonal_of_a_multivalued_algebra_is_still_scanned(ab1):
    # one bracket cell of two elements: the diagonal is not strongly
    # regular, and the quotient names the straddling cell
    bracket = [list(row) for row in ab1.bracket]
    bracket[1][1] |= 1 << 2
    L = FiniteLieHyperalgebra(ab1.field, ab1.names, ab1.add, ab1.smul, bracket)
    diagonal = Partition.diagonal(L.size)
    assert is_strongly_regular(L, diagonal) == (False, ("bracket-left", 1, 1, 1))
    with pytest.raises(NotWellDefined) as exc:
        quotient_lie_algebra(L, diagonal)
    assert (exc.value.op, exc.value.witness) == ("bracket", (1, 1, 0, 2))


def _sn_star(L, n):
    return transitive_closure(relation_Sn(L, n, DEFAULT_BOUNDS))


def test_quotient_by_depth2_closure_ex1(ex1):
    A = quotient_lie_algebra(ex1, _sn_star(ex1, 2))
    assert A.dimension == 3
    assert solvable_length(A) == 2
    assert derived_dims(A) == [3, 2, 0]
    # classes named by minimal members: a collapses to the zero class
    cls = {nm: k for k, nm in enumerate(A.names)}
    assert "a" not in cls and "0" in cls
    b, c, d = cls["b"], cls["c"], cls["d"]
    assert A.bracket[b][d] == b
    assert A.bracket[d][c] == c


def test_quotient_by_swap_closure_ex1(ex1):
    A = quotient_lie_algebra(ex1, _sn_star(ex1, 1))
    assert A.dimension == 1
    assert solvable_length(A) == 1


def test_bad_partition_raises_not_well_defined(ex1):
    # merging {0,d} only: translating by b separates the class images
    class_of = list(range(ex1.size))
    class_of[ex1.index["d"]] = ex1.index["0"]
    packed, seen = [], {}
    for c in class_of:
        packed.append(seen.setdefault(c, len(seen)))
    with pytest.raises((NotWellDefined, NotLie)):
        quotient_lie_algebra(ex1, Partition.from_class_of(packed))


def test_ex2_perfect(ex2):
    A = quotient_lie_algebra(ex2, Partition.diagonal(ex2.size))
    assert is_perfect(A)
    assert solvable_length(A) is None
    assert derived_dims(A)[:2] == [3, 3]


def test_zero_algebra(ex2):
    A = quotient_lie_algebra(ex2, Partition.all_pairs(ex2.size))
    assert A.dimension == 0
    assert solvable_length(A) == 0


def test_ab1_abelian(ab1):
    A = quotient_lie_algebra(ab1, Partition.diagonal(ab1.size))
    assert solvable_length(A) == 1
    assert derived_dims(A) == [1, 0]


def test_dimension_guard():
    K = FiniteField.from_trivial_hyperfield(gen_trivial_field(3))
    # 2-element "algebra" over F3: carrier size not a power of 3
    add = [[0, 1], [1, 0]]
    smul = [[0, 0], [0, 1], [0, 1]]
    br = [[0, 0], [0, 0]]
    A = FiniteLieAlgebra(K, ["0", "x"], add, smul, br)
    with pytest.raises(NotAVectorSpace):
        A.dimension
    with pytest.raises(NotAVectorSpace):
        derived_dims(A)


def test_classical_dims_chain_ex1():
    assert classical_dims_chain(3, 4, {(1, 2): (1, 0, 0, 0),
                                       (1, 3): (0, 1, 0, 0),
                                       (2, 3): (0, 0, 2, 0)}, 4) == [4, 3, 1, 0, 0]


def test_linear_oracle_class_counts(ex1):
    assert linear_oracle_partition(ex1, 1).num_classes == 3
    assert linear_oracle_partition(ex1, 2).num_classes == 27
    assert linear_oracle_partition(ex1, 3).is_diagonal()


def test_linear_oracle_reads_the_derived_series_up_to_its_last_term(ab1, monkeypatch):
    # the series is fixed after its last term, so a depth far past it takes
    # no more derived steps than the series has terms
    steps = []
    real = quotients._derived
    monkeypatch.setattr(quotients, "_derived", lambda *a: steps.append(a) or real(*a))
    far = linear_oracle_partition(ab1, 10**4)
    assert len(steps) <= len(detect_trivial(ab1)[1]) + 1
    assert far == linear_oracle_partition(ab1, 2)
    assert linear_oracle_partition(ab1, 0).is_all_pairs()
    assert linear_oracle_partition(ab1, -5).is_all_pairs()


def test_linear_oracle_gf9():
    L = gen_trivial_from_lie(9, 1, {})
    assert detect_trivial(L) is not None
    assert linear_oracle_partition(L, 1).is_diagonal()


def test_detect_trivial(ex1, m4, randomized_trivial):
    assert detect_trivial(ex1) is not None
    assert detect_trivial(m4) is None
    for L in randomized_trivial:
        assert detect_trivial(L) is not None


def test_derived_series_descends(ex1):
    A = quotient_lie_algebra(ex1, Partition.diagonal(ex1.size))
    chain = derived_series(A)
    sizes = [len(s) if not isinstance(s, int) else s for s in chain]
    for a, b in zip(sizes, sizes[1:]):
        assert b <= a


@pytest.mark.parametrize("builder", [
    lambda: gen_trivial_from_lie(3, 1, {}),                 # 3 elements
    lambda: gen_trivial_from_lie(2, 2, {(0, 1): (0, 1)}),   # 4, nonabelian
    lambda: gen_trivial_from_lie(5, 1, {}),                 # 5 elements
])
def test_congruence_lemma_bidirectional(builder):
    L = builder()
    n = L.size
    disagreements = []
    for masks in iter_partitions_rgs(n):
        rho = Partition(masks)
        sr = is_strongly_regular(L, rho)[0]
        try:
            quotient_lie_algebra(L, rho)
            works = True
        except (NotWellDefined, NotLie):
            works = False
        if sr != works:
            disagreements.append((masks, sr, works))
    assert disagreements == []
