"""Part verdicts, transitivity cross-checks, stabilization, and the
exhaustive solvable-minimum oracle.

Frozen witnesses below are the engine's own, cross-checked by hand against
the closure classes (the class of a is {0,a,2a}; the class of b at depth 2
is {b,a+b,2a+b})."""

import pytest

from hyperlie.analysis import (
    bell_number,
    is_Sn_part,
    is_transitive_Sn,
    iter_partitions_rgs,
    lemma_equivalence_check,
    neighborhood_P,
    nontransitivity_search,
    relation_S,
    smallest_solvable_oracle,
)
from hyperlie.errors import TooLarge
from hyperlie.relations import DEFAULT_BOUNDS, Partition
from hyperlie.sets import iter_bits


def _mask(L, *elts):
    return sum(1 << L.index[e] for e in elts)


def _names(L, mask):
    return tuple(sorted(L.names[i] for i in iter_bits(mask)))


def test_neighborhood_contains_base(ex1):
    for x in (0, 1, 5):
        nb = neighborhood_P(ex1, 2, x, DEFAULT_BOUNDS)
        assert nb.members & (1 << x)


def test_neighborhood_of_a_is_its_class(ex1):
    nb = neighborhood_P(ex1, 2, ex1.index["a"], DEFAULT_BOUNDS)
    assert _names(ex1, nb.members) == ("0", "2a", "a")


def test_span_a_part_verdicts(ex1):
    span_a = _mask(ex1, "0", "a", "2a")
    v1 = is_Sn_part(ex1, 1, span_a, DEFAULT_BOUNDS)
    assert not v1.is_part
    assert (_names(ex1, v1.witness[0]), _names(ex1, v1.witness[1])) == \
        (("0",), ("b",))
    for n in (2, 3):
        v = is_Sn_part(ex1, n, span_a, DEFAULT_BOUNDS)
        assert v.is_part and v.witness is None


def test_singleton_a_part_verdicts(ex1):
    a = _mask(ex1, "a")
    v2 = is_Sn_part(ex1, 2, a, DEFAULT_BOUNDS)
    assert not v2.is_part
    assert (_names(ex1, v2.witness[0]), _names(ex1, v2.witness[1])) == \
        (("a",), ("2a",))
    assert is_Sn_part(ex1, 3, a, DEFAULT_BOUNDS).is_part


def test_singleton_b_part_verdicts(ex1):
    b = _mask(ex1, "b")
    v = is_Sn_part(ex1, 2, b, DEFAULT_BOUNDS)
    assert not v.is_part
    assert (_names(ex1, v.witness[0]), _names(ex1, v.witness[1])) == \
        (("b",), ("a+b",))
    assert is_Sn_part(ex1, 3, b, DEFAULT_BOUNDS).is_part


def test_class_unions_are_parts(ex1):
    # any union of depth-2 closure classes must pass all three routes
    from hyperlie.relations import closed_relation
    _, part = closed_relation(ex1, "Sn", 2, DEFAULT_BOUNDS)
    K = part.classes[0] | part.classes[5] | part.classes[11]
    assert is_Sn_part(ex1, 2, K, DEFAULT_BOUNDS).is_part


def test_lemma_routes_agree_small(ab1, ab5):
    for L in (ab1, ab5):
        for n in (1, 2):
            report = lemma_equivalence_check(L, n)
            assert report["all_agree"]
            assert report["checked"] == (1 << L.size) - 1  # all nonempty sets


def test_lemma_routes_agree_ex1_sampled(ex1):
    report = lemma_equivalence_check(ex1, 2, seed=7)
    assert report["all_agree"]
    assert report["disagreements"] == []
    assert report["checked"] > 40


def test_transitivity_verdicts(ex1, ex2, ab1):
    for L in (ex1, ex2, ab1):
        for n in (1, 2, 3):
            verdict, report = is_transitive_Sn(L, n, DEFAULT_BOUNDS)
            assert verdict is True
            assert report["direct"] == report["row_vs_class"] \
                == report["rows_are_parts"] is True


def test_relation_S_ex1(ex1):
    part, m = relation_S(ex1, DEFAULT_BOUNDS)
    assert m == 3
    assert part.is_diagonal()


def test_relation_S_ex2(ex2):
    part, m = relation_S(ex2, DEFAULT_BOUNDS)
    assert m == 1
    assert part.is_all_pairs()


def test_relation_S_ab1(ab1):
    part, m = relation_S(ab1, DEFAULT_BOUNDS)
    assert m == 1
    assert part.is_diagonal()


def test_bell_numbers():
    assert [bell_number(n) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def test_rgs_enumeration_is_complete_and_bell_sized():
    for n in (1, 2, 3, 4, 5):
        seen = {tuple(sorted(masks)) for masks in iter_partitions_rgs(n)}
        assert len(seen) == bell_number(n)


def test_smallest_solvable_ab1(ab1):
    part, cert = smallest_solvable_oracle(ab1)
    assert part.is_diagonal()
    assert cert["checked_partitions"] == 5
    assert cert["qualifying_partitions"] == 2
    assert cert["agrees_with_engine"]


def test_smallest_solvable_ab5(ab5):
    part, cert = smallest_solvable_oracle(ab5)
    assert part.is_diagonal()
    assert cert["checked_partitions"] == 52
    assert cert["agrees_with_engine"]


def test_smallest_solvable_too_large(ex1):
    with pytest.raises(TooLarge):
        smallest_solvable_oracle(ex1)


def test_nontransitivity_sweep_no_findings(m1_module, m2_module, m3_module,
                                           m4):
    pairs = [("M1", m1_module), ("M2", m2_module), ("M3", m3_module),
             ("M4", m4)]
    findings, log = nontransitivity_search(pairs)
    assert findings == []
    assert log[-1] == "findings=0"
    assert len(log) == 2 + len(pairs) * 3


def test_shipped_search_log_reproduces(m1_module, m2_module, m3_module):
    """The checked-in sweep log is a claim; re-run the sweep and compare.

    No non-transitive bounded relation was found on any shipped multivalued
    fixture; the log records that outcome honestly instead of a fabricated
    positive."""
    import pathlib

    from hyperlie.generators import gen_orbit_quotient

    pairs = [
        ("coset-F7-H124-module", m1_module),
        ("coset-F7-H16-module", m2_module),
        ("coset-F5-H14-module", m3_module),
        ("orbit-F7-d2-abelian", gen_orbit_quotient(7, 2, {}, [1, 2, 4])),
        ("orbit-F7-d2-affine",
         gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])),
        ("orbit-F7-d2-affine-H16",
         gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 6])),
        ("orbit-F5-d2-affine",
         gen_orbit_quotient(5, 2, {(0, 1): (0, 1)}, [1, 4])),
    ]
    findings, log = nontransitivity_search(pairs)
    assert findings == []
    shipped = pathlib.Path(__file__).parent / "data" / "nontransitivity_search.txt"
    assert shipped.read_text().splitlines() == log


def test_shipped_t1_search_log_finds_the_orbit_quotients(m1_module, m2_module, m3_module, m4):
    """At t = 1 the sweep finds the "no" side of transitivity.

    The bounded Sn relation of each orbit quotient fails transitivity at
    n = 1, 2 and 3, and the three routes of is_transitive_Sn agree on it;
    the coset-hyperfield modules stay transitive. The part routes of the
    lemma agree on every sampled set of m4."""
    import pathlib

    from hyperlie.generators import gen_orbit_quotient
    from hyperlie.relations import ExpressionBounds

    bounds = ExpressionBounds(1, 1, 2, 1)
    orbits = [
        ("orbit-F7-d2-abelian", gen_orbit_quotient(7, 2, {}, [1, 2, 4])),
        ("orbit-F7-d2-affine", m4),
        ("orbit-F7-d2-affine-H16",
         gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 6])),
        ("orbit-F5-d2-affine",
         gen_orbit_quotient(5, 2, {(0, 1): (0, 1)}, [1, 4])),
    ]
    pairs = [("coset-F7-H124-module", m1_module), ("coset-F7-H16-module", m2_module),
             ("coset-F5-H14-module", m3_module)] + orbits
    findings, log = nontransitivity_search(pairs, bounds=bounds)
    shipped = pathlib.Path(__file__).parent / "data" / "nontransitivity_search_t1.txt"
    assert shipped.read_bytes() == "".join(line + "\n" for line in log).encode()
    assert [(f["structure"], f["n"]) for f in findings] == \
        [(name, n) for name, _ in orbits for n in (1, 2, 3)]
    for f in findings:
        assert f["report"]["direct"] is f["report"]["row_vs_class"] \
            is f["report"]["rows_are_parts"] is False
    report = lemma_equivalence_check(m4, 1, bounds)
    assert report["all_agree"] and report["checked"] == 41
