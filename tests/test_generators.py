"""Structure generators: presets, coset hypergroups, quotient hyperfields."""

import pytest

from hyperlie import generators, gf
from hyperlie.errors import (
    CarrierCapExceeded,
    MalformedTable,
    NotAGroup,
    NotASubgroup,
    NotLie,
)
from hyperlie.generators import (
    CONSTANT_PRESETS,
    gen_coset_hypergroup,
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
    preset_structure,
)
from hyperlie.structures import check_hyperfield, check_hypergroup, check_lie_hyperalgebra


def test_preset_sizes():
    assert preset_structure("ex1").size == 81
    assert preset_structure("ex2").size == 27
    assert preset_structure("ab1").size == 3
    assert preset_structure("ab5").size == 5


def test_ex1_bracket_table(ex1):
    # structure constants: [b,c]=a, [b,d]=b, [c,d]=2c on basis (a,b,c,d)
    def br(x, y):
        mask = ex1.bracket[ex1.index[x]][ex1.index[y]]
        assert mask.bit_count() == 1
        return ex1.names[mask.bit_length() - 1]

    assert br("b", "c") == "a"
    assert br("c", "b") == "2a"
    assert br("b", "d") == "b"
    assert br("c", "d") == "2c"
    assert br("a", "b") == "0"


def test_jacobi_guard_on_bad_constants():
    # [x,[y,z]] + cyclic = 2z for these, so Jacobi fails
    with pytest.raises(NotLie):
        gen_trivial_from_lie(3, 3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0),
                                    (1, 2): (0, 1, 0)})


def test_constants_key_validation():
    with pytest.raises(MalformedTable):
        gen_trivial_from_lie(3, 2, {(0, 2): (0, 1)})
    with pytest.raises(MalformedTable):
        gen_trivial_from_lie(3, 2, {(1, 0): (0, 1)})
    with pytest.raises(MalformedTable):
        gen_trivial_from_lie(3, 2, {(0, 1): (0, 1, 0)})


def test_cyclic_coset_quotient_is_group():
    # normal subgroup of an abelian group: singleton cells only
    table, _ = make_cyclic_group(4)
    hg = gen_coset_hypergroup(table, [0, 2])
    assert hg.size == 2
    assert check_hypergroup(hg).ok
    assert all(c.bit_count() == 1 for row in hg.add for c in row)


def test_s3_coset_quotient_multivalued():
    table, names = make_s3()
    hg = gen_coset_hypergroup(table, [0, 1])  # identity + a transposition
    assert hg.size == 3
    assert check_hypergroup(hg).ok
    assert any(c.bit_count() > 1 for row in hg.add for c in row)


def test_full_subgroup_gives_point():
    table, _ = make_cyclic_group(5)
    hg = gen_coset_hypergroup(table, list(range(5)))
    assert hg.size == 1


def test_bad_group_table_rejected():
    with pytest.raises((NotAGroup, MalformedTable)):
        gen_coset_hypergroup([[0, 0], [0, 0]], [0])


@pytest.mark.parametrize("table, axiom, witness", [
    ([[0, 1, 2], [1, 2, 0], [2, 0, 2]], "group-associative", (1, 1, 2)),
    ([[0, 0], [1, 1]], "group-identity", ()),
    ([[0, 1], [1, 1]], "group-inverses", (1,)),
])
def test_group_checks_name_the_first_witness(table, axiom, witness):
    # associative with no identity: x * y = x; a monoid: 1 absorbs
    with pytest.raises(NotAGroup) as exc:
        gen_coset_hypergroup(table, [0])
    assert (exc.value.axiom, exc.value.witness) == (axiom, witness)


def test_bad_subgroup_rejected():
    table, _ = make_cyclic_group(6)
    with pytest.raises(NotASubgroup):
        gen_coset_hypergroup(table, [0, 1])  # {0,1} not closed under +


def test_quotient_hyperfield_m1(m1):
    assert m1.size == 3  # 0 plus two classes of F7* / {1,2,4}
    assert sorted(m1.names) == ["0", "[1]", "[3]"]
    assert not m1.is_trivial


def test_quotient_hyperfield_subgroup_checked():
    with pytest.raises(NotASubgroup):
        gen_quotient_hyperfield(7, [1, 2])  # {1,2} not mult. closed mod 7


def test_orbit_quotient_m4(m4):
    assert m4.size == 17  # (7^2-1)/3 orbits + zero
    assert check_lie_hyperalgebra(m4).ok
    assert not m4.field.is_trivial


def test_carrier_cap_checked_before_tables(monkeypatch):
    def refuse(*_):
        raise AssertionError("a table was built above the carrier cap")

    monkeypatch.setattr("hyperlie.generators.classical_tables", refuse)
    with pytest.raises(CarrierCapExceeded, match="carrier size 729 exceeds cap 256"):
        gen_trivial_from_lie(3, 6, {})
    # the orbit quotient's carrier is its orbit count, 1 + (3^6 - 1) / 2
    with pytest.raises(CarrierCapExceeded, match="carrier size 365 exceeds cap 256"):
        gen_orbit_quotient(3, 6, {}, [1, 2])
    # the field is not built either
    monkeypatch.setattr("hyperlie.generators.get_gf", refuse)
    with pytest.raises(CarrierCapExceeded, match="carrier size 2003 exceeds cap 256"):
        gen_trivial_from_lie(2003, 1, {})
    with pytest.raises(CarrierCapExceeded, match="carrier size 521 exceeds cap 256"):
        gen_trivial_field(521)
    monkeypatch.setenv("HYPERLIE_MAX_CARRIER", "8")
    with pytest.raises(CarrierCapExceeded, match="carrier size 9 exceeds cap 8"):
        gen_trivial_from_lie(3, 2, {(0, 1): (0, 1)})


def test_presets_table_complete():
    for name in ("ex1", "ex2", "ab1", "ab5"):
        assert name in CONSTANT_PRESETS
        q, dim, constants = CONSTANT_PRESETS[name]
        L = gen_trivial_from_lie(q, dim, constants)
        assert check_lie_hyperalgebra(L).ok


def test_generators_take_brackets_from_the_bilinear_builder(monkeypatch):
    # gf.classical_tables is the package's one structure-constant bracket:
    # gf keeps no coordinate bracket, and each generated algebra's brackets,
    # the Jacobi check on its basis triples included, come from one call
    assert {"bracket_coords", "check_constants_lie"}.isdisjoint(vars(gf))
    calls = []
    real = gf.classical_tables

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(generators, "classical_tables", counted)
    ex1 = preset_structure("ex1")
    assert len(calls) == 1
    assert ex1.br_elt == calls[0][2]
    calls.clear()
    gen_orbit_quotient(7, 2, {(0, 1): (0, 1)}, [1, 2, 4])
    assert len(calls) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_trivial_fields_pass_the_field_check(q):
    # gen_trivial_field does not check GF(q)'s own tables; this does
    F = gen_trivial_field(q)
    report = check_hyperfield(F)
    assert report.ok, report.failures
    assert F.gf_order == q and F.is_trivial
