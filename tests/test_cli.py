"""CLI behavior: outputs, exit codes, determinism. main() is driven
in-process; exit codes follow the documented table (0 ok, 1 property
failure, 2 input error, 3 resource limit, 4 internal)."""

import copy
import functools
import json
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import _gf_line_document, _self_module
from hyperlie import cli, errors, quotients
from hyperlie.cli import main
from hyperlie.generators import (
    gen_coset_hypergroup,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_cyclic_group,
)
from hyperlie.gf import FiniteField
from hyperlie.interchange import parse_structure, serialize_structure
from hyperlie.structures import FiniteLieHyperalgebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass(capsys, fixture_files):
    code, out, _ = run(capsys, "check", fixture_files["ex1"])
    assert code == 0
    assert "result: PASS" in out


def test_check_failure_exit_1(capsys, tmp_path, fixture_files):
    doc = json.loads(open(fixture_files["ab1"]).read())
    doc["add"][1][2] = ["a"]  # break a + 2a
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 1
    assert "FAIL" in out


def test_relation_depth2_matches_oracle(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["ex1"],
                       "--rel", "Sn:2")
    assert code == 0
    head = out.splitlines()[0]
    assert "classes=27" in head
    assert "mode=exact-oracle-match" in head
    assert "0̂" in out  # circumflex accent on class reps


def test_relation_value_kind_diagonal(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["ex1"], "--rel", "L")
    assert code == 0
    assert "classes=81" in out.splitlines()[0]


def test_relation_swap_collapses_ex2(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["ex2"], "--rel", "A")
    assert code == 0
    assert "classes=1" in out.splitlines()[0]


def test_relation_json_deterministic(capsys, fixture_files):
    _, out1, _ = run(capsys, "relation", fixture_files["ex1"],
                     "--rel", "Sn:2", "--json")
    _, out2, _ = run(capsys, "relation", fixture_files["ex1"],
                     "--rel", "Sn:2", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["classes"]) == 27
    assert doc["mode"] == "exact-oracle-match"
    assert doc["bounds"] == [2, 2, 1, 1]


def test_relation_oracle_off_pins_bounds(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["ex1"],
                       "--rel", "Sn:2", "--oracle", "off")
    assert code == 0
    assert "mode=bound-limited" in out.splitlines()[0]


def test_relation_alpha_on_field_file(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["m1"],
                       "--rel", "alpha")
    assert code == 0
    assert "classes=1" in out.splitlines()[0]


def test_relation_alpha_on_algebra_uses_its_field(capsys, fixture_files):
    code, out, _ = run(capsys, "relation", fixture_files["ex1"],
                       "--rel", "alpha")
    assert code == 0
    assert "classes=3" in out.splitlines()[0]  # diagonal of trivial F3


def test_quotient_reports(capsys, fixture_files):
    for rel, dim, length in (("Sn:2", 3, 2), ("A", 1, 1), ("L", 4, 3)):
        code, out, _ = run(capsys, "quotient", fixture_files["ex1"],
                           "--rel", rel)
        assert code == 0
        assert f"dim: {dim}" in out
        assert f"solvable length: {length}" in out


def test_quotient_json(capsys, fixture_files):
    code, out, _ = run(capsys, "quotient", fixture_files["ex1"],
                       "--rel", "Sn:2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["solvable_length"] == 2
    assert doc["derived_dims"] == [3, 2, 0]
    assert doc["classes"] == 27


def test_quotient_rejects_alpha(capsys, fixture_files):
    code, _, err = run(capsys, "quotient", fixture_files["ex1"],
                       "--rel", "alpha")
    assert code == 2
    assert "input error" in err


def test_analyze_snpart_witness(capsys, fixture_files):
    code, out, _ = run(capsys, "analyze", fixture_files["ex1"], "snpart",
                       "--n", "2", "--set", "a")
    assert code == 0
    assert "is_part: False" in out
    assert "{a}" in out and "{2a}" in out


def test_analyze_snpart_positive(capsys, fixture_files):
    code, out, _ = run(capsys, "analyze", fixture_files["ex1"], "snpart",
                       "--n", "2", "--set", "0,a,2a")
    assert code == 0
    assert "is_part: True" in out


def test_analyze_snpart_bad_element(capsys, fixture_files):
    code, _, err = run(capsys, "analyze", fixture_files["ex1"], "snpart",
                       "--n", "2", "--set", "zz")
    assert code == 2
    assert "zz" in err


def test_analyze_transitivity(capsys, fixture_files):
    code, out, _ = run(capsys, "analyze", fixture_files["ex1"],
                       "transitivity", "--n", "2")
    assert code == 0
    assert "transitive: True" in out


@pytest.mark.parametrize("analysis", ["snpart", "transitivity"])
def test_analyze_depth_zero_exit_2(capsys, fixture_files, analysis):
    code, out, err = run(capsys, "analyze", fixture_files["ex1"], analysis,
                         "--n", "0", "--set", "a")
    assert code == 2
    assert err.startswith("input error")
    assert out == ""


def test_analyze_stabilization(capsys, fixture_files):
    code, out, _ = run(capsys, "analyze", fixture_files["ex1"], "s-stabilize")
    assert code == 0
    assert "m=3" in out


def test_analyze_smallest_small_carrier(capsys, fixture_files):
    code, out, _ = run(capsys, "analyze", fixture_files["ab1"], "smallest")
    assert code == 0
    assert "agrees with engine: True" in out


def test_analyze_smallest_too_large(capsys, fixture_files):
    code, _, err = run(capsys, "analyze", fixture_files["ex1"], "smallest")
    assert code == 3
    assert "resource limit" in err


def test_over_cap_bounds_skip_the_oracle(capsys, fixture_files):
    with mock.patch.object(cli, "linear_oracle_partition",
                           side_effect=AssertionError("oracle built")):
        code, out, err = run(capsys, "relation", fixture_files["ex1"], "--rel", "Sn:2",
                             "--bounds", "5,4,3,3", "--json")
    assert code == 3 and out == ""
    assert err == "resource limit: start bounds (5, 4, 3, 3) exceed cap (4, 4, 3, 3)\n"


def test_gen_roundtrip_through_check(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    code, _, _ = run(capsys, "gen", "trivial", "--q", "3", "--dim", "2",
                     "--constants", "(0,1):(0,1)", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0 and "result: PASS" in out


def test_gen_preset_matches_fixture(capsys, fixture_files):
    code, out, _ = run(capsys, "gen", "trivial", "--q", "3", "--dim", "4",
                       "--constants", "ex1")
    assert code == 0
    assert out == open(fixture_files["ex1"]).read()


def _refuse_tables(monkeypatch):
    """Make every function that builds GF(q) or a classical table fail if called."""
    def refuse(*_):
        raise AssertionError("a table was built above the carrier cap")

    for name in ("generators.classical_tables", "generators.get_gf", "generators.mask_of",
                 "interchange.gen_trivial_field"):
        monkeypatch.setattr(f"hyperlie.{name}", refuse)


def test_gen_trivial_checks_cap_before_building_tables(capsys, monkeypatch):
    # refused from the size q^dim alone: neither GF(q) nor a table is built
    _refuse_tables(monkeypatch)
    for q, dim, size in ((3, 7, 2187), (2003, 1, 2003)):
        code, _, err = run(capsys, "gen", "trivial", "--q", str(q), "--dim", str(dim))
        assert code == 3
        assert f"carrier size {size} exceeds cap 256" in err


def test_gen_qhyperfield_checks_cap_before_building_tables(capsys, monkeypatch):
    _refuse_tables(monkeypatch)
    code, _, err = run(capsys, "gen", "qhyperfield", "--q", "1009", "--subgroup", "1")
    assert code == 3
    assert "carrier size 1009 exceeds cap 256" in err


def test_gen_coset_checks_cap_before_the_group_checks(capsys, monkeypatch):
    _refuse_tables(monkeypatch)
    monkeypatch.setattr("hyperlie.generators._group_checks", lambda *_: pytest.fail(
        "the group was checked above the carrier cap"))
    code, _, err = run(capsys, "gen", "coset", "--group", "zn:400", "--subgroup", "0")
    assert code == 3
    assert "carrier size 400 exceeds cap 256" in err


def test_hypergroup_file_over_cap_exit_3(capsys, tmp_path, monkeypatch):
    p = tmp_path / "z6.json"
    p.write_text(serialize_structure(gen_coset_hypergroup(make_cyclic_group(6)[0], [0])))
    monkeypatch.setenv("HYPERLIE_MAX_CARRIER", "4")
    code, _, err = run(capsys, "check", str(p))
    assert code == 3
    assert "carrier size 6 exceeds cap 4" in err


def test_field_shorthand_checks_cap_before_building_the_field(capsys, tmp_path, monkeypatch):
    _refuse_tables(monkeypatch)
    p = tmp_path / "f521.json"
    p.write_text(json.dumps({"kind": "lie_hyperalgebra", "elements": ["0"], "zero": "0",
                             "field": "trivial:F521", "add": [[["0"]]],
                             "bracket": [[["0"]]], "scalar": []}))
    code, _, err = run(capsys, "check", str(p))
    assert code == 3
    assert "carrier size 521 exceeds cap 256" in err


@pytest.mark.parametrize("doc", [
    {"kind": "hypergroup", "elements": ["0", "1"],
     "add": [[["0"], ["1"]], [["1"], [["0"]]]]},
    {"kind": "hyperfield", "elements": ["0", "1"], "zero": ["0"], "one": "1",
     "add": [[["0"], ["1"]], [["1"], ["0"]]], "mul": [[["0"], ["0"]], [["0"], ["1"]]]},
], ids=["list-in-cell", "list-as-zero"])
def test_non_string_identifier_exit_2(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert err.startswith("input error") and "unknown identifier ['0']" in err
    assert out == ""


@pytest.mark.parametrize("rel, mode", [("A", "bound-limited"), ("Sn:2", "stabilized-heuristic")])
def test_relation_auto_oracle_in_characteristic_2(capsys, tmp_path, rel, mode):
    # the linear oracle is stated for odd characteristic only, so over GF(4)
    # escalation runs without one instead of failing
    p = tmp_path / "gf4.json"
    code, _, _ = run(capsys, "gen", "trivial", "--q", "4", "--dim", "2",
                     "--constants", "(0,1):(0,1)", "-o", str(p))
    assert code == 0
    code, out, _ = run(capsys, "relation", str(p), "--rel", rel, "--json")
    assert code == 0
    assert json.loads(out)["mode"] == mode


def test_oracle_for_detects_trivial_presentation_once(ex1):
    # A and Sn read the presentation once; L takes the diagonal from its
    # singleton-valued tables without reading it
    calls = []
    real = quotients.detect_trivial

    def counted(L):
        calls.append(L)
        return real(L)

    with mock.patch("hyperlie.quotients.detect_trivial", counted):
        for rel, reads in (("A", 1), ("Sn", 1), ("L", 0)):
            calls.clear()
            assert cli._oracle_for(ex1, rel, 2) is not None
            assert len(calls) == reads, rel


def test_corrupted_bracket_runs_the_engine_without_the_oracle(capsys, tmp_path):
    # [a, a] = b breaks the alternating bracket and Jacobi; the constants of
    # the basis brackets describe another algebra, whose oracle the engine
    # partition need not refine, so the oracle must not be used
    p = tmp_path / "g9.json"
    code, _, _ = run(capsys, "gen", "trivial", "--q", "3", "--dim", "2",
                     "--constants", "(0,1):(1,0)", "-o", str(p))
    assert code == 0
    doc = json.loads(p.read_text())
    a = doc["elements"].index("a")
    doc["bracket"][a][a] = ["b"]
    p.write_text(json.dumps(doc))
    for argv in (["relation", "--rel", "A"], ["relation", "--rel", "Sn:2"],
                 ["quotient", "--rel", "Sn:2"]):
        code, _, err = run(capsys, argv[0], str(p), *argv[1:], "--oracle", "auto")
        assert code in (0, 1), (argv, err)


def test_gf_own_tables_skip_the_field_check(capsys, tmp_path, monkeypatch):
    # GF(q)'s own tables are a field by construction; A takes the linear
    # oracle on them without the n³ field check, as alpha does
    p = tmp_path / "gf243.json"
    p.write_text(json.dumps(_gf_line_document(243)))

    def refuse(self):
        raise AssertionError("GF(243)'s own tables were validated")

    monkeypatch.setattr(FiniteField, "validate", refuse)
    code, out, err = run(capsys, "relation", str(p), "--rel", "A")
    assert code == 0, err
    assert "mode=exact-oracle-match" in out


def _gf3_document():
    return json.loads(serialize_structure(gen_trivial_field(3)))


def test_alpha_oracle_only_on_a_field(capsys, tmp_path):
    # a singleton-valued table that is not a field may relate a product
    # with a permuted product, so the diagonal is no oracle for it; every
    # single-cell corruption of GF(3) must end in an exit code, not in the
    # refinement assertion
    doc = _gf3_document()
    p = tmp_path / "gf3.json"
    order = [0, 2, 1]  # GF(3)'s tables, then the same field listed as 0, 2, 1
    relisted = dict(doc, elements=[doc["elements"][i] for i in order],
                    **{t: [[doc[t][i][j] for j in order] for i in order] for t in ("add", "mul")})
    for field in (doc, relisted):
        p.write_text(json.dumps(field))
        code, out, _ = run(capsys, "relation", str(p), "--rel", "alpha")
        assert code == 0 and "mode=exact-oracle-match" in out
    codes = []
    for table, i, j, e in product(("add", "mul"), range(3), range(3), doc["elements"]):
        if doc[table][i][j] != [e]:
            bad = copy.deepcopy(doc)
            bad[table][i][j] = [e]
            p.write_text(json.dumps(bad))
            codes.append(run(capsys, "relation", str(p), "--rel", "alpha")[0])
    assert len(codes) == 36 and set(codes) <= {0, 1, 2, 3}


def test_gen_qhyperfield(capsys, tmp_path):
    p = tmp_path / "f.json"
    code, _, _ = run(capsys, "gen", "qhyperfield", "--q", "7",
                     "--subgroup", "1,2,4", "-o", str(p))
    assert code == 0
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0


def test_gen_coset(capsys, tmp_path):
    p = tmp_path / "hg.json"
    code, _, _ = run(capsys, "gen", "coset", "--group", "zn:6",
                     "--subgroup", "0,3", "-o", str(p))
    assert code == 0
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0


def test_gen_bad_subgroup_exit_1(capsys):
    code, _, err = run(capsys, "gen", "qhyperfield", "--q", "7",
                       "--subgroup", "1,2")
    assert code == 1
    assert "property failure" in err


def test_bad_bounds_exit_2(capsys, fixture_files):
    code, _, err = run(capsys, "relation", fixture_files["ex1"],
                       "--bounds", "2,2", "--rel", "L")
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "definitely_not_here.json")
    assert code == 2


def test_threads_and_seed_accepted(capsys, fixture_files):
    code, out, _ = run(capsys, "--threads", "4", "--seed", "9", "relation",
                       fixture_files["ex1"], "--rel", "L")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("gen", "qhyperfield", "--q", "7", "--subgroup", "x"),
    ("gen", "trivial", "--q", "6", "--dim", "1"),
    ("gen", "trivial", "--q", "3", "--dim", "2", "--constants", "(0,1):(0,1"),
    ("gen", "qhyperfield", "--q", "6", "--subgroup", "1"),
])
def test_gen_bad_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error")
    assert out == ""


# every HyperlieError class -> its documented exit code; a class missing
# here fails test_every_error_class_has_an_exit_code
_EXIT_CODES = {
    errors.HyperlieError: 1,
    errors.AxiomFailure: 1,
    errors.NotAGroup: 1,
    errors.NotLie: 1,
    errors.NotASubgroup: 1,
    errors.NotWellDefined: 1,
    errors.NotAVectorSpace: 1,
    errors.CharTwoGate: 1,
    errors.DegenerateField: 1,
    errors.NotAField: 1,
    errors.NoSolvableQuotient: 1,
    errors.ParseError: 2,
    errors.MalformedTable: 2,
    errors.FieldMismatch: 2,
    errors.BoundsExceeded: 3,
    errors.TooLarge: 3,
    errors.CarrierCapExceeded: 3,
    errors.NoStabilization: 3,
    errors.InternalInvariant: 4,
    errors.NotSymmetric: 4,
}
_STDERR_PREFIX = {1: "property failure: ", 2: "input error: ", 3: "resource limit: ",
                  4: "internal error: "}


def _error_classes(cls=errors.HyperlieError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_has_an_exit_code():
    assert set(_error_classes()) == set(_EXIT_CODES)


@pytest.mark.parametrize("cls", list(_EXIT_CODES), ids=lambda c: c.__name__)
def test_error_exit_code(capsys, cls):
    if issubclass(cls, errors.AxiomFailure):
        exc = cls("some-axiom", (0, 1))
    elif cls is errors.NotWellDefined:
        exc = cls("add", (0, 1))
    else:
        exc = cls("boom")
    with mock.patch.object(cli, "cmd_check", side_effect=exc):
        code, out, err = run(capsys, "check", "unused.json")
    assert code == _EXIT_CODES[cls]
    assert err.startswith(_STDERR_PREFIX[code]) and err.endswith(f"{exc}\n")
    assert out == ""


@functools.cache
def _fuzz_bases():
    """Small interchange documents of each kind; the self-module of m3
    embeds its field, the trivial algebras use the shorthand, and GF(3) is
    written out as singleton-valued tables."""
    m3 = gen_quotient_hyperfield(5, [1, 4])
    structures = (gen_coset_hypergroup([[0, 1], [1, 0]], [0]), m3, _self_module(m3),
                  gen_trivial_from_lie(2, 1, {}), gen_trivial_from_lie(3, 1, {}))
    return [json.loads(serialize_structure(x)) for x in structures] + [_gf3_document()]


# values that stand where an identifier, a cell, a row, a table or a field
# is expected
_JUNK = st.sampled_from([
    None, True, 0, 1, -1, 2.5, "", "0", "1", "a", "zz", [], [[]], ["0"], [["0"]],
    [[["0"]]], ["0", "0"], {}, {"kind": "hyperfield"}, "trivial:F2", "trivial:F4",
    "trivial:F6", "trivial:Fx", "trivial:F-3", "trivial:F521", "hyperfield",
    "lie_hyperalgebra", "hypergroup",
])


def _slots(node, path=()):
    """Paths of every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_fuzz_bases())))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        *parent_path, key = draw(st.sampled_from(slots))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        if draw(st.booleans()):
            parent[key] = copy.deepcopy(draw(_JUNK))
        else:
            del parent[key]
    return json.dumps(doc)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents())
def test_mutated_interchange_files_end_in_an_exit_code(capsys, tmp_path, text):
    # any exception that escapes main fails the example
    p = tmp_path / "mutated.json"
    p.write_text(text)
    runs = [["check"], ["relation", "--rel", "L", "--oracle", "off", "--bounds", "1,1,1,1"],
            ["relation", "--rel", "alpha"]]
    try:
        parsed = parse_structure(text)
    except errors.HyperlieError:
        parsed = None
    if isinstance(parsed, FiniteLieHyperalgebra) and parsed.is_trivial:
        # the linear oracle runs only where the tables pass its premise
        runs += [["relation", "--rel", "Sn:2", "--oracle", "auto"],
                 ["quotient", "--rel", "Sn:2", "--oracle", "auto"]]
    for argv in runs:
        code, _, _ = run(capsys, argv[0], str(p), *argv[1:])
        assert code in (0, 1, 2, 3)


def test_relation_on_an_element_in_no_value_exit_1(capsys, tmp_path):
    # every scalar multiple is 0, so no bounded expression takes a value
    # holding a, and the engine relation misses (a, a)
    p = tmp_path / "unchecked.json"
    p.write_text(json.dumps({
        "kind": "lie_hyperalgebra", "elements": ["0", "a"], "zero": "0",
        "field": "trivial:F2", "add": [[["0"], ["a"]], [["a"], ["0"]]],
        "bracket": [[["0"], ["0"]], [["0"], ["0"]]],
        "scalar": [[["0"], ["0"]], [["0"], ["0"]]]}))
    code, out, err = run(capsys, "relation", str(p), "--rel", "L", "--oracle", "off")
    assert code == 1 and out == ""
    assert err.startswith("property failure: AxiomFailure: axiom relation-reflexive")
    assert "'a'" in err
