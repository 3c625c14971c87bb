"""CLI behavior: outputs, exit codes, determinism. main() is driven
in-process; exit codes follow the documented table (0 ok, 1 property
failure, 2 input error, 3 resource limit, 4 internal)."""

import copy
import functools
import json
import re
from itertools import count, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import _gf_line_document, _self_module
from hyperlie import cli, errors, quotients, relations
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


def test_relation_depth_past_the_carrier_walks_at_most_the_carrier(capsys, fixture_files, ab1):
    # the hyper-derived chain is constant after |L| steps, so a huge depth
    # asks for no more of it and answers as Sn:2, whose gate is already fixed
    argv = ["relation", fixture_files["ab1"], "--oracle", "off", "--bounds", "1,1,1,1",
            "--json", "--rel"]
    code, want, _ = run(capsys, *argv, "Sn:2")
    assert code == 0
    with mock.patch.object(relations, "hyper_derived_sets",
                           wraps=relations.hyper_derived_sets) as chain:
        code, out, _ = run(capsys, *argv, "Sn:1000000")
    assert code == 0
    assert chain.call_args_list
    assert max(c.args[1] for c in chain.call_args_list) <= ab1.size
    assert out == want


def test_relation_depth_past_the_derived_series_takes_few_oracle_steps(capsys, fixture_files,
                                                                      ab1):
    # under the default --oracle auto the linear oracle reads the derived
    # series, which ends after at most dim + 1 steps, whatever the depth
    argv = ["relation", fixture_files["ab1"], "--bounds", "1,1,1,1", "--json", "--rel"]
    code, want, _ = run(capsys, *argv, "Sn:2")
    assert code == 0
    with mock.patch.object(quotients, "_derived", wraps=quotients._derived) as step:
        code, out, _ = run(capsys, *argv, "Sn:10000")
    assert code == 0
    assert 0 < step.call_count <= len(quotients.detect_trivial(ab1)[1]) + 1
    assert out == want


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


def test_gen_counts_the_carrier_before_work_that_grows_with_q(capsys, monkeypatch):
    # the least-factor search and the unit orbits are O(q), the primality
    # test O(sqrt q): each would take seconds at this q
    _refuse_tables(monkeypatch)
    for name in ("cli.factor_prime_power", "generators.is_prime", "generators._orbits"):
        monkeypatch.setattr(f"hyperlie.{name}", lambda *_: pytest.fail(
            "work that grows with q ran above the carrier cap"))
    q = "1000000007"
    for argv in (("trivial", "--q", q, "--dim", "1"), ("qhyperfield", "--q", q, "--subgroup", "1")):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 3
        assert f"carrier size {q} exceeds cap 256" in err
        assert out == ""


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
    # refinement assertion. Each document gets its own file: rewriting one
    # path costs far more than writing a new one on some file systems
    doc = _gf3_document()
    order = [0, 2, 1]  # GF(3)'s tables, then the same field listed as 0, 2, 1
    relisted = dict(doc, elements=[doc["elements"][i] for i in order],
                    **{t: [[doc[t][i][j] for j in order] for i in order] for t in ("add", "mul")})
    for k, field in enumerate((doc, relisted)):
        p = tmp_path / f"gf3-{k}.json"
        p.write_text(json.dumps(field))
        code, out, _ = run(capsys, "relation", str(p), "--rel", "alpha")
        assert code == 0 and "mode=exact-oracle-match" in out
    codes = []
    for table, i, j, e in product(("add", "mul"), range(3), range(3), doc["elements"]):
        if doc[table][i][j] != [e]:
            bad = copy.deepcopy(doc)
            bad[table][i][j] = [e]
            p = tmp_path / f"{table}-{i}-{j}-{e}.json"
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


def _one_input_error(code, out, err, text):
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"input error: {text}"), err


def test_file_not_utf8_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{")
    _one_input_error(*run(capsys, "check", str(p)), f"cannot read {p}: ")


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000)
    _one_input_error(*run(capsys, "check", str(p)), "invalid JSON: ")


def test_gen_unwritable_out_exit_2(capsys, tmp_path):
    p = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "trivial", "--q", "3", "--dim", "1", "-o", str(p))
    _one_input_error(code, out, err, f"cannot write {p}: ")
    assert not p.parent.exists()


def test_threads_and_seed_accepted(capsys, fixture_files):
    code, out, _ = run(capsys, "--threads", "4", "--seed", "9", "relation",
                       fixture_files["ex1"], "--rel", "L")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("gen", "qhyperfield", "--q", "7", "--subgroup", "x"),
    ("gen", "trivial", "--q", "6", "--dim", "1"),
    ("gen", "trivial", "--q", "3", "--dim", "2", "--constants", "(0,1):(0,1"),
    ("gen", "qhyperfield", "--q", "6", "--subgroup", "1"),
    ("gen", "trivial", "--q", "3", "--dim", "2", "--constants", "(0,1):(1,1);(0,1):(2,2)"),
])
def test_gen_bad_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("relation", "{ab1}", "--bounds", "-1,1,1,1"), "argument --bounds: expected one argument"),
    (("gen", "coset", "--group", "s3", "--subgroup", "-1,1"),
     "argument --subgroup: expected one argument"),
    ((), "the following arguments are required: command"),
    (("--threads", "x", "check", "{ab1}"), "argument --threads: invalid int value: 'x'"),
], ids=["bounds", "subgroup", "empty", "threads"])
def test_argparse_rejection_is_an_input_error(capsys, fixture_files, argv, message):
    code, out, err = run(capsys, *(a.format_map(fixture_files) for a in argv))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("cmd", ["relation", "quotient"])
@pytest.mark.parametrize("opts, message", [
    (("--rel", "Sn:0"), "--rel Sn:0: depth must be at least 1"),
    (("--rel", "Sn:-2"), "--rel Sn:-2: depth must be at least 1"),
    (("--rel", "Sn", "--n", "0"), "--rel Sn needs --n at least 1"),
], ids=["Sn:0", "Sn:-2", "n0"])
def test_sn_depth_below_one_names_what_was_given(capsys, fixture_files, cmd, opts, message):
    code, out, err = run(capsys, cmd, fixture_files["ab1"], *opts)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


_DASHED_OPTIONS = [
    *((("check", "{ab1}"), opt) for opt in ("--threads", "--seed")),
    *(((cmd, "{ab1}"), opt) for cmd in ("relation", "quotient")
      for opt in ("--bounds", "--n", "--rel", "--oracle")),
    *((("analyze", "{ab1}", "snpart"), opt) for opt in ("--set", "--bounds", "--n")),
    *((("gen", "trivial", "--q", "3", "--dim", "1"), opt)
      for opt in ("--q", "--dim", "--constants", "--group", "--subgroup", "-o", "--out")),
]


@pytest.mark.parametrize("argv, option", _DASHED_OPTIONS,
                         ids=[f"{argv[0]}{opt}" for argv, opt in _DASHED_OPTIONS])
def test_option_valued_double_dash_is_an_input_error(capsys, fixture_files, argv, option):
    # argparse takes "--opt=--" as an empty list, which no command reads
    argv = [a.format_map(fixture_files) for a in argv]
    argv = [f"{option}=--", *argv] if option in ("--threads", "--seed") else [*argv, f"{option}=--"]
    code, out, err = run(capsys, *argv)
    name = "--out" if option == "-o" else option
    assert (code, out, err) == (2, "", f"input error: argument {name}: expected one argument\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relation", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hyperlie relation")


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


_EXAMPLES = count()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents())
def test_mutated_interchange_files_end_in_an_exit_code(capsys, tmp_path, text):
    # any exception that escapes main fails the example; each example gets
    # its own file, as rewriting one path costs far more than a new file
    p = tmp_path / f"mutated-{next(_EXAMPLES)}.json"
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


@pytest.mark.parametrize("aa", ["a", "o"])
def test_partial_span_is_no_trivial_presentation(capsys, tmp_path, aa):
    # 1 a = 1 b = b, so the span of the carrier from o never reaches a; with
    # [a, a] = a the coordinate of a bracket was missing, with [a, a] = o
    # the algebra passed although 1 a = a fails
    doc = {"kind": "lie_hyperalgebra", "elements": ["o", "a", "b"], "zero": "o",
           "field": "trivial:F2",
           "add": [[["o"], ["a"], ["b"]], [["a"], ["o"], ["o"]], [["b"], ["o"], ["o"]]],
           "scalar": [[["o"], ["o"], ["o"]], [["o"], ["b"], ["b"]]],
           "bracket": [[["o"], ["o"], ["o"]], [["o"], [aa], ["o"]], [["o"], ["o"], ["o"]]]}
    p = tmp_path / "span.json"
    p.write_text(json.dumps(doc))
    assert quotients.detect_trivial(parse_structure(p.read_text())) is None
    runs = [run(capsys, "relation", str(p), "--rel", "A", *extra)
            for extra in ([], ["--oracle", "off"])]
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and runs[0][2].startswith("property failure:")


# Argument fuzzing: each example starts from a valid call and replaces at
# most one option value by a bad one whose exit code the value alone fixes.
# Valid builds hold at most 27 elements; q is large only where the carrier
# cap refuses it. Options are passed as --opt=value or spaced as --opt
# value. In the spaced form argparse reads a value as an option when it
# begins with -, is longer than -, holds no space and is no negative number
# (-1,1,1,1 but not -3), and then rejects the call as an input error.
_HARD_CAP = (4, 4, 3, 3)
_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
_NOT_PRIME_POWERS = (-3, -1, 0, 1, 6, 10, 12, 15, 18, 20, 21, 24, 26, 28, 33, 36, 40)
# no digits and no "a", so never a number, a relation or an element of ab1
_NO_DIGITS = st.text(alphabet="bxz,;:()-+ .", max_size=8)
_LARGE = st.integers(257, 10**15)


def _read_as_option(value):
    return (len(value) > 1 and value[0] == "-" and " " not in value
            and not re.fullmatch(r"-\d+|-\d*\.\d+", value))


@st.composite
def _bad_bounds(draw):
    """(text, code): not four integers (2), or four with one below 1 or above
    the hard cap (3)."""
    kind = draw(st.sampled_from(["junk", "count", "low", "high"]))
    if kind == "junk":
        return draw(_NO_DIGITS), 2
    if kind == "count":
        return ",".join(map(str, draw(st.lists(st.integers(1, 3), max_size=7).filter(
            lambda v: len(v) != 4)))), 2
    vals = [draw(st.integers(1, c)) for c in _HARD_CAP]
    i = draw(st.integers(0, 3))
    vals[i] = draw(st.integers(-10**6, 0) if kind == "low" else
                   st.integers(_HARD_CAP[i] + 1, 10**6))
    return ",".join(map(str, vals)), 3


@st.composite
def _file_call(draw, path):
    """relation, quotient or analyze on the 3-element algebra ab1 (names 0,
    a, 2a) or the hyperfield m1, as (argv, code)."""
    cmd = draw(st.sampled_from(["relation", "quotient", "analyze"]))
    fx = "m1" if cmd == "relation" and draw(st.booleans()) else "ab1"
    opts = {"--bounds": ",".join(str(draw(st.integers(1, c))) for c in _HARD_CAP),
            "--n": str(draw(st.integers(1, 6)))}
    if cmd == "analyze":
        analysis = draw(st.sampled_from(["snpart", "transitivity", "smallest", "s-stabilize"]))
        argv = [cmd, path[fx], analysis]
        if analysis == "snpart":
            opts["--set"] = ",".join(draw(st.lists(st.sampled_from(["0", "a", "2a"]),
                                                   min_size=1, max_size=3)))
        has_n = analysis in ("snpart", "transitivity")
    else:
        rels = ["alpha"] if fx == "m1" else ["L", "A", "Sn", "Sn:1", "Sn:3"]
        rels += ["alpha"] if cmd == "relation" else []
        opts["--rel"] = draw(st.sampled_from(rels))
        opts["--oracle"] = draw(st.sampled_from(["auto", "off"]))
        argv = [cmd, path[fx]]
        has_n = opts["--rel"] == "Sn"
    code = 0
    bad = draw(st.sampled_from(["none", "--bounds"] + ["--n"] * has_n
                               + ["--set"] * ("--set" in opts) + ["--rel"] * ("--rel" in opts)))
    if bad == "--bounds":
        opts[bad], code = draw(_bad_bounds())
    elif bad == "--n":
        opts[bad], code = str(draw(st.integers(-10**6, 0))), 2
    elif bad == "--set":
        opts[bad], code = draw(st.one_of(_NO_DIGITS, st.just("0,b"))), 2
    elif bad == "--rel":
        opts[bad], code = draw(st.one_of(
            _NO_DIGITS, st.integers(-10**6, 0).map("Sn:{}".format),
            st.sampled_from(["Sn:", "Sn:x", "S", "alpha" if cmd == "quotient" else "Sn:1.5"]))), 2
    return argv + [f"{opt}={value}" for opt, value in opts.items()], code


@st.composite
def _gen_call(draw):
    """gen trivial, qhyperfield or coset as (argv, code)."""
    generator = draw(st.sampled_from(["trivial", "qhyperfield", "coset"]))
    code = 0
    if generator == "trivial":
        q = draw(st.sampled_from(_PRIME_POWERS))
        dim = draw(st.sampled_from([d for d in range(1, 5) if q ** d <= 27]))
        constants = draw(st.sampled_from(["", {(3, 1): "ab1", (3, 3): "ex2"}.get((q, dim), "")]))
        if dim == 2 and draw(st.booleans()):
            # every alternating bracket on two vectors satisfies Jacobi
            constants = "(0,1):({},{})".format(*draw(st.lists(st.integers(-9, 9), min_size=2,
                                                              max_size=2)))
        bad = draw(st.sampled_from(["none", "--q", "--dim", "--constants"]))
        if bad == "--q":
            q = draw(st.one_of(st.sampled_from(_NOT_PRIME_POWERS), _LARGE))
            code = 3 if q ** dim > 256 else 2
        elif bad == "--dim":
            dim, code = draw(st.one_of(st.integers(-10**6, 0), st.integers(9, 10**6))), 2
        elif bad == "--constants":
            constants, code = draw(st.one_of(
                st.tuples(_NO_DIGITS.filter(lambda t: t.replace(";", "").strip()), st.just(2)),
                st.tuples(st.sampled_from(["ex1", "(0,9):(1)", "(1,0):(0,1)", "(0,1):(1"]),
                          st.just(2)),
                # [x,[y,z]] + cyclic = 2z: not zero over GF(3), zero over GF(2)
                st.just(("(0,1):(0,0,1);(0,2):(1,0,0);(1,2):(0,1,0)",
                         {(3, 3): 1, (2, 3): 0}.get((q, dim), 2))),
            ))
        return ["gen", "trivial", f"--q={q}", f"--dim={dim}", f"--constants={constants}"], code
    if generator == "qhyperfield":
        q = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]))
        g = draw(st.integers(1, q - 1))
        # the powers of g are a subgroup; any representative mod q names a unit
        H = {pow(g, k, q) for k in range(q)}
        subgroup = ",".join(str(h + q * draw(st.integers(-2, 2))) for h in sorted(H))
        bad = draw(st.sampled_from(["none", "--q", "--subgroup"]))
        if bad == "--q":
            q, subgroup = draw(st.one_of(st.sampled_from(_NOT_PRIME_POWERS + (4, 9, 25)),
                                         _LARGE)), "1"
            code = 3 if q > 256 else 2
        elif bad == "--subgroup":
            subgroup, code = draw(st.one_of(
                st.tuples(st.sampled_from(["", ",", "1,x", "1.0", "one"]), st.just(2)),
                st.tuples(st.sampled_from([subgroup + ",0", "0"]), st.just(1)),
            ))
        return ["gen", "qhyperfield", f"--q={q}", f"--subgroup={subgroup}"], code
    k = draw(st.integers(1, 27))
    group, d = draw(st.sampled_from([("s3", None), (f"zn:{k}", k)]))
    if d is None:
        subgroup = draw(st.sampled_from(["0", "0,3,4", "012,120,201", "0,1", "0,1,2,3,4,5"]))
    else:
        step = draw(st.sampled_from([s for s in range(1, k + 1) if k % s == 0]))
        subgroup = ",".join(map(str, range(0, k, step)))
    bad = draw(st.sampled_from(["none", "--group", "--subgroup"]))
    if bad == "--group":
        group, code = draw(st.one_of(
            st.tuples(_NO_DIGITS, st.just(2)), st.tuples(st.just("zn:x"), st.just(2)),
            st.tuples(_LARGE.map("zn:{}".format), st.just(3)),
            st.tuples(st.integers(-10**6, 0).map("zn:{}".format), st.just(1)),
        ))
        subgroup = "0"
    elif bad == "--subgroup":
        subgroup, code = draw(st.one_of(
            st.tuples(st.sampled_from(["", " , ", "0,y", "zz"]), st.just(2)),
            st.tuples(st.sampled_from(["0,-1", "0,99", "0,1_000_000"]), st.just(1)),
        ))
    return ["gen", "coset", f"--group={group}", f"--subgroup={subgroup}"], code


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_fuzzed_arguments_end_in_their_exit_code(capsys, fixture_files, data, threads, seed):
    # any exception that escapes main fails the example; --threads and
    # --seed are accepted and ignored, so no thread may start
    argv, want = data.draw(st.one_of(_file_call(fixture_files), _gen_call()))
    argv = [f"--threads={threads}", f"--seed={seed}", *argv]
    if data.draw(st.booleans()):
        if any(_read_as_option(a.split("=", 1)[1]) for a in argv if a.startswith("--")):
            want = 2
        argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--") else [a])]
    with mock.patch("threading.Thread.start", side_effect=AssertionError("thread started")):
        code, out, err = run(capsys, *argv)
    assert code == want, (argv, err)
    assert err.startswith(_STDERR_PREFIX[code]) if code else err == ""
