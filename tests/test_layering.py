"""Module layering: laws.py holds the law-shape loops and the generator
decider and imports nothing from the package, and each module that runs a
shape loop or the decider runs laws.py's, which structures does not define;
gf.py is the one home of GF(q) and structure-constant arithmetic, so it
depends on no other hyperlie module but errors and laws, the structures
module (the checkers and the axiom replay) imports only errors, sets and
laws, so the replay never reaches the relation engine, the quotients
module (the linear oracle) does not reach into the generators, the
package imports nothing from the tests, the brute-force reference
enumerator does not reuse the engine's enumeration, the coordinate-space
reference oracle shares no code with what it is compared against, no
module but the package's __init__ imports a name it does not use, and
`from hyperlie import *` binds every name that __init__ imports."""

import ast
import importlib
import os
import random

import hyperlie
from hyperlie.errors import NotLie
from hyperlie.gf import constants_table, get_gf
from reference_linear import check_constants_lie

PACKAGE_DIR = os.path.dirname(hyperlie.__file__)
TESTS_DIR = os.path.dirname(__file__)


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_trees():
    return {fname: _tree(os.path.join(PACKAGE_DIR, fname))
            for fname in sorted(os.listdir(PACKAGE_DIR)) if fname.endswith(".py")}


def _names(tree):
    """Every identifier that tree defines, reads, imports or looks up."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.asname or a.name for a in node.names)
    return out


def package_imports(module: str):
    """Names of the hyperlie modules that hyperlie/<module>.py imports."""
    out = set()
    for node in ast.walk(_tree(os.path.join(PACKAGE_DIR, f"{module}.py"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                out.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "hyperlie":
                out.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            out.update(a.name.partition(".")[2] for a in node.names
                       if a.name.split(".")[0] == "hyperlie")
    return out


def test_laws_imports_nothing_from_the_package():
    assert package_imports("laws") == set()


def test_gf_imports_only_errors():
    assert package_imports("gf") <= {"errors", "laws"}


def test_structures_imports_only_errors_and_sets():
    assert package_imports("structures") <= {"errors", "sets", "laws"}


def test_quotients_does_not_import_generators():
    assert "generators" not in package_imports("quotients")


def test_one_home_names_resolve():
    from hyperlie import generators, gf, laws, quotients, structures

    assert hyperlie.FiniteField is quotients.FiniteField is gf.FiniteField
    assert generators.constants_table is gf.constants_table
    # each law shape has one loop, and the generator decider one home:
    # every module that names one runs laws.py's
    shapes = {name for name, obj in vars(laws).items()
              if callable(obj) and getattr(obj, "__module__", None) == laws.__name__}
    assert {"associativity", "commutativity", "first_failure", "homogeneity", "jacobi",
            "left_distributivity", "right_distributivity", "on_generators", "spanning_tree",
            "associates_at", "identity"} <= shapes
    for module in (structures, gf, quotients, generators):
        used = _names(_tree(module.__file__)) & shapes
        assert used, module.__name__
        for name in used:
            assert getattr(module, name) is getattr(laws, name), (module.__name__, name)
    # Jacobi over a set of elements is laws.jacobi wherever it is checked
    assert "jacobi" in _names(_tree(generators.__file__)) & _names(_tree(quotients.__file__))
    for fname in _package_trees():
        module = importlib.import_module(f"hyperlie.{fname[:-3]}" if fname != "__init__.py"
                                         else "hyperlie")
        for name in _names(_tree(module.__file__)) & {"on_generators", "spanning_tree",
                                                       "associates_at"}:
            assert getattr(module, name) is getattr(laws, name), (fname, name)


def test_structures_defines_no_generator_decider():
    # the checkers run laws.on_generators; the decider, its steps and its
    # premises are written in laws.py only
    from hyperlie import structures

    defined = {node.name for node in ast.walk(_tree(structures.__file__))
               if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"on_generators", "spanning_tree", "associates_at", "_steps",
                               "_additive", "holds_on_generators", "scalars_on_generators",
                               "jacobi_witness", "additive_generators"})


def test_package_imports_nothing_from_tests():
    test_modules = {f[:-3] for f in os.listdir(TESTS_DIR) if f.endswith(".py")} | {"tests"}
    for fname, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                assert node.module.split(".")[0] not in test_modules, fname
            elif isinstance(node, ast.Import):
                assert {a.name.split(".")[0] for a in node.names}.isdisjoint(test_modules), fname


# the coordinate-space linear oracle, its GF(q) linear algebra and its
# coordinate bracket live in tests/reference_linear.py, not in the package
MOVED_TO_REFERENCE = {
    "bracket_coords", "check_constants_lie", "row_reduce", "span_indices",
    "random_invertible", "mat_inverse", "linear_oracle_Sn", "classical_dims_chain",
    "_constants_table", "_derived_subspace_basis",
}


def test_moved_reference_names_are_not_in_the_package():
    for fname, tree in _package_trees().items():
        assert _names(tree).isdisjoint(MOVED_TO_REFERENCE), fname
    assert not {"inv", "sub"} & set(vars(hyperlie.FiniteField))


def test_reference_enumerator_shares_no_enumeration_code():
    # the brute-force reference may take the leaf pool and the bounds type
    # from the engine, and nothing that enumerates
    path = os.path.join(os.path.dirname(__file__), "reference_enumerator.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hyperlie.relations":
            taken.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "hyperlie":
            assert "relations" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert "hyperlie.relations" not in {a.name for a in node.names}
    assert taken <= {"_leaf_pool", "ExpressionBounds"}


def test_reference_linear_shares_no_oracle_code():
    # the coordinate reference computes its own brackets, Jacobi checks and
    # spans: it takes field arithmetic and the Partition type from the
    # package, and nothing that the tests compare it with
    tree = _tree(os.path.join(TESTS_DIR, "reference_linear.py"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    assert modules <= {"itertools", "hyperlie.errors", "hyperlie.gf", "hyperlie.relations"}
    assert _names(tree).isdisjoint({
        "linear_oracle_partition", "detect_trivial", "_span", "_derived", "quotients",
        "jacobi", "on_generators", "classical_tables", "generators",
    })


def _random_constants(rng, q, dim):
    return {(i, j): tuple(rng.randrange(q) for _ in range(dim))
            for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.7}


def test_table_jacobi_names_the_reference_first_triple():
    # the generator checks Jacobi on its packed tables, the reference in
    # coordinates: both name the same first basis triple, or none
    from hyperlie.generators import _classical

    rng = random.Random(0)
    failed = 0
    for q, max_dim in ((2, 4), (3, 4), (4, 4), (5, 3), (7, 2)):
        for _ in range(60):
            dim = rng.randint(1, max_dim)
            constants = _random_constants(rng, q, dim)
            want = got = None
            try:
                check_constants_lie(get_gf(q), dim, constants_table(get_gf(q), dim, constants))
            except NotLie as e:
                want = str(e), e.axiom, e.witness
            try:
                _classical(q, dim, constants)
            except NotLie as e:
                got = str(e), e.axiom, e.witness
            assert got == want, (q, dim, constants)
            failed += want is not None
    assert 0 < failed < 300


def test_star_import_binds_every_exported_name():
    # the imports in __init__.py are the one statement of the public API;
    # with no __all__, import * binds them and the loaded submodules
    exported = {a.asname or a.name for node in ast.walk(_tree(hyperlie.__file__))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    submodules = {f[:-3] for f in _package_trees()} - {"__init__"}
    star = {}
    exec("from hyperlie import *", star)
    star = set(star) - {"__builtins__"}
    assert "reevaluate" in exported
    assert exported <= star <= exported | submodules | {"__version__"}
    assert not hasattr(hyperlie, "__all__")


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module uses what it imports
    unused = []
    for fname, tree in _package_trees().items():
        if fname == "__init__.py":
            continue
        imported = {(a.asname or a.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names} - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}: {name}" for name in sorted(imported - used)]
    assert unused == []
