"""Module layering: gf.py is the one home of GF(q) and structure-constant
arithmetic, so it depends on no other hyperlie module but errors, the
structures module (the checkers and the axiom replay) imports only errors
and sets, so the replay never reaches the relation engine, the quotients
module (the linear oracle) does not reach into the generators,
the brute-force reference enumerator does not reuse the engine's
enumeration, and no module but the package's __init__ imports a name it
does not use."""

import ast
import os

import hyperlie

PACKAGE_DIR = os.path.dirname(hyperlie.__file__)


def package_imports(module: str):
    """Names of the hyperlie modules that hyperlie/<module>.py imports."""
    with open(os.path.join(PACKAGE_DIR, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                out.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "hyperlie":
                out.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            out.update(a.name.partition(".")[2] for a in node.names
                       if a.name.split(".")[0] == "hyperlie")
    return out


def test_gf_imports_only_errors():
    assert package_imports("gf") <= {"errors"}


def test_structures_imports_only_errors_and_sets():
    assert package_imports("structures") <= {"errors", "sets"}


def test_quotients_does_not_import_generators():
    assert "generators" not in package_imports("quotients")


def test_one_home_names_resolve():
    from hyperlie import generators, gf, quotients

    assert hyperlie.FiniteField is quotients.FiniteField is gf.FiniteField
    assert generators.constants_table is gf.constants_table
    assert quotients.check_constants_lie is gf.check_constants_lie


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


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module uses what it imports
    unused = []
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(PACKAGE_DIR, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {(a.asname or a.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names} - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}: {name}" for name in sorted(imported - used)]
    assert unused == []
