"""Properties of the package source itself."""

import ast
import pathlib

import tangletree

SRC = pathlib.Path(tangletree.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so a certificate written as one would
    # silently stop being checked
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def _imported_names(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_imports():
    # an import nothing reads is dead code and hides a module's real
    # dependencies
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported_names(tree):
            if name not in used:
                found.append("%s:%d %s" % (path.name, line, name))
    assert not found, found
