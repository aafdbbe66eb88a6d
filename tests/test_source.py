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
