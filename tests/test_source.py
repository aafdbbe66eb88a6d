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


# each allowed cache, as "module.function", with its reason
CACHE_ALLOWED = {
    # the benchmark imports it (ROADMAP item 6); no library path fills it
    "graphs._min_vertex_cut_size",
}


def _cache_names(tree):
    """The names an import binds to functools.lru_cache or functools.cache."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in ("lru_cache", "cache")}
    return names


def _is_cache(decorator, names):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id in names
    return (isinstance(decorator, ast.Attribute)
            and decorator.attr in ("lru_cache", "cache")
            and isinstance(decorator.value, ast.Name)
            and decorator.value.id == "functools")


def test_no_module_level_cache():
    # a memoising decorator is state that outlives every call ("no unbounded
    # global cache"); results shared within one call live in a local dict
    found, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _cache_names(tree)
        for node in ast.walk(tree):
            if not any(_is_cache(d, names) for d in getattr(node, "decorator_list", ())):
                continue
            where = "%s.%s" % (path.stem, node.name)
            if where in CACHE_ALLOWED:
                allowed.add(where)
            else:
                found.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not found, found
    # an entry whose cache is gone must leave the list too
    assert allowed == CACHE_ALLOWED


def test_every_error_is_raised_in_src():
    # an exception type the package neither raises nor catches is dead
    # code; one that only the tests raise belongs in the tests
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                named |= {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert sorted(defined - named - {"TangletreeError"}) == []
