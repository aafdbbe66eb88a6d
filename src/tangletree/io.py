"""Persistence of every artifact type plus DOT export.

All structured files are JSON with sorted keys and two-space indent, so a
fixed value always serializes to identical bytes.  All quantities are
integers or strings; an optional seed is recorded in the header of any file
produced by a seeded run.
"""

import json

from .errors import CrossingEdge, NotACover, NotInSystem, ParseError
from .graphs import Graph, mask_bits
from .seps import SeparationSystem, separation
from .tangles import Orientation, StarFamily, is_consistent
from .trees import NestedSet, TreeDecomposition


def _dump(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as f:
        f.write(text)
    return text


def _load(path, expect):
    with open(path) as f:
        text = f.read()
    try:
        obj = json.loads(text)
    except ValueError as e:
        raise ParseError("not valid JSON: %s" % (e,))
    if not isinstance(obj, dict) or obj.get("format") != expect:
        raise ParseError("expected a %r file" % (expect,))
    return obj


def _header(fmt, seed):
    out = {"format": fmt}
    if seed is not None:
        out["seed"] = int(seed)
    return out


def _vs(X):
    return sorted(int(v) for v in X)


def _sep_out(s):
    return [_vs(s.A), _vs(s.B)]


def _sep_in(G, pair):
    """The separation of G that an [A, B] pair of vertex lists names."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_ints, pair))):
        raise ParseError("a separation must be a pair [A, B] of vertex lists, got %r"
                         % (pair,))
    try:
        return separation(G, pair[0], pair[1])
    except (NotACover, CrossingEdge) as e:
        raise ParseError("%r is not a separation: %s" % (pair, e))


def _list(obj, key):
    value = obj.get(key)
    if not isinstance(value, list):
        raise ParseError("%r is missing or not a list" % (key,))
    return value


def _ints(row):
    return isinstance(row, list) and all(type(v) is int for v in row)


# ------------------------------------------------------------------- graphs


def save_graph(G, path, seed=None):
    obj = _header("graph", seed)
    obj["n"] = G.n
    obj["edges"] = G.edge_tuples()
    return _dump(obj, path)


def load_graph(path):
    """Structured {n, edges} JSON, or an edge-list with one "u v" per line.

    An edge-list may state its vertex count in one "n N" line; otherwise n
    is the largest vertex + 1.
    """
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return _json_graph(_load(path, "graph"), "edges")
    n, edges = None, []
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("edge line needs two vertices: %r" % (line,))
        if parts[0] == "n":
            if n is not None or not parts[1].isdecimal():
                raise ParseError("the vertex count needs one 'n N' line, N >= 0: %r"
                                 % (line,))
            n = int(parts[1])
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("vertices must be integers: %r" % (line,))
        edges.append((u, v))
    if n is None:
        if not edges:
            raise ParseError("empty edge list")
        n = max(v for e in edges for v in e) + 1
    return _graph(n, edges)


def _json_graph(obj, edges_key):
    """The graph of a JSON object's "n" and its edge list under edges_key."""
    n, edges = obj.get("n"), _list(obj, edges_key)
    if type(n) is not int or n < 0:
        raise ParseError("graph 'n' must be a non-negative integer")
    if not all(_ints(e) and len(e) == 2 for e in edges):
        raise ParseError("graph %r must be pairs of integers" % (edges_key,))
    return _graph(n, edges)


def _graph(n, edges):
    try:
        return Graph(n, [tuple(e) for e in edges])
    except ValueError as e:
        raise ParseError(str(e))


# ------------------------------------------------------------------ systems


def save_system(S, path, seed=None):
    obj = _header("separation-system", seed)
    obj["n"] = S.ground.n
    obj["k"] = S.k
    obj["members"] = [_sep_out(s) for s in S.unoriented()]
    return _dump(obj, path)


def load_system(path, G):
    obj = _load(path, "separation-system")
    return _system(G, [_sep_in(G, p) for p in _list(obj, "members")], obj.get("k"))


def _system(G, reps, k):
    """The system of G with the given canonical members and the file's k."""
    if k is not None and type(k) is not int:
        raise ParseError("'k' must be an integer, got %r" % (k,))
    return SeparationSystem(G, set(reps) | {s.inv for s in reps}, k=k)


# ------------------------------------------------------------------ tangles


def save_tangles(ts, path, seed=None):
    """Canonical separations plus, per tangle, the chosen side of each (0 = A)."""
    ts = list(ts)
    if not ts:
        raise ParseError("cannot persist an empty tangle set")
    S = ts[0].system
    reps = S.unoriented()
    obj = _header("tangle-set", seed)
    obj["n"] = S.ground.n
    obj["k"] = S.k
    obj["separations"] = [_sep_out(s) for s in reps]
    obj["tangles"] = [[0 if s in O else 1 for s in reps] for O in ts]
    return _dump(obj, path)


def load_tangles(path, G):
    obj = _load(path, "tangle-set")
    reps = [_sep_in(G, p) for p in _list(obj, "separations")]
    S = _system(G, reps, obj.get("k"))
    T = S.table()
    out = []
    for sides in _list(obj, "tangles"):
        if not (_ints(sides) and len(sides) == len(reps) and set(sides) <= {0, 1}):
            raise ParseError("a tangle row must list a side, 0 or 1, for each of the "
                             "%d separations, got %r" % (len(reps), sides))
        O = Orientation(S, T.bits(s if b == 0 else s.inv for s, b in zip(reps, sides)))
        if not is_consistent(O)[0]:
            raise ParseError("the tangle row %r is not consistent" % (sides,))
        out.append(O)
    return out


# --------------------------------------------------------------- star families


def load_star_family(path, G):
    obj = _load(path, "star-family")
    stars = _list(obj, "stars")
    if not all(isinstance(el, list) for el in stars):
        raise ParseError("'stars' must be lists of separations")
    els = [frozenset(_sep_in(G, p) for p in el) for el in stars]
    return StarFamily(els, tag=obj.get("tag", "user"))


# ---------------------------------------------------------------- nested sets


def save_nested_set(N, path, seed=None, annotations=None):
    """annotations maps a member to the tangle pair it efficiently distinguishes."""
    obj = _header("nested-set", seed)
    obj["n"] = N.system.ground.n
    obj["k"] = N.system.k
    obj["members"] = [_sep_out(s) for s in N]
    if annotations:
        obj["distinguishes"] = [list(annotations.get(s, [])) for s in N]
    return _dump(obj, path)


def load_nested_set(path, S):
    obj = _load(path, "nested-set")
    return _nested_set(S, [_sep_in(S.ground, p) for p in _list(obj, "members")])


def _nested_set(S, members):
    """The nested set of the given members; one outside S is a ParseError."""
    try:
        return NestedSet(S, members)
    except NotInSystem as e:
        raise ParseError(str(e))


# ------------------------------------------------------- tree-decompositions


def save_tree_decomposition(TD, path, seed=None):
    obj = _header("tree-decomposition", seed)
    obj["n"] = TD.graph.n
    obj["graph_edges"] = TD.graph.edge_tuples()
    obj["nodes"] = [{"id": i, "bag": _vs(b)} for i, b in enumerate(TD.bags)]
    obj["edges"] = [list(e) for e in TD.edges]
    return _dump(obj, path)


def load_tree_decomposition(path):
    """A malformed graph, node or tree edge, or a bag vertex outside the
    graph, is a ParseError."""
    obj = _load(path, "tree-decomposition")
    G = _json_graph(obj, "graph_edges")
    nodes = _list(obj, "nodes")
    if not all(isinstance(d, dict) and type(d.get("id")) is int and _ints(d.get("bag"))
               for d in nodes):
        raise ParseError("each node needs an integer 'id' and a 'bag' list of integers")
    outside = sorted({v for d in nodes for v in d["bag"]} - G.vertices)
    if outside:
        raise ParseError("bag vertices %r are not in the graph" % (outside,))
    nodes = sorted(nodes, key=lambda d: d["id"])
    if [d["id"] for d in nodes] != list(range(len(nodes))):
        raise ParseError("node ids must be 0..n-1")
    edges = _list(obj, "edges")
    if not all(_ints(e) and len(e) == 2 and all(0 <= v < len(nodes) for v in e)
               for e in edges):
        raise ParseError("tree 'edges' must be pairs of node ids")
    bags = [frozenset(d["bag"]) for d in nodes]
    return TreeDecomposition(G, bags, [tuple(e) for e in edges])


# ---------------------------------------------------------------- universes


def save_universe(U, path, seed=None):
    """Table form, every element under its name, read off the universe's
    own tables by element number."""
    names, order = U.ids, U._order
    obj = _header("universe", seed)
    obj["backend"] = "table-driven"
    obj["elements"] = [x.name for x in U]
    obj["leq"] = sorted([names[i], names[j]]
                        for i, up in enumerate(U._up) for j in mask_bits(up & ~(1 << i)))
    obj["inv"] = dict(zip(names, (names[t] for t in U._inv)))
    for key, table in (("meet", U._meet), ("join", U._join)):
        obj[key] = sorted([names[i], names[j], names[c]]
                          for i, row in enumerate(table) for j, c in enumerate(row))
    if order is not None and any(order):
        obj["order"] = dict(zip(names, order))
    return _dump(obj, path)


def load_universe(path):
    """Table form; `Universe.from_tables` checks every table as it reads
    it, so a missing table or a malformed row is a ParseError."""
    from .universe import Universe
    obj = _load(path, "universe")
    return Universe.from_tables(obj.get("elements"), obj.get("leq"), obj.get("inv"),
                                obj.get("meet"), obj.get("join"), order=obj.get("order"))


def load_abstract_system(path, U):
    obj = _load(path, "abstract-system")
    try:
        return U.system(_elements(U, _list(obj, "members")))
    except ValueError as e:
        raise ParseError(str(e))


def _elements(U, names):
    """The elements of U with the given names; a name that is not a string or
    names no element is a ParseError."""
    if not all(isinstance(name, str) for name in names):
        raise ParseError("element names must be strings, got %r" % (names,))
    try:
        return [U.element(name) for name in names]
    except NotInSystem as e:
        raise ParseError(str(e))


def load_abstract_star_family(path, U):
    obj = _load(path, "abstract-star-family")
    stars = _list(obj, "stars")
    if not all(isinstance(el, list) for el in stars):
        raise ParseError("'stars' must be lists of element names")
    els = [frozenset(_elements(U, el)) for el in stars]
    return StarFamily(els, tag=obj.get("tag", "user"))


def save_abstract_nested_set(N, path, seed=None):
    obj = _header("abstract-nested-set", seed)
    obj["members"] = sorted(s.name for s in N)
    return _dump(obj, path)


def load_abstract_nested_set(path, S):
    obj = _load(path, "abstract-nested-set")
    return _nested_set(S, _elements(S.ground, _list(obj, "members")))


# ------------------------------------------------------------------- reports


def save_report(report, path, seed=None):
    obj = _header("report", seed)
    obj["report"] = _plain(report)
    return _dump(obj, path)


def _plain(x):
    """Reduce report values to JSON-safe, deterministic primitives."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_plain(v) for v in x), key=str)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return repr(x)


# ----------------------------------------------------------------------- DOT


def _dot_label(text):
    return text.replace('"', r'\"')


def export_dot(obj):
    """Deterministic DOT text for an S-tree or a tree-decomposition.

    Nodes are labeled with bags (interiors for S-trees), edges with the
    order of the induced separation.
    """
    from .tangles import interior
    from .trees import STree
    lines = ["graph tangletree {"]
    if isinstance(obj, STree):
        ground = None
        for x in obj.alpha.values():
            ground = getattr(x, "graph", None)
            break
        for i, st in enumerate(obj.stars):
            if ground is not None:
                label = "{%s}" % ",".join(map(str, _vs(interior(st, ground))))
            else:
                label = "{%s}" % ",".join(sorted(s.name for s in st))
            lines.append('  n%d [label="%s"];' % (i, _dot_label(label)))
        for (i, j) in obj.edges:
            lines.append('  n%d -- n%d [label="%d"];'
                         % (i, j, obj.alpha[(i, j)].order))
    elif isinstance(obj, TreeDecomposition):
        for i, bag in enumerate(obj.bags):
            label = "{%s}" % ",".join(map(str, _vs(bag)))
            lines.append('  n%d [label="%s"];' % (i, _dot_label(label)))
        induced = obj.induced_separations()
        for (i, j) in obj.edges:
            lines.append('  n%d -- n%d [label="%d"];'
                         % (i, j, induced[(i, j)].order))
    else:
        raise ParseError("export_dot takes an STree or a TreeDecomposition")
    lines.append("}")
    return "\n".join(lines) + "\n"
