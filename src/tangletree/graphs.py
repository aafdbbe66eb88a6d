"""Immutable graph model: vertices 0..n-1, undirected simple edges."""

from functools import lru_cache


class Graph:
    __slots__ = ("n", "edges", "_hash")

    def __init__(self, n, edges):
        edges = frozenset(frozenset(e) for e in edges)
        for e in edges:
            if len(e) != 2:
                raise ValueError("self-loop or malformed edge: %r" % (set(e),))
            for v in e:
                if not (0 <= v < n):
                    raise ValueError("vertex %r out of range 0..%d" % (v, n - 1))
        self.n = n
        self.edges = edges
        self._hash = hash((n, edges))

    @property
    def vertices(self):
        return frozenset(range(self.n))

    def edge_tuples(self):
        return sorted(tuple(sorted(e)) for e in self.edges)

    def neighbors(self, v):
        return {w for e in self.edges if v in e for w in e if w != v}

    def induced_edges(self, X):
        X = frozenset(X)
        return {e for e in self.edges if e <= X}

    def components(self, removed=frozenset()):
        """Connected components of G - removed, each a frozenset."""
        removed = frozenset(removed)
        seen = set(removed)
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, len(self.edges))


def vertex_mask(vertices):
    """Int bitmask of a set of distinct vertices."""
    return sum(1 << v for v in vertices)


def mask_vertices(mask):
    """Vertex set of an int bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def glue_cliques(blocks):
    """Union of cliques on the given vertex sets."""
    verts = set()
    for b in blocks:
        verts |= set(b)
    n = max(verts) + 1
    edges = set()
    for b in blocks:
        b = sorted(b)
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                edges.add((b[i], b[j]))
    return Graph(n, edges)


@lru_cache(maxsize=None)
def _min_vertex_cut_size(G, a, b):
    """Minimum number of vertices (excluding a, b) separating non-adjacent a, b."""
    if G.n <= 14:
        # exhaustive: smallest X avoiding a,b with a,b in different components of G-X
        others = sorted(G.vertices - {a, b})
        from itertools import combinations
        for size in range(len(others) + 1):
            for X in combinations(others, size):
                comps = G.components(frozenset(X))
                ca = next(c for c in comps if a in c)
                if b not in ca:
                    return size
        raise AssertionError("unreachable: removing all other vertices separates")
    import networkx as nx
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(tuple(e) for e in G.edges)
    return len(nx.minimum_node_cut(H, a, b))


def min_vertex_cut_size(G, a, b):
    if frozenset((a, b)) in G.edges:
        raise ValueError("no vertex cut between adjacent vertices")
    return _min_vertex_cut_size(G, a, b)
