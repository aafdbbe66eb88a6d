"""Immutable graph model: vertices 0..n-1, undirected simple edges."""

from functools import lru_cache
from itertools import combinations


class Graph:
    """A graph with one adjacency mask per vertex.

    `full` is the vertex mask of V, and `edge_masks` holds the vertex mask
    of each edge in `edge_tuples()` order, built on first use.
    `separations` is the table of registered separation members: every S_k
    that `seps.enumerate_separations` builds on this graph registers its
    members here, keyed by their (A, B) vertex masks.
    """

    __slots__ = ("n", "edges", "vertices", "full", "adj", "edge_masks", "separations",
                 "_hash")

    def __init__(self, n, edges):
        edges = frozenset(frozenset(e) for e in edges)
        adj = [0] * n
        for e in edges:
            if len(e) != 2:
                raise ValueError("self-loop or malformed edge: %r" % (set(e),))
            for v in e:
                if not (0 <= v < n):
                    raise ValueError("vertex %r out of range 0..%d" % (v, n - 1))
            u, v = e
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = edges
        self.vertices = frozenset(range(n))
        self.full = (1 << n) - 1
        self.adj = tuple(adj)
        self.separations = {}
        self._hash = hash((n, edges))

    def __getattr__(self, name):
        # reached only while the edge_masks slot is unset
        if name != "edge_masks":
            raise AttributeError(name)
        self.edge_masks = masks = tuple(map(vertex_mask, self.edge_tuples()))
        return masks

    def edge_tuples(self):
        return sorted(tuple(sorted(e)) for e in self.edges)

    def neighbors(self, v):
        return mask_vertices(self.adj[v])

    def reach(self, seed, allowed):
        """Mask of the vertices of `allowed` joined to the seed mask by
        paths inside `allowed`; the seed is assumed to lie in `allowed`."""
        adj = self.adj
        seen = frontier = seed
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & allowed & ~seen
            seen |= new
            frontier |= new
        return seen

    def component_masks(self, removed=0):
        """Vertex masks of the components of G - removed, by smallest vertex."""
        free = self.full & ~removed
        comps = []
        while free:
            comp = self.reach(free & -free, free)
            free ^= comp
            comps.append(comp)
        return comps

    def components(self, removed=frozenset()):
        """Connected components of G - removed, each a frozenset."""
        return [mask_vertices(c) for c in self.component_masks(vertex_mask(set(removed)))]

    def __eq__(self, other):
        return self is other or (isinstance(other, Graph) and self.n == other.n
                                 and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, len(self.edges))


def vertex_mask(vertices):
    """Int bitmask of a set of distinct vertices."""
    return sum(1 << v for v in vertices)


def mask_bits(mask):
    """Positions of the set bits of an int, ascending, as a list: the
    vertices of a vertex mask, the members of a bitset over a system's
    `IndexTable`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_vertices(mask):
    """Vertex set of an int bitmask."""
    return frozenset(mask_bits(mask))


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
def _min_vertex_cut_size(n, edges, a, b):
    """Minimum number of vertices (excluding a, b) separating non-adjacent
    a, b in the graph on 0..n-1 with the given edges: the smallest X
    avoiding a and b with b out of reach of a in G - X.

    The loop tries every X up to the cut size, so it is exponential in that
    size; it serves as a reference for tests and benchmarks.  Keyed by
    value, so the cache keeps no Graph alive.
    """
    G = Graph(n, edges)
    others = [v for v in range(n) if v != a and v != b]
    for size in range(len(others) + 1):
        for X in combinations(others, size):
            if not G.reach(1 << a, G.full & ~vertex_mask(X)) >> b & 1:
                return size
    raise AssertionError("unreachable: removing all other vertices separates")


def min_vertex_cut_size(G, a, b):
    if frozenset((a, b)) in G.edges:
        raise ValueError("no vertex cut between adjacent vertices")
    return _min_vertex_cut_size(G.n, G.edges, a, b)
