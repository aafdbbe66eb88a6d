"""Nested sets, splitting stars, S-trees and tree-decompositions."""

from itertools import combinations

from .errors import Irregular, NotNested, VerificationFailed
from .seps import canonical, nested, separation
from .tangles import interior, same_separation


class NestedSet:
    """Pairwise nested unoriented separations, canonical members."""

    __slots__ = ("system", "members", "_hash")

    def __init__(self, system, members):
        members = frozenset(canonical(s) for s in members)
        lst = sorted(members, key=lambda s: s.sort_key)
        for a, b in combinations(lst, 2):
            if not nested(a, b):
                raise NotNested("%r crosses %r" % (a, b))
        self.system = system
        self.members = members
        self._hash = hash((system, members))

    def oriented(self):
        out = set()
        for s in self.members:
            out.add(s)
            out.add(s.inv)
        return out

    def __iter__(self):
        return iter(sorted(self.members, key=lambda s: s.sort_key))

    def __len__(self):
        return len(self.members)

    def __contains__(self, s):
        return canonical(s) in self.members

    def __eq__(self, other):
        return (isinstance(other, NestedSet)
                and self.system == other.system and self.members == other.members)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "NestedSet(%d members)" % len(self.members)


def check_regular(N):
    """Reject degenerate, small-oriented and trivial-within-N members."""
    oriented = N.oriented()
    for s in N:
        if s.is_degenerate:
            raise Irregular("degenerate member %r" % (s,))
        if s.is_small or s.is_cosmall:
            raise Irregular("small member %r" % (s,))
    for s in oriented:
        for t in oriented:
            if same_separation(s, t):
                continue
            if s.leq(t) and s != t and s.leq(t.inv) and s != t.inv:
                raise Irregular("member %r trivial within the set" % (s,))


def nodes(N):
    """Splitting stars of a regular nested set, sorted."""
    check_regular(N)
    oriented = sorted(N.oriented(), key=lambda s: s.sort_key)
    if not oriented:
        return [frozenset()]
    stars = set()
    for s in oriented:
        above = [t for t in oriented
                 if not same_separation(s, t) and s.leq(t) and s != t]
        minimal = [t for t in above
                   if not any(u != t and u.leq(t) for u in above)]
        stars.add(frozenset([s] + [t.inv for t in minimal]))
    return sorted(stars, key=lambda st: sorted(s.sort_key for s in st))


class STree:
    """Tree plus edge map alpha; alpha of a reversed edge is the inverse."""

    __slots__ = ("stars", "edges", "alpha")

    def __init__(self, stars, edges, alpha):
        self.stars = list(stars)          # star per tree vertex
        self.edges = sorted(edges)        # (i, j) with i < j
        self.alpha = dict(alpha)          # (i, j) -> oriented sep pointing to j
        for (i, j) in self.edges:
            if self.alpha[(j, i)] != self.alpha[(i, j)].inv:
                raise VerificationFailed("alpha is not inverted on edge %r" % ((i, j),))

    def leaf_separations(self):
        """Oriented separations on leaf edges, pointing away from the leaf."""
        deg = {}
        for (i, j) in self.edges:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        out = []
        for (i, j) in self.edges:
            if deg.get(i, 0) == 1:
                out.append(self.alpha[(i, j)])
            if deg.get(j, 0) == 1:
                out.append(self.alpha[(j, i)])
        return sorted(out, key=lambda s: s.sort_key)

    def separations(self):
        return sorted({canonical(self.alpha[e]) for e in self.alpha},
                      key=lambda s: s.sort_key)

    def __len__(self):
        return len(self.stars)


def to_stree(N):
    """Unique S-tree of a regular tree set: vertices are the nodes."""
    stars = nodes(N)
    index = {st: i for i, st in enumerate(stars)}
    edges = set()
    alpha = {}
    for s in N.oriented():
        home = [st for st in stars if s in st]
        if len(home) != 1:
            raise VerificationFailed("member %r lies in %d nodes" % (s, len(home)))
    for s in N:
        j = index[next(st for st in stars if s in st)]
        i = index[next(st for st in stars if s.inv in st)]
        a, b = min(i, j), max(i, j)
        edges.add((a, b))
        alpha[(i, j)] = s
        alpha[(j, i)] = s.inv
    tree = STree(stars, edges, alpha)
    if len(tree.stars) != len(N) + 1:
        raise VerificationFailed("nested set does not form a tree")
    return tree


class TreeDecomposition:
    __slots__ = ("graph", "bags", "edges", "_induced")

    def __init__(self, graph, bags, edges):
        self.graph = graph
        self.bags = [frozenset(b) for b in bags]
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self._induced = None

    def adhesion(self):
        if not self.edges:
            return 0
        return max(len(self._side(i, j)[0] & self._side(i, j)[1])
                   for (i, j) in self.edges)

    def _neighbors(self, i):
        out = []
        for (a, b) in self.edges:
            if a == i:
                out.append(b)
            if b == i:
                out.append(a)
        return out

    def _reach(self, start, within):
        """Tree vertices reachable from start through vertices in within."""
        seen = {start}
        stack = [start]
        while stack:
            for w in self._neighbors(stack.pop()):
                if w in within and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def _side_nodes(self, i, j):
        """Tree vertices on the i side of edge (i,j)."""
        return self._reach(i, set(range(len(self.bags))) - {j})

    def _is_tree(self):
        """The edges are len(bags) - 1 distinct pairs of distinct bags that
        connect all of them."""
        n = len(self.bags)
        if (len(set(self.edges)) != len(self.edges) or len(self.edges) != n - 1
                or any(i == j or i < 0 or j >= n for i, j in self.edges)):
            return False
        return len(self._reach(0, range(n))) == n

    def _side(self, i, j):
        si = self._side_nodes(i, j)
        A = frozenset().union(*(self.bags[t] for t in si))
        rest = set(range(len(self.bags))) - si
        B = frozenset().union(*(self.bags[t] for t in rest)) if rest else frozenset()
        return A, B

    def induced_separations(self):
        """Per tree edge (i,j): the separation oriented toward j."""
        if self._induced is None:
            out = {}
            for (i, j) in self.edges:
                A, B = self._side(i, j)
                out[(i, j)] = separation(self.graph, A, B)
            self._induced = out
        return self._induced

    def node_star(self, t):
        """Induced separations of incident edges, oriented toward t."""
        out = set()
        for (i, j) in self.edges:
            sep = self.induced_separations()[(i, j)]
            if j == t:
                out.add(sep)
            elif i == t:
                out.add(sep.inv)
        return frozenset(out)

    def is_valid(self):
        """(ok, witness): a tree, vertex+edge cover and connected vertex traces."""
        if not self._is_tree():
            return False, ("not-a-tree", self.edges)
        union = frozenset().union(*self.bags) if self.bags else frozenset()
        if union != self.graph.vertices:
            return False, ("uncovered-vertex", sorted(self.graph.vertices - union))
        for e in self.graph.edges:
            if not any(e <= b for b in self.bags):
                return False, ("uncovered-edge", sorted(e))
        for v in self.graph.vertices:
            hosts = {i for i, b in enumerate(self.bags) if v in b}
            if self._reach(min(hosts), hosts) != hosts:
                return False, ("disconnected-trace", v)
        return True, None

    def __eq__(self, other):
        return (isinstance(other, TreeDecomposition) and self.graph == other.graph
                and self.bags == other.bags and self.edges == other.edges)

    def __repr__(self):
        return "TreeDecomposition(%d bags)" % len(self.bags)


def to_tree_decomposition(N, G):
    """Bags are the node interiors; the induced separations must equal N."""
    tree = to_stree(N)
    bags = [interior(st, G) for st in tree.stars]
    td = TreeDecomposition(G, bags, [(i, j) for (i, j) in tree.edges])
    ok, w = td.is_valid()
    if not ok:
        raise VerificationFailed("interior bags do not form a tree-decomposition: %r" % (w,))
    induced = td.induced_separations()
    got = {canonical(s) for s in induced.values()}
    if got != set(N.members):
        raise VerificationFailed("round trip failed: induced separations differ")
    return td
