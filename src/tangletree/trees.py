"""Nested sets, splitting stars, S-trees and tree-decompositions."""

from .errors import Irregular, NotInSystem, NotNested, VerificationFailed
from .graphs import mask_bits
from .seps import canonical, separation
from .tangles import interior


class NestedSet:
    """Pairwise nested unoriented separations, held as the bitset `bits` of
    their canonical members over the system's `IndexTable`; iteration
    follows the table's order.

    Member j is nested with member i when j lies in up[i], down[i],
    upinv[i] or up[i*], the last being {x : x* <= i}.
    """

    __slots__ = ("system", "bits")

    def __init__(self, system, members):
        T = system.table()
        bits = 0
        for s in members:
            i = T.index.get(s)
            if i is None:
                raise NotInSystem("%r is not in the system" % (s,))
            bits |= 1 << min(i, T.inv[i])
        for i in mask_bits(bits):
            cross = bits & ~(T.up[i] | T.down[i] | T.upinv[i] | T.up[T.inv[i]])
            if cross:
                j = (cross & -cross).bit_length() - 1
                raise NotNested("%r crosses %r" % (T.members[i], T.members[j]))
        self.system = system
        self.bits = bits

    def __iter__(self):
        members = self.system.table().members
        return iter([members[i] for i in mask_bits(self.bits)])

    def __len__(self):
        return self.bits.bit_count()

    def __repr__(self):
        return "NestedSet(%d members)" % len(self)


def check_regular(N):
    """Reject degenerate, small-oriented and trivial-within-N members;
    return the bitset of N's members and their inverses."""
    T = N.system.table()
    oriented = N.bits
    for i in mask_bits(N.bits):
        if T.inv[i] == i:
            raise Irregular("degenerate member %r" % (T.members[i],))
        if not T.proper >> i & 1:
            raise Irregular("small member %r" % (T.members[i],))
        oriented |= 1 << T.inv[i]
    for i in mask_bits(oriented):
        if T.up[i] & T.upinv[i] & oriented & ~(1 << i | 1 << T.inv[i]):
            raise Irregular("member %r trivial within the set" % (T.members[i],))
    return oriented


def nodes(N):
    """Splitting stars of a regular nested set, sorted: the star of an
    oriented member s is s plus the inverse of each minimal member above
    it, other than s*."""
    oriented = check_regular(N)
    if not oriented:
        return [frozenset()]
    T = N.system.table()
    up, down, inv = T.up, T.down, T.inv
    stars = set()
    for s in mask_bits(oriented):
        above = up[s] & oriented & ~(1 << s | 1 << inv[s])
        star = 1 << s
        for t in mask_bits(above):
            if down[t] & above == 1 << t:
                star |= 1 << inv[t]
        stars.add(star)
    return [frozenset(T.members[i] for i in mask_bits(st))
            for st in sorted(stars, key=mask_bits)]


class STree:
    """Tree of node stars; each edge is a triple (i, j, x) with i < j and
    the oriented separation x pointing toward j: x in stars[j] and x* in
    stars[i]."""

    __slots__ = ("stars", "edges")

    def __init__(self, stars, edges):
        self.stars = list(stars)
        self.edges = sorted(edges, key=lambda e: e[:2])

    def leaf_separations(self):
        """Oriented separations on leaf edges, pointing away from the leaf."""
        deg = {}
        for (i, j, _) in self.edges:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        out = []
        for (i, j, x) in self.edges:
            if deg[i] == 1:
                out.append(x)
            if deg[j] == 1:
                out.append(x.inv)
        return sorted(out, key=lambda s: s.sort_key)


def to_stree(N):
    """Unique S-tree of a regular tree set: vertices are the nodes."""
    stars = nodes(N)
    node = {}
    for i, st in enumerate(stars):
        for s in st:
            if node.setdefault(s, i) != i:
                raise VerificationFailed("member %r lies in two nodes" % (s,))
    edges = []
    for s in N:
        if node[s] < node[s.inv]:
            s = s.inv
        edges.append((node[s.inv], node[s], s))
    tree = STree(stars, edges)
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

    def __repr__(self):
        return "TreeDecomposition(%d bags)" % len(self.bags)


def to_tree_decomposition(N, G):
    """Bags are the node interiors; the induced separations must equal N."""
    tree = to_stree(N)
    bags = [interior(st, G) for st in tree.stars]
    td = TreeDecomposition(G, bags, [(i, j) for (i, j, _) in tree.edges])
    ok, w = td.is_valid()
    if not ok:
        raise VerificationFailed("interior bags do not form a tree-decomposition: %r" % (w,))
    induced = td.induced_separations()
    got = {canonical(s) for s in induced.values()}
    if got != set(N):
        raise VerificationFailed("round trip failed: induced separations differ")
    return td
