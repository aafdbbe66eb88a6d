"""Graph separations: construction, lattice ops, classification, enumeration.

An oriented separation (A,B) of G satisfies A u B = V and has no edge between
A\\B and B\\A.  Its order is |A n B|.  The same protocol (inv/leq/join/meet/
is_small/sort_key) is implemented by universe elements, so the tangle and
tree machinery is generic over both.
"""

from itertools import combinations

from .errors import CrossingEdge, MismatchedGround, NotACover, NotInSystem, TooLarge

MAX_VERTICES = 16
MAX_SYSTEM = 2 ** 20


class OrientedSeparation:
    __slots__ = ("graph", "A", "B", "_hash")

    def __init__(self, graph, A, B):
        self.graph = graph
        self.A = frozenset(A)
        self.B = frozenset(B)
        self._hash = hash((graph, self.A, self.B))

    # -- element protocol --

    @property
    def inv(self):
        return OrientedSeparation(self.graph, self.B, self.A)

    @property
    def order(self):
        return len(self.A & self.B)

    def leq(self, other):
        _check_ground(self, other)
        return self.A <= other.A and other.B <= self.B

    def join(self, other):
        _check_ground(self, other)
        return OrientedSeparation(self.graph, self.A | other.A, self.B & other.B)

    def meet(self, other):
        _check_ground(self, other)
        return OrientedSeparation(self.graph, self.A & other.A, self.B | other.B)

    @property
    def is_small(self):
        return self.A <= self.B

    @property
    def is_cosmall(self):
        return self.B <= self.A

    @property
    def is_degenerate(self):
        return self.A == self.B

    @property
    def sort_key(self):
        return (self.order, len(self.A), tuple(sorted(self.A)), tuple(sorted(self.B)))

    # -- value semantics --

    def __eq__(self, other):
        return (isinstance(other, OrientedSeparation)
                and self.graph == other.graph
                and self.A == other.A and self.B == other.B)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return "({%s},{%s})" % (",".join(map(str, sorted(self.A))),
                                ",".join(map(str, sorted(self.B))))


def canonical(s):
    """Canonical orientation of the underlying unoriented separation."""
    return min(s, s.inv, key=lambda x: x.sort_key)


def _check_ground(a, b):
    if getattr(a, "graph", None) != getattr(b, "graph", None):
        raise MismatchedGround("separations of different graphs")


def separation(G, A, B):
    """Validate and build the oriented separation (A,B) of G."""
    A, B = frozenset(A), frozenset(B)
    if not A | B <= G.vertices:
        raise NotACover("vertices %s are not in the graph" % sorted((A | B) - G.vertices))
    if A | B != G.vertices:
        raise NotACover("A u B misses vertices %s" % sorted(G.vertices - (A | B)))
    onlyA, onlyB = A - B, B - A
    for e in G.edges:
        u, v = tuple(e)
        if (u in onlyA and v in onlyB) or (v in onlyA and u in onlyB):
            raise CrossingEdge("edge %s crosses the separation" % sorted(e))
    return OrientedSeparation(G, A, B)


def compare(a, b):
    """Exact relation between two oriented separations.

    'nested-other' means the underlying separations are nested but neither
    a <= b nor a >= b holds for these orientations.
    """
    _check_ground(a, b)
    if a == b:
        return "equal"
    if a.leq(b):
        return "leq"
    if b.leq(a):
        return "geq"
    if a.leq(b.inv) or b.inv.leq(a):
        return "nested-other"
    return "crossing"


def nested(a, b):
    return compare(a, b) != "crossing"


class SeparationSystem:
    """A finite involution-closed set of oriented separations (or elements)."""

    __slots__ = ("ground", "oriented", "k", "_hash")

    def __init__(self, ground, oriented, k=None):
        oriented = frozenset(oriented)
        for s in oriented:
            if s.inv not in oriented:
                raise ValueError("system not closed under involution: %r" % (s,))
        self.ground = ground
        self.oriented = oriented
        self.k = k
        self._hash = hash((ground, oriented, k))

    def __contains__(self, s):
        return s in self.oriented

    def __iter__(self):
        return iter(sorted(self.oriented, key=lambda s: s.sort_key))

    def __len__(self):
        return len(self.oriented)

    def unoriented(self):
        """Canonical representatives, one per unoriented member, sorted."""
        reps = {canonical(s) for s in self.oriented}
        return sorted(reps, key=lambda s: s.sort_key)

    def __eq__(self, other):
        return (isinstance(other, SeparationSystem)
                and self.ground == other.ground and self.oriented == other.oriented)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "SeparationSystem(|S|=%d unoriented)" % len(self.unoriented())


def classify(s, S):
    """Flags for s in S: small/cosmall/degenerate/trivial-in-S/proper.

    trivial needs a witness r in S with s < r and s < r.inv; the witness is
    returned under 'witness' (None when not trivial).
    """
    if s not in S:
        raise NotInSystem("%r not in system" % (s,))
    witness = None
    for r in S:
        if r != s and r.inv != s and s.leq(r) and s.leq(r.inv):
            witness = r
            break
    return {
        "small": s.is_small,
        "cosmall": s.is_cosmall,
        "degenerate": s.is_degenerate,
        "trivial": witness is not None,
        "witness": witness,
        "proper": not s.is_small and not s.is_cosmall,
    }


def _separator_sweep(G, k):
    out = set()
    verts = sorted(G.vertices)
    for size in range(min(k, G.n + 1)):
        for X in combinations(verts, size):
            X = frozenset(X)
            comps = G.components(X)
            if len(comps) > 20:
                raise TooLarge("too many components for separator sweep")
            for r in range(len(comps) + 1):
                for side in combinations(comps, r):
                    A = X.union(*side) if side else X
                    B = X.union(*(c for c in comps if c not in side)) if len(side) < len(comps) else X
                    out.add(OrientedSeparation(G, A, B))
    return out


def enumerate_separations(G, k, max_vertices=MAX_VERTICES, max_system=MAX_SYSTEM):
    """S_k(G): all oriented separations of order < k, canonical and complete."""
    if G.n > max_vertices:
        raise TooLarge("|V|=%d exceeds cap %d" % (G.n, max_vertices))
    members = _separator_sweep(G, k)
    if len(members) > max_system:
        raise TooLarge("|S_k|=%d exceeds cap %d" % (len(members), max_system))
    return SeparationSystem(G, members, k=k)
