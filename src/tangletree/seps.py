"""Graph separations: construction, lattice ops, classification, enumeration.

An oriented separation (A,B) of G satisfies A u B = V and has no edge between
A\\B and B\\A.  Its order is |A n B|.  The same protocol (inv/leq/join/meet/
is_small/sort_key) is implemented by universe elements, so the tangle and
tree machinery is generic over both.
"""

from itertools import combinations

from .errors import CrossingEdge, MismatchedGround, NotACover, NotInSystem, TooLarge
from .graphs import mask_bits, mask_vertices, vertex_mask

MAX_VERTICES = 16
MAX_SYSTEM = 2 ** 20


class OrientedSeparation:
    """(A, B) held as int vertex masks a and b.

    The members of an enumerated S_k are registered on their graph
    (`Graph.separations`, keyed by (a, b)) and paired with their inverses,
    so `inv` is a slot read and a join or meet inside S_k returns the
    member.  Any other (A, B) is a fresh object that is not registered; its
    inverse is cached one way only.  `inv`, `sort_key`, the hash and the
    vertex sets `A` and `B` are filled in on first use.
    """

    __slots__ = ("graph", "a", "b", "order", "inv", "sort_key", "A", "B", "_hash")

    def __new__(cls, graph, A, B):
        return from_masks(graph, vertex_mask(frozenset(A)), vertex_mask(frozenset(B)))

    def __getattr__(self, name):
        # reached only while one of the slots below is unset
        if name == "inv":
            value = from_masks(self.graph, self.b, self.a)
        elif name == "sort_key":
            ta, tb = tuple(mask_bits(self.a)), tuple(mask_bits(self.b))
            value = (self.order, len(ta), ta, tb)
        elif name == "_hash":
            value = hash((self.graph, mask_vertices(self.a), mask_vertices(self.b)))
        elif name == "A":
            value = mask_vertices(self.a)
        elif name == "B":
            value = mask_vertices(self.b)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    # -- element protocol --

    def leq(self, other):
        if other.__class__ is not OrientedSeparation or other.graph is not self.graph:
            _check_ground(self, other)
        return not (self.a & ~other.a or other.b & ~self.b)

    def join(self, other):
        if other.__class__ is not OrientedSeparation or other.graph is not self.graph:
            _check_ground(self, other)
        return from_masks(self.graph, self.a | other.a, self.b & other.b)

    def meet(self, other):
        if other.__class__ is not OrientedSeparation or other.graph is not self.graph:
            _check_ground(self, other)
        return from_masks(self.graph, self.a & other.a, self.b | other.b)

    @property
    def is_small(self):
        return not self.a & ~self.b

    @property
    def is_cosmall(self):
        return not self.b & ~self.a

    @property
    def is_degenerate(self):
        return self.a == self.b

    # -- value semantics --

    def __eq__(self, other):
        return self is other or (other.__class__ is OrientedSeparation
                                 and self.a == other.a and self.b == other.b
                                 and self.graph == other.graph)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return "({%s},{%s})" % (",".join(map(str, self.sort_key[2])),
                                ",".join(map(str, self.sort_key[3])))


def from_masks(graph, a, b):
    """The registered member (a, b) of graph, else a fresh separation."""
    s = graph.separations.get((a, b))
    if s is None:
        s = object.__new__(OrientedSeparation)
        s.graph, s.a, s.b = graph, a, b
        s.order = (a & b).bit_count()
    return s


def canonical(s):
    """Canonical orientation of the underlying unoriented separation."""
    t = s.inv
    return s if s.sort_key <= t.sort_key else t


def _check_ground(a, b):
    ga, gb = getattr(a, "graph", None), getattr(b, "graph", None)
    if ga is not gb and ga != gb:
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

    __slots__ = ("ground", "oriented", "k", "_bound", "_hash")

    def __init__(self, ground, oriented, k=None):
        oriented = frozenset(oriented)
        for s in oriented:
            if s.inv not in oriented:
                raise ValueError("system not closed under involution: %r" % (s,))
        self.ground = ground
        self.oriented = oriented
        self.k = k
        # with every member of order below k, a join or meet of order k or
        # more is outside the system before it is hashed
        self._bound = k if k is not None and all(s.order < k for s in oriented) else None
        self._hash = hash((ground, oriented, k))

    def __contains__(self, s):
        if self._bound is not None and s.order >= self._bound:
            return False
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
    """S_k(G) as registered members, inverses paired."""
    table = G.separations
    out = set()
    for size in range(min(k, G.n + 1)):
        for X in combinations(range(G.n), size):
            x = vertex_mask(X)
            comps = G.component_masks(x)
            if len(comps) > 20:
                raise TooLarge("too many components for separator sweep")
            for r in range(len(comps) + 1):
                for side in combinations(comps, r):
                    a = x
                    for c in side:
                        a |= c
                    b = G.full ^ a ^ x
                    s = table.get((a, b))
                    if s is None:
                        s = table[(a, b)] = from_masks(G, a, b)
                    out.add(s)
    for s in out:
        s.inv = table[(s.b, s.a)]
    return out


def enumerate_separations(G, k, max_vertices=MAX_VERTICES, max_system=MAX_SYSTEM):
    """S_k(G): all oriented separations of order < k, canonical and complete."""
    if G.n > max_vertices:
        raise TooLarge("|V|=%d exceeds cap %d" % (G.n, max_vertices))
    members = _separator_sweep(G, k)
    if len(members) > max_system:
        raise TooLarge("|S_k|=%d exceeds cap %d" % (len(members), max_system))
    return SeparationSystem(G, members, k=k)
