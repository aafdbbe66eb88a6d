"""Graph separations: construction, lattice ops, classification, enumeration,
and the index table of a separation system.

An oriented separation (A,B) of G satisfies A u B = V and has no edge between
A\\B and B\\A.  Its order is |A n B|.  The same protocol (inv/leq/join/meet/
is_small/sort_key) is implemented by universe elements.

A `SeparationSystem` numbers its members in `sort_key` order, once, in an
`IndexTable`: the inverse as an int list and each member's up-set and
down-set as int bitsets.  The tangle search, its certificates, the profile
family and `classify` read these bitsets, and the table's `join` and `meet`
kernels answer lattice questions with member numbers, so they are generic
over both element backends; only building the up- and down-sets and the two
kernels is backend-specific.
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
    vertex sets `A` and `B` are filled in on first use.  The hash reads the
    masks alone: equal separations have equal masks, and `__eq__` compares
    the graphs.
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
            value = hash((self.a, self.b))
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

    @staticmethod
    def _order_sets(members):
        """up and down of the separations `members` of one graph, as bitsets
        over their positions.

        up[i] is the AND, over v in A_i, of the members whose A contains v
        and, over v outside B_i, of those whose B lacks v; down[i] is the
        mirror image.
        """
        G = members[0].graph
        full = (1 << len(members)) - 1
        col_a, col_b = [0] * G.n, [0] * G.n
        for j, s in enumerate(members):
            for v in mask_bits(s.a):
                col_a[v] |= 1 << j
            for v in mask_bits(s.b):
                col_b[v] |= 1 << j
        up, down = [], []
        for s in members:
            u = d = full
            for v in mask_bits(s.a):
                u &= col_a[v]
            for v in mask_bits(G.full ^ s.a):
                d &= ~col_a[v]
            for v in mask_bits(s.b):
                d &= col_b[v]
            for v in mask_bits(G.full ^ s.b):
                u &= ~col_b[v]
            up.append(u)
            down.append(d)
        return up, down

    @staticmethod
    def _lattice_kernels(members):
        """join(i, j) and meet(i, j) over the separations `members` of one
        graph: the position of the join or meet of members i and j, or None
        when it is not among them.

        Both work on the masks and allocate no separation; the lookup dict
        is keyed by a << n | b.
        """
        n = members[0].graph.n
        A = [s.a for s in members]
        B = [s.b for s in members]
        number = {s.a << n | s.b: k for k, s in enumerate(members)}.get

        def join(i, j):
            return number((A[i] | A[j]) << n | B[i] & B[j])

        def meet(i, j):
            return number((A[i] & A[j]) << n | B[i] | B[j])

        return join, meet


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


class IndexTable:
    """The members of a system numbered in `sort_key` order, with the order
    relation as int bitsets over those numbers.

    members[i] is member i and index its inverse map; inv[i] is the number
    of members[i].inv.  Bit j of up[i] is set when member i <= member j, of
    down[i] when member j <= member i, of upinv[i] when i <= inv j.  reps
    lists the canonical representatives, one per unoriented member.  small
    holds the i with i <= i*, proper the i for which neither i nor i* is
    small.

    The table assumes that the involution reverses the order (x <= y iff
    y* <= x*), so upinv[i] is down[i*], and the members that no consistent
    orientation holds together with y (x* <= y or y* <= x) are up[y*]
    without y and y*.  Graph separations always satisfy this; a universe
    does once `require_lattice` passes.

    join(i, j) and meet(i, j) are the numbers of members[i].join(members[j])
    and members[i].meet(members[j]), as `index.get` gives them, or None
    when those are not members; they allocate no element.
    """

    __slots__ = ("members", "index", "inv", "up", "down", "upinv",
                 "reps", "small", "proper", "join", "meet")

    def __init__(self, oriented):
        self.members = members = sorted(oriented, key=lambda s: s.sort_key)
        self.index = index = {s: i for i, s in enumerate(members)}
        self.inv = inv = [index[s.inv] for s in members]
        if members:
            up, down = members[0]._order_sets(members)
            self.join, self.meet = members[0]._lattice_kernels(members)
        else:
            up = down = []
            self.join = self.meet = None
        self.up, self.down = up, down
        self.upinv = [down[t] for t in inv]
        self.reps = [i for i, t in enumerate(inv) if i <= t]
        self.small = small = sum(1 << i for i, t in enumerate(inv) if up[i] >> t & 1)
        self.proper = sum(1 << i for i, t in enumerate(inv)
                          if not (small >> i | small >> t) & 1)

    def bits(self, seps):
        """The bitset of the members seps; KeyError for a non-member."""
        index = self.index
        out = 0
        for s in seps:
            out |= 1 << index[s]
        return out

    def is_star(self, ids):
        """Whether the members with the bitset ids form a star: none is
        degenerate and x <= y* for any two of them."""
        for x in mask_bits(ids):
            if self.inv[x] == x or ids & ~self.upinv[x] & ~(1 << x):
                return False
        return True

    def stars(self, ids):
        """The stars over the proper members ids, as bitsets, depth first:
        each star, then its extensions by members after its last, added in
        table order.  A member may join when it lies in the `upinv` of every
        member already in the star."""
        upinv = self.upinv

        def rec(star, cands):
            yield star
            for j in mask_bits(cands):
                yield from rec(star | 1 << j, cands & upinv[j] >> j + 1 << j + 1)

        return rec(0, ids)

    def star_leq(self, sigma, tau):
        """The star order on bitsets: every member of sigma lies below some
        member of tau."""
        up = self.up
        return all(up[s] & tau for s in mask_bits(sigma))

    def trivial_witness(self, i):
        """The first r other than i and i* with i <= r and i <= r*, or None."""
        w = self.up[i] & self.upinv[i] & ~(1 << i | 1 << self.inv[i])
        return (w & -w).bit_length() - 1 if w else None


class SeparationSystem:
    """A finite involution-closed set of oriented separations (or elements).

    Its `IndexTable` is built on first use and kept on the system.
    """

    __slots__ = ("ground", "oriented", "k", "_hash", "_table")

    def __init__(self, ground, oriented, k=None):
        oriented = frozenset(oriented)
        for s in oriented:
            if s.inv not in oriented:
                raise ValueError("system not closed under involution: %r" % (s,))
        self.ground = ground
        self.oriented = oriented
        self.k = k
        self._hash = hash((ground, oriented, k))
        self._table = None

    def table(self):
        """The system's `IndexTable`, built on the first call."""
        if self._table is None:
            self._table = IndexTable(self.oriented)
        return self._table

    def __contains__(self, s):
        return s in self.oriented

    def __iter__(self):
        return iter(self.table().members)

    def __len__(self):
        return len(self.oriented)

    def unoriented(self):
        """Canonical representatives, one per unoriented member, sorted."""
        T = self.table()
        return [T.members[i] for i in T.reps]

    def __eq__(self, other):
        return (isinstance(other, SeparationSystem)
                and self.ground == other.ground and self.oriented == other.oriented)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "SeparationSystem(|S|=%d unoriented)" % len(self.table().reps)


def classify(s, S):
    """Flags for s in S: small/cosmall/degenerate/trivial-in-S/proper.

    trivial needs a witness r in S with s < r and s < r.inv; the first in
    S's order is returned under 'witness' (None when not trivial).
    """
    if s not in S:
        raise NotInSystem("%r not in system" % (s,))
    T = S.table()
    w = T.trivial_witness(T.index[s])
    return {
        "small": s.is_small,
        "cosmall": s.is_cosmall,
        "degenerate": s.is_degenerate,
        "trivial": w is not None,
        "witness": None if w is None else T.members[w],
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
