"""k-blocks, separability, tangle correspondence and the decomposition audit."""

from itertools import combinations

from .distinguish import DistinguisherTable
from .graphs import mask_bits, vertex_mask
from .seps import canonical, from_masks
from .tangles import (SideMasks, check_star, covering_subset, distinguishes,
                      interior)


class Block:
    """A maximal set of at least k pairwise k-inseparable vertices."""

    __slots__ = ("vertices", "k", "separable", "star")

    def __init__(self, vertices, k, separable, star):
        self.vertices = frozenset(vertices)
        self.k = k
        self.separable = separable
        self.star = star

    def __eq__(self, other):
        return (isinstance(other, Block)
                and self.vertices == other.vertices and self.k == other.k)

    def __hash__(self):
        return hash((self.vertices, self.k))

    def __repr__(self):
        return "Block(%r, k=%d)" % (sorted(self.vertices), self.k)


def separated(G, k):
    """sep[v]: the mask of the vertices that some set of fewer than k other
    vertices separates from v.

    One sweep over every vertex set X of fewer than min(k, n - 1, D + 1)
    vertices, D the maximum degree: for each component C of G - X, every v
    in C is separated from V - X - C.  Larger sets need no visit.  A
    separator avoids both ends of its pair, so it has at most n - 2
    vertices, and a pair a, b that some set separates is also separated by
    N(a), of at most D vertices.  The sweep makes sum over s of C(n, s)
    component searches, of O(n) bitset steps each.
    """
    sep = [0] * G.n
    top = min(k, G.n - 1, max((a.bit_count() for a in G.adj), default=0) + 1)
    for size in range(max(top, 0)):
        for X in combinations(range(G.n), size):
            x = vertex_mask(X)
            comps = G.component_masks(x)
            if len(comps) < 2:
                continue
            rest = G.full & ~x
            for c in comps:
                apart = rest & ~c
                for v in mask_bits(c):
                    sep[v] |= apart
    return sep


def _maximal_cliques(verts, compatible):
    """Bron-Kerbosch over an abstract symmetric relation."""
    out = []

    def neigh(u, S):
        return {v for v in S if v != u and compatible(u, v)}

    def rec(R, P, X):
        if not P and not X:
            out.append(frozenset(R))
            return
        pivot = max(P | X, key=lambda u: len(neigh(u, P)))
        for v in sorted(P - neigh(pivot, P)):
            rec(R | {v}, neigh(v, P), neigh(v, X))
            P = P - {v}
            X = X | {v}

    rec(set(), set(verts), set())
    return sorted(out, key=sorted)


def k_blocks(G, k):
    """All k-blocks: maximal pairwise k-inseparable sets of >= k vertices.

    Two vertices are k-inseparable when no set of fewer than k other
    vertices separates them; `separated` finds every such pair in one
    sweep over the candidate separators.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sep = separated(G, k)

    def compatible(a, b):
        return not sep[a] >> b & 1

    out = []
    for U in _maximal_cliques(G.vertices, compatible):
        if len(U) < k:
            continue
        star = separable_star(U, G, k)
        out.append(Block(U, k, star is not None, star))
    return out


def separable_star(b, G, k):
    """The component star around b when it certifies separability, else None.

    One member (V(C) u N(C), V - C) per component C of G - b; returned only
    if every member has order < k and the interior recovers b exactly.
    """
    b = frozenset(b)
    members = set()
    for c in G.component_masks(vertex_mask(b)):
        a = c
        for v in mask_bits(c):
            a |= G.adj[v]
        members.add(from_masks(G, a, G.full ^ c))
    for s in members:
        if s.order >= k:
            return None
    star = check_star(members)
    if interior(star, G) != b:
        return None
    return star


def tangle_correspondence(U, tau, k):
    """How the vertex set U relates to the tangle: induces/witnesses/bound."""
    U = frozenset(U)
    u = vertex_mask(U)
    report = {"induces": True, "witnesses": True, "small_side_bound": True,
              "witnesses_detail": {}}
    for s in tau:
        if s.is_degenerate:
            continue
        inside = (s.a & u).bit_count()
        if inside >= (s.b & u).bit_count():
            report["induces"] = False
            report["witnesses_detail"].setdefault("induces", s)
        if inside >= k:
            report["small_side_bound"] = False
            report["witnesses_detail"].setdefault("small_side_bound", s)
    masks = SideMasks(tau.system.ground)
    hit = covering_subset((s for s in tau if not s.is_degenerate), masks, masks[u])
    if hit is not None:
        report["witnesses"] = False
        report["witnesses_detail"]["witnesses"] = hit
    return report


def verify_theorem_4_8(G, k, TD, tangles):
    """Audit the three claims of the decomposition theorem.

    (i) the decomposition efficiently distinguishes all the given regular
    k-profiles, (ii) every part larger than 3k-3 is home to a k-tangle that
    the part induces and witnesses within the small-side bound, and (iii)
    every separable k-block appears as a part.  Parts of size exactly 3k-3
    carry no claim and are not flagged.
    """
    table = DistinguisherTable.of(tangles)
    ts = table.tangles
    report = {"efficient": True, "big_parts": True, "blocks_are_parts": True,
              "witnesses": {}, "parts": []}
    induced = TD.induced_separations()
    seps = {canonical(s) for s in induced.values()}
    for (i, j) in table.pairs():
        m = table[(i, j)]["min_order"]
        if not any(s.order == m and distinguishes(s, ts[i], ts[j]) for s in seps):
            report["efficient"] = False
            report["witnesses"].setdefault("inefficient_pair", (i, j))
    for t, bag in enumerate(TD.bags):
        entry = {"bag": sorted(bag), "size": len(bag), "claimed": len(bag) > 3 * k - 3,
                 "home": None}
        if len(bag) > 3 * k - 3:
            star = TD.node_star(t)
            homes = [i for i, P in enumerate(ts) if all(s in P for s in star)]
            entry["home"] = homes
            ok = False
            for i in homes:
                corr = tangle_correspondence(bag, ts[i], k)
                if corr["induces"] and corr["witnesses"] and corr["small_side_bound"]:
                    ok = True
                    break
            if not ok:
                report["big_parts"] = False
                report["witnesses"].setdefault("homeless_part", sorted(bag))
        report["parts"].append(entry)
    bags = set(TD.bags)
    for blk in k_blocks(G, k):
        if blk.separable and blk.vertices not in bags:
            report["blocks_are_parts"] = False
            report["witnesses"].setdefault("missing_block", sorted(blk.vertices))
    return report
