"""Tangles and stars of graphs glued from large cliques.

For a graph covered by cliques none of which fits inside a separator of
fewer than k vertices, a strict-side vertex of a proper separation of
order < k drags every clique containing it onto that side.  The strict
sides are therefore unions of cover cliques, and every proper separation
is a clique-side base pattern with some separator vertices padded onto
either side.  Padding cannot be oriented freely: the two A-sides of
(A,B) and (B, A+X) together cover the whole graph, so no tangle holds a
padded copy against its base.  A tangle is thus determined by how it
orients the base patterns, and certification reduces to two finite
checks over the bases:

- consistency, via a pad-reachability test per ordered base pair;
- avoidance of covering triples, via an exact search that pads the
  chosen A-sides and fills up to two small sides within the order budget.

This keeps graphs tractable whose separation systems are far beyond
exhaustive enumeration.
"""

from itertools import combinations

from .errors import NotACover, TooLarge, VerificationFailed
from .graphs import mask_bits, vertex_mask
from .seps import SeparationSystem, canonical, from_masks
from .tangles import _backtrack_orientations, same_separation

# search nodes one cover search (one combination of base members) may visit
# before it raises TooLarge; a combination whose result is shared within one
# `tangles()` call is not searched again and uses no new budget
COVER_SEARCH_BUDGET = 500000


class BaseTangle:
    """A tangle given by its orientation of the base patterns."""

    __slots__ = ("cover", "base", "_hash")

    def __init__(self, cover, base):
        self.cover = cover
        self.base = frozenset(base)
        self._hash = hash(self.base)

    def members(self):
        return sorted(self.base, key=lambda s: s.sort_key)

    def __contains__(self, s):
        """Membership for any oriented separation of order < k."""
        if s.order >= self.cover.k:
            raise VerificationFailed("order %d not below k=%d" % (s.order, self.cover.k))
        if s.is_degenerate:
            raise VerificationFailed("degenerate separation has no orientation in a tangle")
        if s.is_small:
            return True
        if s.is_cosmall:
            return False
        b = self.cover.base_of(s)
        if b in self.base:
            return True
        if b.inv not in self.base:
            raise VerificationFailed("base pattern missing from the tangle")
        return False

    def __eq__(self, other):
        return isinstance(other, BaseTangle) and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "BaseTangle(%d base members)" % len(self.base)


class CliqueCover:
    """A graph together with a clique cover suitable for base-pattern work."""

    def __init__(self, G, cliques, k):
        self.G = G
        self.k = k
        self.cliques = sorted((frozenset(C) for C in cliques), key=sorted)
        covered = frozenset().union(*self.cliques) if self.cliques else frozenset()
        if covered != G.vertices:
            raise NotACover("cliques miss vertices %r" % (sorted(G.vertices - covered),))
        for C in self.cliques:
            for a, b in combinations(sorted(C), 2):
                if frozenset((a, b)) not in G.edges:
                    raise NotACover("listed clique %r is not complete" % (sorted(C),))
        for e in G.edges:
            if not any(e <= C for C in self.cliques):
                raise NotACover("edge %r lies in no cover clique" % (sorted(e),))
        self._check_no_clique_in_separator()
        self._clique_masks = [vertex_mask(C) for C in self.cliques]
        self._bases = None

    def _check_no_clique_in_separator(self):
        """No cover clique fits inside a separator of order < k."""
        V = self.G.vertices
        for C in self.cliques:
            room = self.k - 1 - len(C)
            if room < 0:
                continue
            rest = sorted(V - C)
            for extra in range(room + 1):
                for pick in combinations(rest, extra):
                    X = C | frozenset(pick)
                    if len(self.G.components(X)) > 1:
                        raise VerificationFailed(
                            "clique %r sits inside separator %r" % (sorted(C), sorted(X)))

    def slack(self, s):
        """Pad budget of a base member."""
        return self.k - 1 - s.order

    def base_of(self, s):
        """The base pattern a proper separation of order < k pads."""
        bA = bB = 0
        split = None
        for C, c in zip(self.cliques, self._clique_masks):
            if not c & ~s.a:
                bA |= c
            else:
                bB |= c
                if split is None and c & ~s.b:
                    split = C
        if not bA or not bB:
            raise VerificationFailed("separation %r has no proper base pattern" % (s,))
        if split is not None:
            raise VerificationFailed(
                "clique %r split by %r; cover hypothesis violated" % (sorted(split), s))
        return from_masks(self.G, bA, bB)

    def base_separations(self):
        """Canonical unoriented base patterns of order < k, both sides proper."""
        if self._bases is not None:
            return self._bases
        m = len(self.cliques)
        if m > 20:
            raise TooLarge("2^%d base patterns" % m)
        full = 2 ** m - 1
        union = [0] * (full + 1)       # union of the cliques indexed by bits
        for bits in range(1, full + 1):
            low = bits & -bits
            union[bits] = union[bits ^ low] | self._clique_masks[low.bit_length() - 1]
        out = set()
        for bits in range(1, (full >> 1) + 1):      # one of bits, full ^ bits
            A, B = union[bits], union[full ^ bits]
            if not A & ~B or not B & ~A or (A & B).bit_count() >= self.k:
                continue
            out.add(canonical(from_masks(self.G, A, B)))
        self._bases = sorted(out, key=lambda s: s.sort_key)
        for s in self._bases:
            # the small-side analysis below needs both sides larger than k-1
            if s.a.bit_count() <= self.k - 1 or s.b.bit_count() <= self.k - 1:
                raise VerificationFailed("base pattern with a side of at most k-1 vertices")
        return self._bases

    def _padded_inconsistent(self, x, y):
        """Whether padded copies of x and y form a consistency violation."""
        if same_separation(x, y):
            # (bB+Y, bA+X) <= (bA+X', bB+Y') needs the strict B-side in a pad
            return (x.b & ~x.a).bit_count() <= self.slack(x)
        # x.inv <= y after pads: x.B inside y.A + pad, y.B inside x.A + pad;
        # the mirrored violation y.inv <= x asks for the same pads
        return ((x.b & ~y.a).bit_count() <= self.slack(y)
                and (y.b & ~x.a).bit_count() <= self.slack(x))

    def base_system(self):
        """The base patterns and their inverses as a separation system."""
        bases = self.base_separations()
        return SeparationSystem(self.G, bases + [s.inv for s in bases])

    def tangles(self):
        """All T_k-tangles, as orientations of the base patterns.

        The consistent orientations share most of their members, so the
        cover searches of one call share their results: a search's result
        depends only on its combination of members (the wild sides number
        3 - |combination|), and each combination is searched once.
        """
        S = self.base_system()
        if 3 * (self.k - 1) >= self.G.n:
            raise TooLarge("three small sides could cover all %d vertices" % self.G.n)
        members = S.table().members

        def prune(bits, y):
            return any(self._padded_inconsistent(members[y], members[c])
                       for c in mask_bits(bits))

        searched = {}
        found = ([members[i] for i in mask_bits(bits)]
                 for bits in _backtrack_orientations(S, prune))
        return [BaseTangle(self, base) for base in found
                if not self._cover_triple(base, searched)]

    def cover_triple(self, members):
        """A covering set of at most three members drawn from the padded
        copies of `members` and small separations, or None."""
        return self._cover_triple(members, {})

    def _cover_triple(self, members, searched):
        """`cover_triple`, reading and filling `searched`, the result of
        each combination already searched."""
        props = sorted(members, key=lambda s: s.sort_key)
        for take in range(1, 4):
            for combo in combinations(props, take):
                if combo not in searched:
                    searched[combo] = self._cover_search(list(combo), 3 - take)
                if searched[combo] is not None:
                    return searched[combo]
        return None

    def _cover_search(self, chosen, wilds):
        """Exact search for pads and small sides completing a cover.

        Sides, pads, small sides and open items (edges, missing vertices)
        are int vertex masks.  Every node runs the clique-capacity prune:
        members covering the edges of a clique C either include one that
        contains C or hold every vertex of C twice.  Each level places a
        vertex into one of at most three members of capacity at most k-1,
        so the recursion is at most 3(k-1)+1 deep.
        """
        G, k = self.G, self.k
        sides = [s.a for s in chosen]
        slacks = [self.slack(s) for s in chosen]
        missing = G.full
        for a in sides:
            missing &= ~a
        if missing.bit_count() > sum(slacks) + wilds * (k - 1):
            return None
        items = [m for m in G.edge_masks if all(m & ~a for a in sides)]
        items += [1 << v for v in mask_bits(missing)]
        cliques = [(c, c.bit_count()) for c in self._clique_masks]
        pads = [0] * len(sides)
        wild = [0] * wilds
        nodes = 0

        def options(need):
            outs = []
            for i, (a, p, sl) in enumerate(zip(sides, pads, slacks)):
                want = need & ~a & ~p
                if p.bit_count() + want.bit_count() <= sl:
                    outs.append((pads, i, want))
            for j, w in enumerate(wild):
                if not w and 0 in wild[:j]:      # empty small sides are alike
                    continue
                want = need & ~w
                if w.bit_count() + want.bit_count() <= k - 1:
                    outs.append((wild, j, want))
            return outs

        def rec(items):
            nonlocal nodes
            nodes += 1
            if nodes > COVER_SEARCH_BUDGET:
                raise TooLarge("cover search exceeded %d nodes" % COVER_SEARCH_BUDGET)
            held = [a | p for a, p in zip(sides, pads)]
            members = held + wild
            items = [m for m in items if all(m & ~h for h in members)]
            if not items:
                return True
            room = sum(sl - p.bit_count() for sl, p in zip(slacks, pads))
            room += sum(k - 1 - w.bit_count() for w in wild)
            placed = 0
            for p in pads + wild:
                placed |= p
            if room < (missing & ~placed).bit_count():
                return False
            for c, size in cliques:
                caps = [(c & h).bit_count() + sl - p.bit_count()
                        for h, sl, p in zip(held, slacks, pads)]
                caps += [min((c & w).bit_count() + k - 1 - w.bit_count(), size)
                         for w in wild]
                if max(caps) < size and sum(caps) < 2 * size:
                    return False
            # the first item with the fewest options
            best = None
            for m in items:
                outs = options(m)
                if best is None or len(outs) < len(best):
                    best = outs
                    if not outs:
                        return False
            for store, idx, want in best:
                store[idx] |= want
                if rec(items):
                    return True
                store[idx] &= ~want
            return False

        if not rec(items):
            return None
        return ([from_masks(G, s.a | p, s.b) for s, p in zip(chosen, pads)]
                + [from_masks(G, w, G.full) for w in wild])

    def star_census(self, tau, tangles):
        """All stars of padded copies of tau's base members, with minimal pads.

        Yields (bases, interior size, owner count).  A subset of base members
        forms a star after padding when each member's B-side can absorb the
        other members' A-sides within its pad budget; the minimal pads also
        minimise the interior, so the census is exact for interior bounds.
        """
        props = tau.members()
        out = []
        for r in range(1, len(props) + 1):
            for M in combinations(props, r):
                grow = {}
                ok = True
                for y in M:
                    need = 0
                    for x in M:
                        if x is not y:
                            need |= x.a & ~y.b
                    if need.bit_count() > self.slack(y):
                        ok = False
                        break
                    grow[y] = need
                if not ok:
                    continue
                inner = self.G.full
                for y in M:
                    inner &= y.b | grow[y]
                owners = sum(1 for t in tangles if all(m in t.base for m in M))
                out.append((frozenset(M), inner.bit_count(), owners))
        return out
