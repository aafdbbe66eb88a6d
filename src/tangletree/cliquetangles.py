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
from .seps import OrientedSeparation, canonical
from .tangles import _backtrack_orientations, same_separation

# search nodes one cover_triple call may visit before it raises TooLarge
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
        side_a = [C for C in self.cliques if C <= s.A]
        side_b = [C for C in self.cliques if not C <= s.A]
        if not side_a or not side_b:
            raise VerificationFailed("separation %r has no proper base pattern" % (s,))
        bA = frozenset().union(*side_a)
        bB = frozenset().union(*side_b)
        for C in side_b:
            if not C <= s.B:
                raise VerificationFailed(
                    "clique %r split by %r; cover hypothesis violated" % (sorted(C), s))
        return OrientedSeparation(self.G, bA, bB)

    def base_separations(self):
        """Canonical unoriented base patterns of order < k, both sides proper."""
        if self._bases is not None:
            return self._bases
        m = len(self.cliques)
        if m > 20:
            raise TooLarge("2^%d base patterns" % m)
        out = set()
        for bits in range(1, 2 ** m - 1):
            A = frozenset().union(*(C for i, C in enumerate(self.cliques) if bits >> i & 1))
            B = frozenset().union(*(C for i, C in enumerate(self.cliques) if not bits >> i & 1))
            if A <= B or B <= A:
                continue
            if len(A & B) >= self.k:
                continue
            out.add(canonical(OrientedSeparation(self.G, A, B)))
        self._bases = sorted(out, key=lambda s: s.sort_key)
        for s in self._bases:
            # the small-side analysis below needs both sides larger than k-1
            if len(s.A) <= self.k - 1 or len(s.B) <= self.k - 1:
                raise VerificationFailed("base pattern with a side of at most k-1 vertices")
        return self._bases

    def _padded_inconsistent(self, x, y):
        """Whether padded copies of x and y form a consistency violation."""
        if same_separation(x, y):
            # (bB+Y, bA+X) <= (bA+X', bB+Y') needs the strict B-side in a pad
            return len(x.B - x.A) <= self.slack(x)
        # x.inv <= y after pads: x.B inside y.A + pad, y.B inside x.A + pad;
        # the mirrored violation y.inv <= x asks for the same pads
        return (len(x.B - y.A) <= self.slack(y)
                and len(y.B - x.A) <= self.slack(x))

    def tangles(self):
        """All T_k-tangles, as orientations of the base patterns."""
        bases = self.base_separations()
        if 3 * (self.k - 1) >= self.G.n:
            raise TooLarge("three small sides could cover all %d vertices" % self.G.n)

        def prune(chosen, y):
            return any(self._padded_inconsistent(y, c) for c in chosen)

        return [BaseTangle(self, chosen)
                for chosen in _backtrack_orientations(bases, prune)
                if not self.cover_triple(chosen)]

    def cover_triple(self, members):
        """A covering set of at most three members drawn from the padded
        copies of `members` and small separations, or None."""
        props = sorted(members, key=lambda s: s.sort_key)
        for take in range(1, 4):
            for combo in combinations(props, take):
                hit = self._cover_search(list(combo), 3 - take)
                if hit is not None:
                    return hit
        return None

    def _clique_prune(self, sides, slacks, wilds):
        """Necessary condition: every clique's edges admit a pair cover.

        A set of vertex sets covering all edges of a clique C either has a
        member containing C or places every vertex of C in two members, so
        the capacities must reach 2|C| and cannot all fall short of |C|.
        """
        cap_w = self.k - 1
        for C in self.cliques:
            caps = [len(C & A) + sl for A, sl in zip(sides, slacks)]
            caps += [min(cap_w, len(C))] * wilds
            if max(caps, default=0) >= len(C):
                continue
            if sum(caps) < 2 * len(C):
                return False
        return True

    def _cover_search(self, chosen, wilds):
        """Exact search for pads and small sides completing a cover."""
        G, k = self.G, self.k
        sides = [set(s.A) for s in chosen]
        slacks = [self.slack(s) for s in chosen]
        if not self._clique_prune([frozenset(a) for a in sides], slacks, wilds):
            return None
        missing = set(G.vertices) - set().union(*sides)
        if len(missing) > sum(slacks) + wilds * (k - 1):
            return None
        todo_edges = [tuple(sorted(e)) for e in G.edges
                      if not any(e <= A for A in sides)]
        todo_edges.sort()
        pads = [set() for _ in sides]
        wild = [set() for _ in range(wilds)]
        state = {"nodes": 0}

        def capacity_left():
            room = sum(sl - len(p) for sl, p in zip(slacks, pads))
            room += sum(k - 1 - len(w) for w in wild)
            placed = set().union(*pads, *wild)
            return room - len(missing - placed)

        def options(item):
            need = set(item)
            outs = []
            for i, A in enumerate(sides):
                want = need - A - pads[i]
                if len(pads[i]) + len(want) <= slacks[i]:
                    outs.append(("p", i, want))
            fresh = True
            for j, w in enumerate(wild):
                if not w and not fresh:
                    continue
                if not w:
                    fresh = False
                want = need - w
                if len(w) + len(want) <= k - 1:
                    outs.append(("w", j, want))
            return outs

        def satisfied(item):
            need = set(item)
            if any(need <= A | p for A, p in zip(sides, pads)):
                return True
            return any(need <= w for w in wild)

        def rec(edges):
            state["nodes"] += 1
            if state["nodes"] > COVER_SEARCH_BUDGET:
                raise TooLarge("cover search exceeded %d nodes" % COVER_SEARCH_BUDGET)
            edges = [e for e in edges if not satisfied(e)]
            left = [v for v in missing if not satisfied((v,))]
            if not edges and not left:
                return True
            if capacity_left() < 0:
                return False
            ranked = sorted(edges + [(v,) for v in left], key=lambda it: len(options(it)))
            item = ranked[0]
            for kind, idx, want in options(item):
                store = pads[idx] if kind == "p" else wild[idx]
                store |= want
                if rec(edges):
                    return True
                store -= want
            return False

        if rec(todo_edges):
            witness = []
            for s, p in zip(chosen, pads):
                witness.append(OrientedSeparation(G, s.A | p, s.B))
            for w in wild:
                witness.append(OrientedSeparation(G, frozenset(w), G.vertices))
            return witness
        return None

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
                    need = set()
                    for x in M:
                        if x is not y:
                            need |= x.A - y.B
                    if len(need) > self.slack(y):
                        ok = False
                        break
                    grow[y] = need
                if not ok:
                    continue
                inner = set(self.G.vertices)
                for y in M:
                    inner &= y.B | grow[y]
                owners = sum(1 for t in tangles if all(m in t.base for m in M))
                out.append((frozenset(M), len(inner), owners))
        return out
