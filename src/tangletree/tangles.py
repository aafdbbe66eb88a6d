"""Orientations, consistency, profiles, F-tangles, stars, closely-related.

The search, the consistency and profile certificates and the profile family
read the system's `IndexTable` (see `seps`): members are numbered in
`sort_key` order, an orientation is its bitset over those numbers, and a
consistency test is one AND with a precomputed bitset instead of a loop of
`leq` calls over pairs of members.
"""

from itertools import combinations

from .errors import Indistinct, NotAStar, NotInProfile, VerificationFailed
from .graphs import mask_bits, mask_vertices


def same_separation(x, y):
    return x == y or x == y.inv


def is_star(members):
    """Pairwise r <= s.inv, no degenerate members."""
    members = list(members)
    for s in members:
        if s.is_degenerate:
            return False
    for r, s in combinations(members, 2):
        if not r.leq(s.inv):
            return False
    return True


def check_star(members):
    if not is_star(members):
        raise NotAStar("%r is not a star" % (sorted(members),))
    return frozenset(members)


def interior(star, ground):
    """Intersection of the B-sides; the whole ground vertex set for the empty star."""
    out = ground.full
    for s in star:
        out &= s.b
    return mask_vertices(out)


def star_leq(sigma, tau):
    """sigma <= tau for proper stars: every s in sigma lies below some r in tau."""
    return all(any(s.leq(r) for r in tau) for s in sigma)


class Orientation:
    """One orientation per unoriented member of a system, held as its bitset
    `bits` over the system's `IndexTable`; iteration follows the table's
    order."""

    __slots__ = ("system", "bits")

    def __init__(self, system, bits):
        T = system.table()
        # covering the pair of every representative (a degenerate one is its
        # own pair) with len(reps) bits leaves no room for a second side
        # or for a bit outside the table
        if bits < 0 or bits.bit_count() != len(T.reps) or any(
                not (bits >> i & 1 or bits >> T.inv[i] & 1) for i in T.reps):
            raise ValueError("orientation does not choose one side of each member")
        self.system = system
        self.bits = bits

    def __contains__(self, s):
        i = self.system.table().index.get(s)
        return i is not None and self.bits >> i & 1 == 1

    def __iter__(self):
        members = self.system.table().members
        return iter([members[i] for i in mask_bits(self.bits)])

    def __len__(self):
        return self.bits.bit_count()

    def __eq__(self, other):
        return (isinstance(other, Orientation)
                and self.system == other.system and self.bits == other.bits)

    def __hash__(self):
        return hash((self.system, self.bits))

    def __repr__(self):
        return "Orientation(%d members)" % len(self)


def is_consistent(O):
    """(True, None) or (False, (r_inv, s)) with r < s and both in O.

    The witness is the first pair x, y of O in sort_key order with
    x* <= y, which the reversing involution makes the same as y* <= x: the
    first member x whose up[x*] meets O other than in x, all of whose hits
    come after it, and the first such y.
    """
    T = O.system.table()
    bits = O.bits
    for x in mask_bits(bits):
        hit = T.up[T.inv[x]] & bits & ~(1 << x)
        if hit:
            y = (hit & -hit).bit_length() - 1
            return False, (T.members[x], T.members[y])
    return True, None


# ---------------------------------------------------------------- families


class StarFamily:
    """Explicit family F as a set of subsets of oriented separations."""

    def __init__(self, elements, tag="user"):
        self.elements = frozenset(frozenset(e) for e in elements)
        self.tag = tag
        self._ordered = None

    def blocker(self, T):
        """The search prune over the table T: blocked(bits, y) is whether an
        element of F contains member y and lies inside bits | {y}.  An element
        with a member outside T can never do so and is dropped."""
        by_member = {}
        for el in self.elements:
            if all(s in T.index for s in el):
                e = T.bits(el)
                for y in mask_bits(e):
                    by_member.setdefault(y, []).append(e)

        def blocked(bits, y):
            with_y = bits | 1 << y
            return any(not e & ~with_y for e in by_member.get(y, ()))

        return blocked

    def __contains__(self, star):
        return frozenset(star) in self.elements

    def subset_in(self, O):
        """The first element inside O, elements ordered by their sorted keys."""
        if self._ordered is None:
            self._ordered = sorted(self.elements,
                                   key=lambda e: sorted(s.sort_key for s in e))
        for el in self._ordered:
            if all(s in O for s in el):
                return el
        return None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class SideMasks(dict):
    """Vertex and edge masks of the A-sides of G, memoised by the vertex mask.

    Bit i of an edge mask is set when the i-th edge of G.edge_tuples() lies
    inside A, so masks[vertex_mask(U)] is also the target (vertices, induced
    edges) of U.  `edges` is G's own `edge_masks`.
    """

    def __init__(self, G):
        super().__init__()
        self.edges = G.edge_masks

    def __missing__(self, v):
        self[v] = v, sum(1 << i for i, m in enumerate(self.edges) if v & m == m)
        return self[v]


def covering_subset(members, masks, target, fixed=(), accept=None):
    """The first set of at most three separations, all of `fixed` and the
    rest from `members`, whose A-sides cover the (vertex, edge) masks of
    `target` and which `accept` accepts when given; None if there is none.

    Members are tried by (-|A n target|, sort_key), sets by size and then
    lexicographically.
    """
    tv, te = target
    cv = ce = 0
    for s in fixed:
        v, e = masks[s.a]
        cv, ce = cv | v & tv, ce | e & te
    lst = []
    for s in members:
        v, e = masks[s.a]
        v &= tv
        lst.append((-v.bit_count(), s.sort_key, s, v, e & te))
    lst.sort(key=lambda x: x[:2])
    fixed = list(fixed)
    if len(fixed) <= 3 and cv == tv and ce == te and (accept is None or accept(fixed)):
        return frozenset(fixed)
    for left in range(1, 4 - len(fixed)):
        hit = _complete(lst, target, accept, 0, left, cv, ce, fixed)
        if hit is not None:
            return hit
    return None


def _complete(lst, target, accept, start, left, cv, ce, picked):
    """The first `left` more entries of lst[start:] completing the cover
    (cv, ce) of `picked`.  A loop stops once `left` members of at most the
    current size cannot cover the vertices still open."""
    tv, te = target
    need = (tv ^ cv).bit_count()
    for i in range(start, len(lst)):
        minus, _, s, v, e = lst[i]
        if left * -minus < need:
            return None
        if left > 1:
            hit = _complete(lst, target, accept, i + 1, left - 1, cv | v, ce | e, picked + [s])
            if hit is not None:
                return hit
        elif cv | v == tv and ce | e == te and (accept is None or accept(picked + [s])):
            return frozenset(picked + [s])
    return None


class CoverFamily:
    """T_k for a graph: subsets of size <= 3 whose small sides cover G.

    With stars_only=True this is the star subfamily T_k*.
    """

    def __init__(self, G, k, stars_only=False):
        self.G = G
        self.k = k
        self.stars_only = stars_only
        self.tag = "Tkstars" if stars_only else "Tk"
        self.masks = SideMasks(G)
        self._full = self.masks[G.full]
        self._accept = is_star if stars_only else None

    def _cover(self, members, fixed=()):
        return covering_subset(members, self.masks, self._full, fixed, self._accept)

    def __contains__(self, seps):
        """Whether the set of separations seps is an element of the family."""
        return self._cover((), seps) is not None

    def blocker(self, T):
        """The search prune over the table T: blocked(bits, y) is whether a
        set of at most three members, y and the rest from bits, is an element
        of the family.  The answer is a yes or no, with no witness.

        The items of G are its vertices, then its edges.  cov[i] holds the
        items inside the A-side of member i, col[t] the members whose A-side
        holds item t; an edge's column is the AND of its ends' columns.  y
        is blocked alone when cov[y] is every item, with one x of bits when
        x lies in the column of every item y leaves open (that AND is kept
        per y for the search), and with two when, for some x of bits that
        holds the open item with the fewest such x, a member of bits lies in
        the column of every item y and x leave open.  For T_k* every x is
        also non-degenerate with x <= y*, the third member also <= x*, and a
        degenerate y is never blocked.
        """
        n = self.G.n
        members = T.members
        cov = []
        col = [0] * n
        for i, s in enumerate(members):
            v, e = self.masks[s.a]
            cov.append(v | e << n)
            for u in mask_bits(s.a):
                col[u] |= 1 << i
        for m in self.masks.edges:
            u, w = mask_bits(m)
            col.append(col[u] & col[w])
        full = (1 << len(col)) - 1
        stars = self.stars_only
        inv, upinv = T.inv, T.upinv
        nondeg = (1 << len(members)) - 1
        for i, t in enumerate(inv):
            if i == t:
                nondeg ^= 1 << i
        pair = [None] * len(members)
        opens = [None] * len(members)

        def blocked(bits, y):
            if stars:
                if inv[y] == y:
                    return False
                bits &= upinv[y] & nondeg
            cy = cov[y]
            if cy == full:
                return True
            if not bits:
                return False
            items = opens[y]
            if items is None:
                items = opens[y] = mask_bits(full & ~cy)
                p = -1
                for t in items:
                    p &= col[t]
                pair[y] = p
            if bits & pair[y]:
                return True
            best, fewest = 0, len(members) + 1
            for t in items:
                c = bits & col[t]
                if not c:
                    return False
                if c.bit_count() < fewest:
                    best, fewest = c, c.bit_count()
            for x in mask_bits(best):
                c = bits & upinv[x] if stars else bits
                cx = cov[x]
                for t in items:
                    if not cx >> t & 1:
                        c &= col[t]
                        if not c:
                            break
                if c:
                    return True
            return False

        return blocked

    def subset_in(self, O):
        """The first element of the family inside O, or None.

        For T_k only the members of O whose A-side is maximal under
        inclusion are searched, the first of equal A-sides in
        (-|A|, sort_key) order: A_x <= A_y means that y covers every vertex
        and edge that x covers, so O holds a cover of at most three A-sides
        if and only if its maximal members do.  T_k* searches all of O,
        since a star need not stay one when a member is replaced.
        """
        if self.stars_only:
            return self._cover(O)
        top = []
        for s in sorted(O, key=lambda s: (-s.a.bit_count(), s.sort_key)):
            if all(s.a & ~t.a for t in top):
                top.append(s)
        return self._cover(top)


def p_s_family(S):
    """The stars among P_S: all {r, s, (r v s)*} with r v s in S.

    A star {r, s, ...} with r != s needs r <= s*, so for each r only s = r
    and the s in inv(up[r]) from r on are tried, in sort_key order; the
    join is read from the table's `join` kernel.
    """
    T = S.table()
    out = set()
    for i, r in enumerate(T.members):
        for j in mask_bits((T.upinv[i] | 1 << i) >> i << i):
            s = T.members[j]
            t = T.join(i, j)
            if t is not None and T.is_star(1 << i | 1 << j | 1 << T.inv[t]):
                out.add(frozenset({r, s, T.members[T.inv[t]]}))
    return StarFamily(out, tag="P_S-derived")


def profile_stand_in_family(S):
    """Stand-in for a friendly family whose tangles are the regular profiles.

    P_S restricted to stars, plus {r.inv} for every small or trivial r.
    """
    fam = p_s_family(S)
    extra = set(fam.elements)
    T = S.table()
    for i, r in enumerate(T.members):
        if r.is_small or T.trivial_witness(i) is not None:
            extra.add(frozenset({r.inv}))
    return StarFamily(extra, tag="profiles")


# ---------------------------------------------------------------- enumeration


def _backtrack_orientations(S, prune):
    """The bitsets of all total choices surviving the incremental prune; the
    search engine of every tangle, profile and node enumeration.

    prune(bits, y) -> True to reject the branch extending the bitset bits
    of chosen members by member number y of S's `IndexTable`.  One
    orientation of each canonical representative is decided: first the
    degenerates, each its own only choice, then the rest in order, each
    before its inverse, depth first on an explicit stack rather than the
    interpreter's.
    """
    inv = S.table().inv
    order = sorted(S.table().reps, key=lambda i: inv[i] != i)
    results = []
    stack = [(0, 0)]
    while stack:
        i, bits = stack.pop()
        if i == len(order):
            results.append(bits)
            continue
        r = order[i]
        for y in (inv[r], r) if inv[r] != r else (r,):
            if not prune(bits, y):
                stack.append((i + 1, bits | 1 << y))
    return results


def f_tangles(S, F):
    """All F-tangles of S by backtracking, sorted.

    Each one is certified consistent and free of elements of F; a failed
    certificate raises VerificationFailed.
    """
    T = S.table()
    inv, up = T.inv, T.up
    blocked = F.blocker(T)

    def prune(bits, y):
        return bool(bits & up[inv[y]]) or blocked(bits, y)

    out = []
    for bits in _backtrack_orientations(S, prune):
        O = Orientation(S, bits)
        if not is_consistent(O)[0]:
            raise VerificationFailed("tangle search returned an inconsistent orientation")
        if F.subset_in(O) is not None:
            raise VerificationFailed("tangle search returned an orientation with an F-element")
        out.append(O)
    out.sort(key=lambda O: mask_bits(O.bits))
    return out


def is_profile(O):
    """No (r v s)* inside O for r,s in O with r v s in the system; the
    witness is the first such pair in sort_key order."""
    T = O.system.table()
    bits, inv, join = O.bits, T.inv, T.join
    ids = mask_bits(bits)
    for n, i in enumerate(ids):
        for j in ids[n:]:
            t = join(i, j)
            if t is not None and bits >> inv[t] & 1 and inv[t] != t:
                return False, (T.members[i], T.members[j])
    return True, None


def is_regular(O):
    for s in O:
        if s.is_cosmall and not s.is_degenerate:
            return False, s
    return True, None


def regular_profiles(S):
    """All regular profiles of S by backtracking, sorted.

    Regularity orients every small member small-side-first.  Each profile is
    certified consistent and regular; a failed certificate raises
    VerificationFailed.
    """
    T = S.table()
    inv, up, join = T.inv, T.up, T.join

    def prune(bits, y):
        t = inv[y]
        if t != y and up[t] >> y & 1:              # y is co-small
            return True
        if bits & up[t]:
            return True
        # profile pruning: adding y must not complete {r, s, (r v s)*}
        with_y = bits | 1 << y
        for x in mask_bits(bits):
            j = join(x, y)
            if j is not None and with_y >> inv[j] & 1 and inv[j] != j:
                return True
        return False

    out = []
    for bits in _backtrack_orientations(S, prune):
        O = Orientation(S, bits)
        # the prune misses a (r v s)* whose member is chosen after r and s
        if not is_profile(O)[0]:
            continue
        if not is_consistent(O)[0] or not is_regular(O)[0]:
            raise VerificationFailed("search returned an inconsistent or irregular profile")
        out.append(O)
    out.sort(key=lambda O: mask_bits(O.bits))
    return out


# ---------------------------------------------------------------- relations


def closely_related(s, P):
    """s in P and r ^ s in S for every r in P; witness is the first failing
    r in sort_key order.  The meets are read from the table's `meet` kernel."""
    if s not in P:
        raise NotInProfile("%r not in the profile" % (s,))
    T = P.system.table()
    i, meet = T.index[s], T.meet
    for r in mask_bits(P.bits):
        if meet(r, i) is None:
            return False, T.members[r]
    return True, None


def distinguishers(P1, P2):
    """(all, efficient): members oriented oppositely; efficient = min order."""
    if P1 == P2:
        raise Indistinct("orientations are identical")
    # P2 holds s* for the non-degenerate s of P1 that it lacks
    T = P1.system.table()
    ids = {min(i, T.inv[i]) for i in mask_bits(P1.bits & ~P2.bits)}
    out = [T.members[i] for i in sorted(ids)]
    if not out:
        return [], []
    m = min(s.order for s in out)
    return out, [s for s in out if s.order == m]


def distinguishes(s, P1, P2):
    return (s in P1 and s.inv in P2) or (s.inv in P1 and s in P2)


def is_good(s, tangles):
    """Does s distinguish some pair with both orientations closely related?

    s may be given in either orientation; the unoriented separation is meant.
    """
    ts = list(tangles)
    for i, P in enumerate(ts):
        for Q in ts[i + 1:]:
            for a in (s, s.inv):
                if a in P and a.inv in Q:
                    if closely_related(a, P)[0] and closely_related(a.inv, Q)[0]:
                        return True, (P, Q)
    return False, None


def check_star_family(F, S):
    """Friendliness report for an explicit family over S: every element is
    a star (all_stars), {r.inv} is an element for every trivial r in S
    (standard) and for every small non-degenerate r in S."""
    elements = sorted(
        (el for el in F), key=lambda e: sorted(s.sort_key for s in e))
    report = {"standard": True, "all_stars": True, "contains_inverse_of_smalls": True,
              "witnesses": {}}
    for el in elements:
        if not is_star(el):
            report["all_stars"] = False
            report["witnesses"].setdefault("not_a_star", el)
            break
    fam = set(frozenset(e) for e in elements)
    T = S.table()
    for i, r in enumerate(T.members):
        if T.trivial_witness(i) is not None and frozenset({r.inv}) not in fam:
            report["standard"] = False
            report["witnesses"].setdefault("standard", r)
            break
    for r in S:
        if r.is_small and not r.is_degenerate and frozenset({r.inv}) not in fam:
            report["contains_inverse_of_smalls"] = False
            report["witnesses"].setdefault("smalls", r)
            break
    return report
