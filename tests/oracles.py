"""Reference implementations that only the tests need."""

from itertools import combinations

from tangletree import io as tio
from tangletree.errors import CrossingEdge, TooLarge
from tangletree.graphs import mask_bits, min_vertex_cut_size
from tangletree.seps import OrientedSeparation, SeparationSystem, separation
from tangletree.tangles import (CoverFamily, Orientation, StarFamily,
                                _backtrack_orientations, is_regular, is_star,
                                same_separation)
from tangletree.universe import _profile_stars


def induced_edges(G, X):
    """The edges of G with both ends in X."""
    X = frozenset(X)
    return {e for e in G.edges if e <= X}


def inseparable(G, a, b, k):
    """No set of fewer than k vertices separates a from b, by
    `min_vertex_cut_size` on the pair; the reference for `blocks.separated`."""
    if a == b or frozenset((a, b)) in G.edges:
        return True
    return min_vertex_cut_size(G, a, b) >= k


def brute_force_separations(G, k):
    """S_k(G) by sweeping all ordered subset pairs through validation."""
    out = set()
    verts = sorted(G.vertices)
    subsets = []
    for size in range(G.n + 1):
        subsets.extend(frozenset(c) for c in combinations(verts, size))
    for A in subsets:
        for B in subsets:
            if A | B != G.vertices or len(A & B) >= k:
                continue
            try:
                out.add(separation(G, A, B))
            except CrossingEdge:
                pass
    return SeparationSystem(G, out, k=k)


def one_sided_separations(G, k):
    """The separations (A, V) and (V, A) with |A| < k, all of which lie in S_k(G)."""
    out = set()
    V = G.vertices
    for size in range(min(k, G.n + 1)):
        for A in combinations(sorted(V), size):
            out.add(OrientedSeparation(G, frozenset(A), V))
            out.add(OrientedSeparation(G, V, frozenset(A)))
    return out


def is_submodular_system(S):
    """For all oriented r,s: r v s in S or r ^ s in S."""
    elems = list(S)
    for i, r in enumerate(elems):
        for s in elems[i:]:
            if r.join(s) not in S and r.meet(s) not in S:
                return False
    return True


def elements_over(F, S):
    """The elements of a `CoverFamily` F that are subsets of the (small) system S."""
    lst = sorted(S, key=lambda s: s.sort_key)
    out = set()
    for r in range(1, 4):
        for c in combinations(lst, r):
            if set(c) in F:
                out.add(frozenset(c))
    return out


# ------------------------------------------ element-wise order questions
# The loops that `tangles` and `seps` ran on element calls before they read
# the system's index table; the references for the bitset versions.


def pair_inconsistent(x, y):
    """Whether x and y, not one separation, have x* <= y or y* <= x."""
    if same_separation(x, y):
        return False
    return x.inv.leq(y) or y.inv.leq(x)


def is_consistent(O):
    """(True, None) or (False, (r_inv, s)) with r < s and both in O."""
    members = sorted(O, key=lambda s: s.sort_key)
    for x, y in combinations(members, 2):
        if same_separation(x, y):
            continue
        if x.inv.leq(y):
            return False, (x, y)
        if y.inv.leq(x):
            return False, (y, x)
    return True, None


def classify_witness(s, S):
    """The first r of S with s < r and s < r.inv, or None."""
    for r in S:
        if r != s and r.inv != s and s.leq(r) and s.leq(r.inv):
            return r
    return None


def p_s_family(S):
    """The stars among P_S, over all pairs of members."""
    out = set()
    lst = sorted(S, key=lambda s: s.sort_key)
    for i, r in enumerate(lst):
        for s in lst[i:]:
            j = r.join(s)
            if j in S:
                el = frozenset({r, s, j.inv})
                if is_star(el):
                    out.add(el)
    return StarFamily(out, tag="P_S-derived")


def is_profile(O):
    """No (r v s)* inside O for r,s in O with r v s in the system."""
    members = sorted(O, key=lambda s: s.sort_key)
    S = O.system
    for i, r in enumerate(members):
        for s in members[i:]:
            j = r.join(s)
            if j in S and j.inv in O and not j.is_degenerate:
                return False, (r, s)
    return True, None


def t_prime(S):
    """T' over all pairs of members, by element calls."""
    lst = sorted(S, key=lambda s: s.sort_key)
    out = set()
    for i, r in enumerate(lst):
        for s in lst[i:]:
            if r.leq(s.inv):
                j = r.join(s)
                if j.inv.leq(j):
                    out.add(frozenset((r, s)))
    return StarFamily(out, tag="Tprime")


def t_tilde_star(S):
    """T~* over all subsets of at most three members, by `is_star` and
    element calls."""
    T = S.table()
    lst = T.members
    out = set()
    for n in range(1, 4):
        for c in combinations(lst, n):
            if not is_star(c):
                continue
            j = None
            for x in c:
                j = x if j is None else j.join(x)
            if j.inv.leq(j):
                out.add(frozenset(c))
    for i, r in enumerate(lst):
        if r.is_degenerate:
            continue
        if r.is_small or T.trivial_witness(i) is not None:
            out.add(frozenset({r.inv}))
    return StarFamily(out, tag="Ttildestars")


def closely_related(s, P):
    """Whether r ^ s is in the system for every r of P, with the first
    failing r, by element calls."""
    for r in P:
        if r.meet(s) not in P.system:
            return False, r
    return True, None


def f_tangles(S, F):
    """The F-tangles of S from the element-wise prune, sorted."""
    members = S.table().members
    violation = (reference_violation if isinstance(F, CoverFamily)
                 else reference_star_violation)

    def prune(bits, i):
        y = members[i]
        chosen = {members[j] for j in mask_bits(bits)}
        return (any(pair_inconsistent(x, y) for x in chosen)
                or violation(F, chosen, y) is not None)

    out = [Orientation(S, c) for c in _backtrack_orientations(S, prune)]
    out = [O for O in out if is_consistent(O)[0] and F.subset_in(O) is None]
    out.sort(key=lambda O: tuple(s.sort_key for s in O))
    return out


def regular_profiles(S):
    """The regular profiles of S from the element-wise prune, sorted."""
    members = S.table().members

    def prune(bits, i):
        y = members[i]
        chosen = {members[j] for j in mask_bits(bits)}
        if y.is_cosmall and not y.is_degenerate:
            return True
        if any(pair_inconsistent(x, y) for x in chosen):
            return True
        for x in chosen:
            j = x.join(y)
            if j in S and j.inv in chosen | {y} and not j.is_degenerate:
                return True
        return False

    out = [Orientation(S, c) for c in _backtrack_orientations(S, prune)]
    out = [O for O in out
           if is_profile(O)[0] and is_consistent(O)[0] and is_regular(O)[0]]
    out.sort(key=lambda O: tuple(s.sort_key for s in O))
    return out


def brute_force_f_tangles(S, F, limit=18):
    """The F-tangles of S by filtering all 2^|S| orientations; refuses beyond
    the limit.  The reference for `tangles.f_tangles`."""
    reps = S.unoriented()
    nd = [s for s in reps if not s.is_degenerate]
    if len(nd) > limit:
        raise TooLarge("%d members > %d" % (len(nd), limit))
    base = [s for s in reps if s.is_degenerate]
    out = []
    for mask in range(2 ** len(nd)):
        chosen = set(base)
        for i, s in enumerate(nd):
            chosen.add(s if mask >> i & 1 else s.inv)
        O = Orientation(S, S.table().bits(chosen))
        if not is_consistent(O)[0]:
            continue
        if F.subset_in(O) is not None:
            continue
        out.append(O)
    out.sort(key=lambda O: tuple(s.sort_key for s in O))
    return out


def nodes_by_orientation(N):
    """Splitting stars of a nested set as the maximal members of its consistent
    orientations, sorted; the reference for `trees.nodes`."""
    sub = SeparationSystem(N.system.ground, frozenset(x for s in N for x in (s, s.inv)))
    members = sub.table().members

    def prune(bits, y):
        return any(pair_inconsistent(members[x], members[y]) for x in mask_bits(bits))

    stars = set()
    for bits in _backtrack_orientations(sub, prune):
        chosen = [members[i] for i in mask_bits(bits)]
        stars.add(frozenset(
            s for s in chosen
            if not any(not same_separation(s, t) and s.leq(t) and s != t for t in chosen)))
    return sorted(stars, key=lambda st: sorted(s.sort_key for s in st))


def enumerate_stars(members):
    """All stars over the given oriented separations, the empty one first, by
    `leq` calls in depth-first order; the reference for `IndexTable.stars`."""
    members = sorted(set(members), key=lambda s: s.sort_key)

    def rec(i, cur):
        yield frozenset(cur)
        for j in range(i, len(members)):
            m = members[j]
            if all(x.leq(m.inv) for x in cur):
                cur.append(m)
                yield from rec(j + 1, cur)
                cur.pop()

    yield from rec(0, [])


def check_universe_elementwise(U):
    """Exhaustive lattice / involution / distributivity report with witnesses,
    computed by element calls; the reference for `universe.check_universe`."""
    elems = sorted(U, key=lambda x: x.sort_key)
    report = {"lattice": True, "involution_order_reversing": True,
              "distributive": True, "witnesses": {}}

    def flag(key, witness_name, w):
        if report[key]:
            report[key] = False
            report["witnesses"][witness_name] = w

    inside = frozenset(elems)
    for r in elems:
        if not r.leq(r):
            flag("lattice", "not-reflexive", r)
        if r.inv.inv != r:
            flag("involution_order_reversing", "not-involutive", r)
    for r, s in combinations(elems, 2):
        if r.leq(s) and s.leq(r):
            flag("lattice", "not-antisymmetric", (r, s))
    for r in elems:
        for s in elems:
            j, m = r.join(s), r.meet(s)
            if j not in inside or m not in inside:
                flag("lattice", "not-closed", (r, s))
                continue
            if not (r.leq(j) and s.leq(j) and m.leq(r) and m.leq(s)):
                flag("lattice", "not-a-bound", (r, s))
            if r.leq(s) and not s.inv.leq(r.inv):
                flag("involution_order_reversing", "order-reversal", (r, s))
    for r in elems:
        for s in elems:
            for t in elems:
                if r.leq(s) and s.leq(t) and not r.leq(t):
                    flag("lattice", "not-transitive", (r, s, t))
                if r.leq(t) and s.leq(t) and not r.join(s).leq(t):
                    flag("lattice", "join-not-least", (r, s, t))
                if t.leq(r) and t.leq(s) and not t.leq(r.meet(s)):
                    flag("lattice", "meet-not-greatest", (r, s, t))
                if r.meet(s.join(t)) != r.meet(s).join(r.meet(t)):
                    flag("distributive", "meet-over-join", (r, s, t))
                if r.join(s.meet(t)) != r.join(s).meet(r.join(t)):
                    flag("distributive", "join-over-meet", (r, s, t))
    return report


def reference_maximal(elems):
    """The maximal elements of elems by pairwise `leq` calls, in `sort_key`
    order; the reference for `universe._maximal`."""
    lst = sorted(set(elems), key=lambda x: x.sort_key)
    return [x for x in lst if not any(x.leq(y) and x != y for y in lst)]


def is_maximal_star(st, P):
    """(flag, witness): no star in P strictly greater in the star order."""
    T = P.system.table()
    st = T.bits(st)
    for tau in _profile_stars(P):
        if T.star_leq(st, tau) and not T.star_leq(tau, st):
            return False, frozenset(T.members[i] for i in mask_bits(tau))
    return True, None


def reference_save_universe(U, path, seed=None):
    """`io.save_universe` by element calls: 2n^2 `meet`/`join` calls and a
    `leq` call per pair."""
    elems = sorted(U, key=lambda x: x.sort_key)
    names = {x: x.name for x in elems}
    obj = tio._header("universe", seed)
    obj["backend"] = "table-driven"
    obj["elements"] = [names[x] for x in elems]
    obj["leq"] = sorted([names[a], names[b]]
                        for a in elems for b in elems if a.leq(b) and a != b)
    obj["inv"] = {names[x]: names[x.inv] for x in elems}
    obj["meet"] = sorted([names[a], names[b], names[a.meet(b)]]
                         for a in elems for b in elems)
    obj["join"] = sorted([names[a], names[b], names[a.join(b)]]
                         for a in elems for b in elems)
    if any(x.order for x in elems):
        obj["order"] = {names[x]: x.order for x in elems}
    return tio._dump(obj, path)


def _clique_prune(cov, sides, slacks, wilds):
    """Necessary condition: every clique's edges admit a pair cover.

    A set of vertex sets covering all edges of a clique C either has a
    member containing C or places every vertex of C in two members, so
    the capacities must reach 2|C| and cannot all fall short of |C|.
    """
    cap_w = cov.k - 1
    for C in cov.cliques:
        caps = [len(C & A) + sl for A, sl in zip(sides, slacks)]
        caps += [min(cap_w, len(C))] * wilds
        if max(caps, default=0) >= len(C):
            continue
        if sum(caps) < 2 * len(C):
            return False
    return True


def reference_cover_search(cov, chosen, wilds):
    """Set-based exact search for pads and small sides completing a cover,
    with the clique prune at the root only and no node budget; the
    reference for `CliqueCover._cover_search`."""
    G, k = cov.G, cov.k
    sides = [set(s.A) for s in chosen]
    slacks = [cov.slack(s) for s in chosen]
    if not _clique_prune(cov, [frozenset(a) for a in sides], slacks, wilds):
        return None
    missing = set(G.vertices) - set().union(*sides)
    if len(missing) > sum(slacks) + wilds * (k - 1):
        return None
    todo_edges = [tuple(sorted(e)) for e in G.edges
                  if not any(e <= A for A in sides)]
    todo_edges.sort()
    pads = [set() for _ in sides]
    wild = [set() for _ in range(wilds)]

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
        edges = [e for e in edges if not satisfied(e)]
        left = [v for v in sorted(missing) if not satisfied((v,))]
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


def reference_cover_triple(cov, members):
    """`CliqueCover.cover_triple` on the reference search."""
    props = sorted(members, key=lambda s: s.sort_key)
    for take in range(1, 4):
        for combo in combinations(props, take):
            hit = reference_cover_search(cov, list(combo), 3 - take)
            if hit is not None:
                return hit
    return None


def reference_cover_contains(F, seps):
    """`CoverFamily.__contains__` by set unions; the reference for the mask
    test of `tangles.covering_subset`."""
    G = F.G
    if len(seps) > 3 or frozenset().union(*(s.A for s in seps)) != G.vertices:
        return False
    covered = set()
    for s in seps:
        covered |= induced_edges(G, s.A)
    return covered == G.edges and (not F.stars_only or is_star(seps))


def reference_star_violation(F, chosen, y):
    """An element of the `StarFamily` F inside chosen | {y} that contains y,
    else None; the reference for `StarFamily.blocker`."""
    for el in F.elements:
        if y in el and all(s == y or s in chosen for s in el):
            return el
    return None


def reference_violation(F, chosen, y):
    """An element of the `CoverFamily` F inside chosen | {y} that contains y,
    else None, by set unions with the sum-of-sizes bound; the witness form
    of `CoverFamily.blocker`."""
    if reference_cover_contains(F, {y}):
        return frozenset({y})
    # A-sides must cover V; descending |A| lets the loops break early
    n = F.G.n
    lst = sorted(chosen, key=lambda s: (-len(s.A), s.sort_key))
    for a in lst:
        if len(y.A) + len(a.A) < n:
            break
        if reference_cover_contains(F, {y, a}):
            return frozenset({y, a})
    for i, a in enumerate(lst):
        if len(y.A) + 2 * len(a.A) < n:
            break
        for b in lst[i + 1:]:
            if len(y.A) + len(a.A) + len(b.A) < n:
                break
            if len(y.A | a.A | b.A) < n:
                continue
            if reference_cover_contains(F, {y, a, b}):
                return frozenset({y, a, b})
    return None


def maximal_sides(O):
    """The members of O whose A-side no other member's A-side strictly
    contains, the least sort_key of equal A-sides; the members that
    `CoverFamily.subset_in` searches under T_k."""
    return [s for s in O
            if not any(s.A < t.A or (s.A == t.A and t.sort_key < s.sort_key) for t in O)]


def reference_subset_in(F, O):
    """`CoverFamily.subset_in` by set unions, with the sum-of-sizes bound."""
    n = F.G.n
    lst = sorted(O, key=lambda s: (-len(s.A), s.sort_key))
    for a in lst:
        if reference_cover_contains(F, {a}):
            return frozenset({a})
    for i, a in enumerate(lst):
        if 2 * len(a.A) < n:
            break
        for b in lst[i + 1:]:
            if len(a.A) + len(b.A) < n:
                break
            if reference_cover_contains(F, {a, b}):
                return frozenset({a, b})
    for i, a in enumerate(lst):
        if 3 * len(a.A) < n:
            break
        for j in range(i + 1, len(lst)):
            b = lst[j]
            if len(a.A) + 2 * len(b.A) < n:
                break
            for c in lst[j + 1:]:
                if len(a.A) + len(b.A) + len(c.A) < n:
                    break
                if len(a.A | b.A | c.A) < n:
                    continue
                if reference_cover_contains(F, {a, b, c}):
                    return frozenset({a, b, c})
    return None


def reference_witnesses(U, tau):
    """Whether no set of at most three non-degenerate members of tau has
    A-sides covering U and U's induced edges: the `witnesses` flag of
    `blocks.tangle_correspondence`, by enumerating the subsets."""
    U = frozenset(U)
    members = sorted((s for s in tau if not s.is_degenerate), key=lambda s: s.sort_key)
    if not members:
        return True
    H_edges = induced_edges(members[0].graph, U)
    for r in range(1, 4):
        for sub in combinations(members, r):
            if frozenset().union(*(s.A for s in sub)) & U != U:
                continue
            covered = set()
            for s in sub:
                covered |= {e for e in H_edges if e <= s.A}
            if covered == H_edges:
                return False
    return True
