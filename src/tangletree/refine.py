"""Refinement: inessential-star refinement, minimal interior exclusive
stars, and the one refinement driver of Theorems 1.2 and 1.3."""

from .errors import (HypothesisFailure, NotExclusiveAnywhere, SearchExhausted,
                     TooLarge, VerificationFailed)
from .distinguish import DistinguisherTable, require_premise
from .graphs import mask_bits
from .seps import from_masks
from .tangles import (CoverFamily, check_star, closely_related, f_tangles,
                      interior, star_leq)
from .trees import STree, NestedSet, TreeDecomposition, to_stree


# ------------------------------------------------------- inessential stars


class _Fragment:
    """A partial S-tree under construction: stars, edges, alpha."""

    def __init__(self, star):
        self.stars = [star]
        self.edges = []
        self.alpha = {}

    @staticmethod
    def glue(t1, t2, u):
        """Join two fragments with edge separation u pointing into t2."""
        out = _Fragment.__new__(_Fragment)
        off = len(t1.stars)
        out.stars = t1.stars + t2.stars
        out.edges = list(t1.edges) + [(i + off, j + off) for (i, j) in t2.edges]
        out.alpha = dict(t1.alpha)
        for (i, j), x in t2.alpha.items():
            out.alpha[(i + off, j + off)] = x
        i1 = next(i for i, st in enumerate(t1.stars) if u.inv in st)
        i2 = next(i for i, st in enumerate(t2.stars) if u in st) + off
        a, b = min(i1, i2), max(i1, i2)
        out.edges.append((a, b))
        out.alpha[(i1, i2)] = u
        out.alpha[(i2, i1)] = u.inv
        return out


def _cover_parts(sigma, F):
    """Carving parts (kind, vertex mask, separation): sigma members,
    uncovered edges, padding singletons.

    Every vertex of a non-sigma part must lie in a second part so that the
    leaf separation pointing into that part is co-small.
    """
    G = F.G
    parts = []
    for s in sorted(sigma, key=lambda x: x.sort_key):
        parts.append(("sep", s.a, s))
    covered = 0
    for s in sigma:
        covered |= F.masks[s.a][1]
    for i, m in enumerate(F.masks.edges):
        if not covered >> i & 1:
            parts.append(("edge", m, None))
    once = twice = edge_verts = 0
    for kind, m, _ in parts:
        twice |= once & m
        once |= m
        if kind == "edge":
            edge_verts |= m
    for v in range(G.n):
        if not once >> v & 1:
            parts.append(("vertex", 1 << v, None))
            parts.append(("vertex", 1 << v, None))
        elif not twice >> v & 1 and edge_verts >> v & 1:
            parts.append(("vertex", 1 << v, None))
    return parts


def _subset_unions(ids, vm):
    """Vertex and part masks of every subset of the parts ids, in counting
    order: bit t of the index selects ids[t]."""
    us, ps = [0], [0]
    for i in ids:
        us += [u | vm[i] for u in us]
        ps += [p | 1 << i for p in ps]
    return us, ps


# expansions each search of refine_inessential may make (TooLarge)
MAX_EXPANSIONS = 20000


def _carve_cover(sigma, F, S):
    """Fragment (stars, edges, alpha) whose non-sigma leaves lie in F.

    Searches for a binary carving of the parts in which every partition
    separation has order below k; cover-style stars then lie in F without
    further checks.  Sigma parts are left un-emitted so the caller attaches
    them as the excluded leaves.  Part sets are int masks over the parts,
    and a split is measured on the vertex masks of its two sides.
    """
    G = F.G
    parts = _cover_parts(sigma, F)
    L = len(parts)
    vm = [m for (_, m, _) in parts]
    all_idx = (1 << L) - 1

    def union(idx):
        out = 0
        for i in mask_bits(idx):
            out |= vm[i]
        return out

    # a one-part set of a sigma member is bounded by the member itself
    single = {}
    for i, (kind, m, s) in enumerate(parts):
        if kind == "sep":
            if union(all_idx ^ 1 << i) & ~s.b:
                raise VerificationFailed("part separation %r does not bound its part" % (s,))
            single[1 << i] = s

    def sep_for(idx):
        """Partition separation oriented away from the part set idx."""
        s = single.get(idx)
        if s is None:
            s = from_masks(G, union(idx), union(all_idx ^ idx))
        return s

    def measure(idx, a, b):
        """(order, degenerate) of the separation sep_for(idx) = (a, b)."""
        s = single.get(idx)
        if s is not None:
            return s.order, s.is_degenerate
        return (a & b).bit_count(), a == b

    fail = set()
    left = [MAX_EXPANSIONS]

    def build(idx):
        """Carving subtree for idx, or None; the boundary is already valid."""
        if idx & (idx - 1) == 0:
            return ("leaf", idx.bit_length() - 1)
        if idx in fail:
            return None
        out = union(all_idx ^ idx)
        first = idx & -idx
        fv = vm[first.bit_length() - 1]
        rest = mask_bits(idx ^ first)
        # the first part stays on the left side, killing mirror splits; the
        # subsets of the rest come in counting order, from two half tables
        h = len(rest) // 2
        lov, lop = _subset_unions(rest[:h], vm)
        hiv, hip = _subset_unions(rest[h:], vm)
        lm, hm = len(lov) - 1, len(hiv) - 1
        cands = []
        for m in range(2 ** len(rest) - 1):
            lo, hi = m & lm, m >> h
            uq = fv | lov[lo] | hiv[hi]
            ur = lov[lo ^ lm] | hiv[hi ^ hm]
            Q = first | lop[lo] | hip[hi]
            R = idx ^ Q
            oq, dq = measure(Q, uq, ur | out)
            orr, dr = measure(R, ur, uq | out)
            if oq >= F.k or orr >= F.k or dq or dr:
                continue
            cands.append((max(oq, orr), min(Q.bit_count(), R.bit_count()) > 1, Q, R))
            if len(cands) > 5000:
                break
        cands.sort(key=lambda c: (c[0], c[1]))
        for _, _, Q, R in cands:
            if left[0] <= 0:
                raise TooLarge("carving search budget exhausted")
            left[0] -= 1
            t1 = build(Q)
            if t1 is None:
                continue
            t2 = build(R)
            if t2 is None:
                continue
            return ("node", idx, t1, t2)
        fail.add(idx)
        return None

    tree = build(all_idx) if L > 1 else None
    if tree is None:
        raise SearchExhausted("no carving of the uncovered region was found")

    stars, edges, alpha = [], [], {}

    def emit(sub, parent_sep):
        """Node id carrying the subtree, or None for sigma leaves."""
        if sub[0] == "leaf":
            i = sub[1]
            if parts[i][0] == "sep":
                return None
            nid = len(stars)
            stars.append(frozenset({parent_sep.inv}))
            return nid
        _, idx, t1, t2 = sub
        nid = len(stars)
        members = set()
        if parent_sep is not None:
            # parent_sep points toward the parent node
            members.add(parent_sep.inv)
        kids = []
        for t in (t1, t2):
            sub_idx = t[1] if t[0] == "node" else 1 << t[1]
            s = sep_for(sub_idx)
            members.add(s)
            kids.append((t, s))
        stars.append(frozenset(members))
        for t, s in kids:
            kid = emit(t, s)
            if kid is not None:
                edges.append((min(nid, kid), max(nid, kid)))
                alpha[(kid, nid)] = s
                alpha[(nid, kid)] = s.inv
        return nid

    emit(tree, None)
    # internal nodes must precede the leaves for the caller's arithmetic
    order = sorted(range(len(stars)), key=lambda i: len(stars[i]) == 1)
    remap = {old: new for new, old in enumerate(order)}
    stars = [stars[i] for i in order]
    edges = sorted((min(remap[a], remap[b]), max(remap[a], remap[b]))
                   for (a, b) in edges)
    alpha = {(remap[a], remap[b]): x for (a, b), x in alpha.items()}
    for x in alpha.values():
        if x not in S:
            raise VerificationFailed("carving produced %r outside S" % (x,))
    return stars, edges, alpha


def _split_search(sigma, F, S):
    """Backtracking split search for explicit star families.

    A node, a star, splits along u into the members below u plus u*, and
    the rest plus u.  Nodes, the elements of F and the separations used so
    far are bitsets over S's `IndexTable`; u can split a node when each
    member t of it has t <= u or t <= u*, so the candidates are one AND per
    member of the node, tried in sort_key order before the score sorts
    them.  Both parts are stars when u* <= t* for t below u and u <= t*
    for the rest.
    """
    T = S.table()
    members, inv, down, upinv = T.members, T.inv, T.down, T.upinv
    allowed = [T.up[t] | upinv[t] for t in range(len(members))]
    in_F = set()
    for el in F:
        ids = [T.find(s) for s in el]
        if None not in ids:
            in_F.add(sum(1 << i for i in ids))
    memo_fail = set()
    budget = [MAX_EXPANSIONS]

    def pair(i):
        return 1 << i | 1 << inv[i]

    def build(nb, used):
        if nb in in_F:
            return _Fragment(frozenset(members[i] for i in mask_bits(nb)))
        if nb in memo_fail:
            return None
        if budget[0] <= 0:
            raise TooLarge("refinement search budget exhausted")
        budget[0] -= 1
        ok = (1 << len(members)) - 1 & ~used
        for t in mask_bits(nb):
            ok &= allowed[t]
        cands = []
        for u in mask_bits(ok):
            v = inv[u]
            below = nb & down[u]
            b1, b2 = below | 1 << v, nb ^ below | 1 << u
            if (v == u or b1 == nb or b2 == nb
                    or below & ~upinv[v] or (nb ^ below) & ~upinv[u]):
                continue
            cands.append((-(b1 in in_F) - (b2 in in_F), members[u].order, u, b1, b2))
        cands.sort(key=lambda c: c[:2])
        for _, _, u, b1, b2 in cands:
            used2 = used | pair(u)
            t1 = build(b1, used2)
            if t1 is None:
                continue
            for x in t1.alpha.values():
                used2 |= pair(T.index[x])
            t2 = build(b2, used2)
            if t2 is None:
                continue
            return _Fragment.glue(t1, t2, members[u])
        memo_fail.add(nb)
        return None

    used = 0
    for s in sigma:
        used |= pair(T.index[s])
    frag = build(T.bits(sigma), used)
    if frag is None:
        raise SearchExhausted("no refinement found for %r" % (sorted(sigma),))
    return frag.stars, frag.edges, frag.alpha


def refine_inessential(sigma, F, S, tangles):
    """S-tree over F plus the singleton inverses of sigma's members, with each
    member of sigma a leaf separation and every internal star in F.

    Cover families get a carving search over the uncovered region; explicit
    star families get a backtracking split search.  Each search may expand
    MAX_EXPANSIONS nodes and raises TooLarge when that budget runs out.
    SearchExhausted means a complete search found nothing, a failure of the
    underlying lemma, which guarantees existence under the hypotheses.
    """
    sigma = check_star(sigma)
    ts = list(tangles)
    if ts and any(all(s in P for s in sigma) for P in ts):
        raise HypothesisFailure("star is essential for the given tangles")
    for s in sigma:
        if ts and not any(s.inv in P and closely_related(s.inv, P)[0] for P in ts):
            raise HypothesisFailure(
                "%r has no tangle closely related to its inverse" % (s,))

    if sigma in F and sigma:
        stars, edges, alpha = [sigma], [], {}
    elif isinstance(F, CoverFamily):
        stars, edges, alpha = _carve_cover(sigma, F, S)
    else:
        stars, edges, alpha = _split_search(sigma, F, S)
    stars = list(stars)
    edges = list(edges)
    alpha = dict(alpha)
    for s in sorted(sigma, key=lambda x: x.sort_key):
        host = next(i for i, st in enumerate(stars) if s in st)
        leaf = len(stars)
        stars.append(frozenset({s.inv}))
        edges.append((min(host, leaf), max(host, leaf)))
        alpha[(leaf, host)] = s
        alpha[(host, leaf)] = s.inv
    tree = STree(stars, edges, alpha)
    # certificate: leaves carry sigma, and the stars before those leaves,
    # which come last, lie in F
    leaf_seps = set(tree.leaf_separations())
    for s in sigma:
        if s not in leaf_seps:
            raise VerificationFailed("input member %r is not a leaf separation" % (s,))
    for st in tree.stars[:len(tree.stars) - len(sigma)]:
        if st not in F:
            raise VerificationFailed("internal star not in the family: %r" % (sorted(st),))
    return tree


# ------------------------------------------------ minimal-interior stars


def exclusive_stars(tau, tangles):
    """All stars of proper members of tau, listed by the table's `stars`,
    each with the number of the given tangles that contain it; yields
    (star, owners)."""
    T = tau.system.table()
    others = [Q.bits for Q in tangles if Q != tau]
    for st in T.stars(tau.bits & T.proper):
        yield (frozenset(T.members[i] for i in mask_bits(st)),
               1 + sum(1 for q in others if not st & ~q))


def min_interior_exclusive_star(tau, sigma, tangles):
    """Star sigma' <= tau with sigma <= sigma', exclusive, minimal interior.

    Exhaustive enumeration of the exclusive stars of tau's proper members
    fixes the minimal interior size; among the stars of that size that
    dominate sigma, the one with the most closely related members (then the
    least sort keys) is returned.  The enumeration acts as the certificate.
    """
    G = tau.system.ground
    sigma = check_star(sigma)
    for s in sigma:
        if s not in tau:
            raise HypothesisFailure("sigma must be a subset of tau")
    table = DistinguisherTable.of(tangles)
    ts = table.tangles
    for s in sigma:
        if table.efficient_pair(s) is None:
            raise HypothesisFailure(
                "%r does not efficiently distinguish any pair" % (s,))

    excl = [(len(interior(st, G)), st)
            for st, owners in exclusive_stars(tau, ts) if owners == 1]
    if not excl:
        raise NotExclusiveAnywhere("tau admits no exclusive star")
    best = min(size for size, _ in excl)
    cands = [st for size, st in excl if size == best]
    close = {s for s in frozenset().union(*cands) if closely_related(s, tau)[0]}
    cands.sort(key=lambda st: (-len(st & close), sorted(s.sort_key for s in st)))
    dom = [st for st in cands if star_leq(sigma, st)]
    if not dom:
        raise VerificationFailed(
            "no minimal-interior exclusive star dominates sigma")
    return dom[0]


# ------------------------------------------------------------- pipeline


def _refine(S, F, N_tilde, ts, step):
    """The refinement loop of Theorems 1.2 and 1.3, on a working S-tree.

    Starts from the S-tree of N_tilde and visits its nodes by id.  A node
    home to a tangle tau is handed to step(star, tau), which returns the
    theorem's star for tau and the separations it adds; the nodes of the
    node's star plus those separations replace the node, the returned star
    is essential and every other new node is visited in turn.  A node home
    to no tangle is replaced by the S-tree of refine_inessential, unless an
    essential step made it and it already lies in F.

    Certifies that N refines N_tilde and that every inessential node lies
    in F.  Returns (N, tree): the refined nested set and its S-tree.
    """
    t0 = to_stree(N_tilde)
    stars = dict(enumerate(t0.stars))
    alpha = dict(t0.alpha)
    next_id = len(stars)
    status = dict.fromkeys(stars, "pending")
    from_essential = set()

    def splice(t, local, inside):
        """Replace node t by the nodes `inside` of the S-tree local, whose
        other nodes are leaves across the members of t's star; return their
        new ids."""
        nonlocal next_id
        st = stars.pop(t)
        del status[t]
        ids = {i: next_id + n for n, i in enumerate(inside)}
        next_id += len(inside)
        if sum(a in ids and b in ids for (a, b) in local.edges) + len(st) != len(local.edges):
            raise VerificationFailed("local tree surgery lost an edge")
        for i in inside:
            stars[ids[i]] = local.stars[i]
        for (a, b), x in local.alpha.items():
            if a in ids and b in ids:
                alpha[(ids[a], ids[b])] = x
        for j in sorted(j for (a, j) in alpha if a == t):
            s = alpha.pop((j, t))          # points toward t
            del alpha[(t, j)]
            host = ids[next(i for i in inside if s in local.stars[i])]
            alpha[(j, host)] = s
            alpha[(host, j)] = s.inv
        return list(ids.values())

    rounds = 0
    while "pending" in status.values():
        rounds += 1
        if rounds > 10 * (len(S) + 2):
            raise VerificationFailed("refinement did not converge")
        t = min(i for i, v in status.items() if v == "pending")
        st = stars[t]
        owners = [P for P in ts if all(s in P for s in st)]
        if len(owners) > 1:
            raise VerificationFailed("node home to several tangles")
        if not owners:
            if t in from_essential and st in F:
                status[t] = "inessential"
                continue
            local = refine_inessential(st, F, S, ts)
            # refine_inessential puts the leaves {s*} last
            for i in splice(t, local, range(len(local.stars) - len(st))):
                status[i] = "inessential"
            continue
        tau = owners[0]
        target, added = step(st, tau)
        if target == st:
            status[t] = "essential"
            continue
        local = to_stree(NestedSet(S, set(st) | set(added)))
        inside = [i for i, x in enumerate(local.stars) if not any(s.inv in x for s in st)]
        for i in splice(t, local, inside):
            if stars[i] == target:
                status[i] = "essential"
            else:
                status[i] = "pending"
                from_essential.add(i)

    order = sorted(stars)
    remap = {i: n for n, i in enumerate(order)}
    final_alpha = {(remap[a], remap[b]): x for (a, b), x in alpha.items()}
    edges = {(min(a, b), max(a, b)) for (a, b) in final_alpha}
    tree = STree([stars[i] for i in order], edges, final_alpha)
    N = NestedSet(S, final_alpha.values())
    if N_tilde.bits & ~N.bits:
        raise VerificationFailed("the refinement dropped a premise separation")
    for i in order:
        if status[i] == "inessential" and stars[i] not in F:
            raise VerificationFailed("inessential node %r is not in F" % (sorted(stars[i]),))
    return N, tree


def theorem_1_2(G, F, N_tilde, tangles=None):
    """Refine N_tilde so inessential nodes lie in F and essential nodes have
    minimal interior among the exclusive stars of their tangle.

    The essential step is min_interior_exclusive_star.  Returns (N, TD).

    A graph with fewer than k vertices has no T_k-tangle: its degenerate
    separation (V, V) lies in S_k, and the star {(V, V)} in F.  Its one
    node, the empty star, lies outside F, and on K1 at k >= 2 and K2 at
    k >= 3 every carving of it by `_carve_cover` needs a degenerate split,
    which the carving refuses.  There the answer is the empty nested set
    and the one bag V(G), as on K2 at k = 2, where that bag is home to the
    one tangle.  The node is exempt from lying in F: its bag has fewer than
    k vertices, too few to be home to a k-tangle, which is what F stands
    for.
    """
    S = N_tilde.system
    table = DistinguisherTable.of(f_tangles(S, F) if tangles is None else tangles)
    require_premise(N_tilde, table)

    def step(st, tau):
        sig2 = min_interior_exclusive_star(tau, st, table)
        return sig2, sig2

    try:
        N, tree = _refine(S, F, N_tilde, table.tangles, step)
    except SearchExhausted:
        if (table.tangles or N_tilde.bits or not isinstance(F, CoverFamily)
                or G.n >= F.k):
            raise
        N, bags, edges = N_tilde, [G.vertices], []
    else:
        bags, edges = [interior(x, G) for x in tree.stars], tree.edges
    TD = TreeDecomposition(G, bags, edges)
    ok, w = TD.is_valid()
    if not ok:
        raise VerificationFailed("refined bags are not a tree-decomposition: %r" % (w,))
    return N, TD
