"""Graph-case refinement: shifting, inessential-star refinement, minimal
interior exclusive stars, and the end-to-end pipeline."""

from .errors import (EmulationFailure, HypothesisFailure, NotExclusiveAnywhere,
                     OutOfDomain, SearchExhausted, TooLarge, VerificationFailed)
from .distinguish import DistinguisherTable, verify_premise
from .graphs import mask_bits
from .seps import canonical, from_masks, nested
from .tangles import (CoverFamily, check_star, closely_related, f_tangles,
                      interior, is_star, star_leq)
from .trees import STree, NestedSet, TreeDecomposition, _nodes_structural


class ShiftContext:
    """s emulates r: every x >= r in S has x v s in S; f(x) = x v s."""

    def __init__(self, S, r, s):
        if not r.leq(s):
            raise HypothesisFailure("shift target must satisfy r <= s")
        for x in S:
            if r.leq(x) and x.join(s) not in S:
                raise EmulationFailure("%r does not emulate %r (witness %r)" % (s, r, x))
        self.S = S
        self.r = r
        self.s = s

    def in_domain(self, x):
        if x == self.r.inv:
            return False
        return self.r.leq(x) or self.r.leq(x.inv)

    def shift(self, x):
        if not self.in_domain(x):
            raise OutOfDomain("%r not in the shift domain" % (x,))
        if self.r.leq(x):
            return x.join(self.s)
        return x.inv.join(self.s).inv


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
    """Backtracking split search for explicit star families."""
    all_oriented = sorted(S, key=lambda x: x.sort_key)
    memo_fail = set()
    budget = [MAX_EXPANSIONS]

    def build(node, used):
        if node in F:
            return _Fragment(node)
        if node in memo_fail:
            return None
        if budget[0] <= 0:
            raise TooLarge("refinement search budget exhausted")
        budget[0] -= 1
        cands = []
        for u in all_oriented:
            cu = canonical(u)
            if cu in used or u.is_degenerate:
                continue
            D, rest, ok = [], [], True
            for t in node:
                if t.leq(u):
                    D.append(t)
                elif t.leq(u.inv):
                    rest.append(t)
                else:
                    ok = False
                    break
            if not ok:
                continue
            n1 = frozenset(D) | {u.inv}
            n2 = frozenset(rest) | {u}
            if n1 == node or n2 == node:
                continue
            if not is_star(n1) or not is_star(n2):
                continue
            cands.append((u, n1, n2))

        def score(c):
            u, n1, n2 = c
            return (-int(n1 in F) - int(n2 in F), u.order, u.sort_key)

        cands.sort(key=score)
        for u, n1, n2 in cands:
            used2 = used | {canonical(u)}
            t1 = build(n1, used2)
            if t1 is None:
                continue
            t2 = build(n2, used2 | {canonical(x) for x in t1.alpha.values()})
            if t2 is None:
                continue
            return _Fragment.glue(t1, t2, u)
        memo_fail.add(node)
        return None

    frag = build(sigma, frozenset(canonical(s) for s in sigma))
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
    # certificate: leaves carry sigma, internal stars lie in F
    leaf_seps = set(tree.leaf_separations())
    for s in sigma:
        if s not in leaf_seps:
            raise VerificationFailed("input member %r is not a leaf separation" % (s,))
    deg = {}
    for (i, j) in tree.edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    for i, st in enumerate(tree.stars):
        if st in ({frozenset({s.inv}) for s in sigma}) and deg.get(i, 0) == 1:
            continue
        if st not in F:
            raise VerificationFailed("internal star not in the family: %r" % (sorted(st),))
    return tree


# ---------------------------------------------------- closeness machinery


def min_order_extension(s, P):
    """Minimal-order s' in P with s <= s'; inherits closeness."""
    ok, _ = closely_related(s, P)
    if not ok:
        raise HypothesisFailure("s is not closely related to P")
    cands = [x for x in P if s.leq(x)]
    s2 = min(cands, key=lambda x: (x.order, x.sort_key))
    if not closely_related(s2, P)[0]:
        raise VerificationFailed("minimal extension is not closely related")
    for r in P:
        if r.leq(s.inv):
            if r.meet(s2.inv) not in P.system:
                raise VerificationFailed(
                    "r ^ s2.inv left the system for r=%r" % (r,))
    return s2


def nested_replacement(r, sigma, P):
    """r' in P of order <= |r|, nested with sigma.

    Corner descent: replace r' by r' ^ t.inv for a crossing t in sigma while
    that lowers the crossing count.
    """
    if r not in P:
        raise HypothesisFailure("r must lie in P")
    sigma = check_star(sigma)
    cur = r
    while True:
        crossing = sorted((t for t in sigma if not nested(cur, t)),
                          key=lambda t: t.sort_key)
        if not crossing:
            break
        progressed = False
        for t in crossing:
            cand = cur.meet(t.inv)
            if cand not in P.system or cand not in P or cand.order > r.order:
                continue
            after = sum(1 for x in sigma if not nested(cand, x))
            if after < len(crossing):
                cur = cand
                progressed = True
                break
        if not progressed:
            raise HypothesisFailure("corner descent is stuck at %r" % (cur,))
    return cur


# ------------------------------------------------ minimal-interior stars


def proper_members(O):
    return [s for s in O
            if not s.is_small and not s.is_cosmall and not s.is_degenerate]


def enumerate_stars(members):
    """All stars over the given oriented separations (including the empty one)."""
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


def exclusive_stars(tau, tangles):
    """All exclusive stars of proper members of tau; yields (star, owners)."""
    others = [Q for Q in tangles if Q != tau]
    for st in enumerate_stars(proper_members(tau)):
        owners = 1 + sum(1 for Q in others if all(s in Q for s in st))
        yield st, owners


def _closeness_count(st, tau):
    return sum(1 for s in st if closely_related(s, tau)[0])


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

    best_size = None
    excl = []
    for st, owners in exclusive_stars(tau, ts):
        if owners != 1:
            continue
        excl.append(st)
        size = len(interior(st, G))
        if best_size is None or size < best_size:
            best_size = size
    if best_size is None:
        raise NotExclusiveAnywhere("tau admits no exclusive star")
    cands = [st for st in excl if len(interior(st, G)) == best_size]
    cands.sort(key=lambda st: (-_closeness_count(st, tau),
                               sorted(s.sort_key for s in st)))
    dom = [st for st in cands if star_leq(sigma, st)]
    if not dom:
        raise VerificationFailed(
            "no minimal-interior exclusive star dominates sigma")
    rho = dom[0]
    if not star_leq(sigma, rho) or len(interior(rho, G)) != best_size:
        raise VerificationFailed("exclusive star %r lost dominance or minimality" % (sorted(rho),))
    return rho


def closeness_repair(rho, pivot, tau):
    """sigma'' := {(A,B)} u {(C n B, D u A)}: the repair star for pivot (A,B)."""
    out = {pivot}
    for other in rho:
        if other != pivot:
            out.add(other.meet(pivot.inv))
    out = frozenset(out)
    check_star(out)
    return out


# ------------------------------------------------------------- pipeline


def theorem_1_2(G, k, F, N_tilde, tangles=None):
    """Refine N_tilde so inessential nodes lie in F and essential nodes have
    minimal interior among the exclusive stars of their tangle.

    Returns (N, TD).
    """
    S = N_tilde.system
    if tangles is None:
        tangles = f_tangles(S, F)
    table = DistinguisherTable.of(tangles)
    ts = table.tangles

    if ts:
        rep = verify_premise(N_tilde, table)
        if not (rep["distinguishes_all"] and rep["each_member_efficient"]):
            raise HypothesisFailure("premise fails: %r" % (rep["witnesses"],))

    # working tree
    if N_tilde.members:
        from .trees import to_stree
        t0 = to_stree(N_tilde)
        stars = {i: st for i, st in enumerate(t0.stars)}
        alpha = dict(t0.alpha)
        next_id = [len(t0.stars)]
    else:
        stars = {0: frozenset()}
        alpha = {}
        next_id = [1]
    status = {i: "pending" for i in stars}
    from_essential = set()

    def neighbors(i):
        return sorted(j for (a, j) in alpha if a == i)

    def splice(t, frag_stars, frag_alpha, boundary):
        """Replace node t by a fragment; boundary maps each member s of the
        old star to the fragment node that takes over its edge."""
        old_neighbors = {}
        for j in neighbors(t):
            s = alpha[(j, t)]          # points toward t
            old_neighbors[s] = j
            del alpha[(j, t)]
            del alpha[(t, j)]
        del stars[t]
        del status[t]
        ids = {}
        for local, st in enumerate(frag_stars):
            ids[local] = next_id[0]
            next_id[0] += 1
            stars[ids[local]] = st
            status[ids[local]] = "new"
        for (a, b), x in frag_alpha.items():
            alpha[(ids[a], ids[b])] = x
        for s, local in boundary.items():
            j = old_neighbors[s]
            alpha[(j, ids[local])] = s
            alpha[(ids[local], j)] = s.inv
        return [ids[local] for local in range(len(frag_stars))]

    rounds = 0
    while any(v == "pending" or v == "new" for v in status.values()):
        rounds += 1
        if rounds > 10 * (len(S) + 2):
            raise VerificationFailed("pipeline did not converge")
        t = min(i for i, v in status.items() if v in ("pending", "new"))
        st = stars[t]
        owners = [P for P in ts if all(s in P for s in st)]
        if len(owners) > 1:
            raise VerificationFailed("node home to several tangles")
        if not owners:
            if t in from_essential and st in F:
                status[t] = "inessential"
                continue
            tree = refine_inessential(st, F, S, ts)
            n_internal = len(tree.stars) - len(st)
            boundary = {}
            for s in st:
                leaf = next(i for i, x in enumerate(tree.stars)
                            if x == frozenset({s.inv}) and i >= n_internal)
                (host,) = [j for (i, j) in tree.alpha if i == leaf]
                boundary[s] = host
            frag_stars = tree.stars[:n_internal]
            frag_alpha = {(i, j): x for (i, j), x in tree.alpha.items()
                          if i < n_internal and j < n_internal}
            new_ids = splice(t, frag_stars, frag_alpha, boundary)
            for i in new_ids:
                if stars[i] not in F:
                    raise VerificationFailed("spliced star %r is not in F" % (sorted(stars[i]),))
                status[i] = "inessential"
        else:
            tau = owners[0]
            sig2 = min_interior_exclusive_star(tau, st, table)
            if sig2 == st:
                status[t] = "essential"
                continue
            M = sorted({canonical(x) for x in set(st) | set(sig2)},
                       key=lambda x: x.sort_key)
            local = NestedSet(S, M)
            lstars = sorted(_nodes_structural(local),
                            key=lambda x: sorted(s.sort_key for s in x))
            inside = [x for x in lstars
                      if not any(s.inv in x for s in st)]
            idx = {x: i for i, x in enumerate(inside)}
            frag_alpha = {}
            boundary = {}
            for m in M:
                for mo in (m, m.inv):
                    homes = [x for x in inside if mo in x]
                    anti = [x for x in inside if mo.inv in x]
                    if homes and anti:
                        i, j = idx[anti[0]], idx[homes[0]]
                        frag_alpha[(i, j)] = mo
                        frag_alpha[(j, i)] = mo.inv
            for s in st:
                host = next(x for x in inside if s in x)
                boundary[s] = idx[host]
            covered = ({canonical(m) for (_, _), m in frag_alpha.items()}
                       | {canonical(s) for s in st})
            if covered != {canonical(m) for m in M}:
                raise VerificationFailed("local tree surgery lost an edge")
            new_ids = splice(t, inside, frag_alpha, boundary)
            for i, x in zip(new_ids, inside):
                if x == sig2:
                    status[i] = "essential"
                else:
                    status[i] = "pending"
                    from_essential.add(i)

    # assemble
    order = sorted(stars)
    remap = {i: n for n, i in enumerate(order)}
    final_stars = [stars[i] for i in order]
    final_alpha = {(remap[a], remap[b]): x for (a, b), x in alpha.items()}
    final_edges = sorted({(min(a, b), max(a, b)) for (a, b) in final_alpha})
    tree = STree(final_stars, final_edges, final_alpha)
    members = [canonical(x) for x in tree.alpha.values()]
    N = NestedSet(S, members)
    from .trees import refines
    if not refines(N, N_tilde):
        raise VerificationFailed("the refinement dropped a premise separation")
    bags = [interior(x, G) for x in final_stars]
    TD = TreeDecomposition(G, bags, final_edges)
    ok, w = TD.is_valid()
    if not ok:
        raise VerificationFailed("refined bags are not a tree-decomposition: %r" % (w,))
    for i in range(len(final_stars)):
        if status[order[i]] == "inessential" and final_stars[i] not in F:
            raise VerificationFailed("inessential node %r is not in F" % (sorted(final_stars[i]),))
    return N, TD
