"""Finite universes of separations and the abstract refinement pipeline:
table-driven lattices and their check, narrow and near-maximal stars,
unscrambling, and Theorem 1.3 with its essential step by maximal stars."""

import random
import warnings
from itertools import combinations

from .errors import (HypothesisFailure, NonDistributive, NotInSystem,
                     ParseError, StepBudgetExceeded, TooLarge,
                     VerificationFailed)
from .graphs import mask_bits
from .refine import _premise, _refine
from .seps import SeparationSystem, nested
from .tangles import (StarFamily, check_star, check_star_family,
                      closely_related, f_tangles, is_good, is_star,
                      regular_profiles, star_leq)
from .trees import NestedSet, nodes

# proper members of a profile beyond which its stars are not enumerated
STAR_CAP = 20


class UniverseElement:
    """Element of a table-driven universe; implements the separation protocol.

    A universe builds each of its elements once (`Universe._elems`) and
    then sets their `inv`, so `inv`, `join` and `meet` hand back those
    objects and allocate nothing.
    """

    __slots__ = ("universe", "i", "inv", "sort_key", "_hash")

    def __init__(self, universe, i):
        self.universe = universe
        self.i = i
        self.sort_key = (self.order, self.name)
        self._hash = hash((id(universe), i))

    @property
    def name(self):
        return self.universe.ids[self.i]

    @property
    def order(self):
        o = self.universe._order
        return o[self.i] if o is not None else 0

    def _check(self, other):
        if not isinstance(other, UniverseElement) or other.universe is not self.universe:
            raise NotInSystem("elements of different universes")

    # each operation tests the common case inline and leaves the rest to _check
    def leq(self, other):
        if other.__class__ is not UniverseElement or other.universe is not self.universe:
            self._check(other)
        return self.universe._up[self.i] >> other.i & 1 == 1

    def join(self, other):
        if other.__class__ is not UniverseElement or other.universe is not self.universe:
            self._check(other)
        return self.universe._join[self.i][other.i]

    def meet(self, other):
        if other.__class__ is not UniverseElement or other.universe is not self.universe:
            self._check(other)
        return self.universe._meet[self.i][other.i]

    @property
    def is_small(self):
        return self.leq(self.inv)

    @property
    def is_cosmall(self):
        return self.inv.leq(self)

    @property
    def is_degenerate(self):
        return self.universe._inv[self.i] == self.i

    def __eq__(self, other):
        return self is other or (isinstance(other, UniverseElement)
                                 and other.universe is self.universe
                                 and other.i == self.i)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return str(self.name)

    @staticmethod
    def _order_sets(members, inv):
        """up, down, inv(up) and inv(down) of the elements `members` of one
        universe, as bitsets over their positions, read off the universe's
        up-sets `_up`."""
        U = members[0].universe
        pos = _positions(U, members)
        n = len(members)
        up, down, upinv, downinv = [0] * n, [0] * n, [0] * n, [0] * n
        for i, x in enumerate(members):
            for b in mask_bits(U._up[x.i]):
                j = pos[b]
                if j is not None:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
                    upinv[i] |= 1 << inv[j]
                    downinv[j] |= 1 << inv[i]
        return up, down, upinv, downinv

    @staticmethod
    def _lattice_kernels(members, bound):
        """join(i, j) and meet(i, j) over the elements `members` of one
        universe: the universe's `_join` or `_meet` entry for members i and
        j, mapped to its position among them, or None when it is not one.

        Every member lies below `bound` when there is one, so the result's
        position alone decides.
        """
        U = members[0].universe
        pos = _positions(U, members)
        ids = [x.i for x in members]
        ujoin, umeet = U._join, U._meet

        def join(i, j):
            return pos[ujoin[ids[i]][ids[j]].i]

        def meet(i, j):
            return pos[umeet[ids[i]][ids[j]].i]

        return join, meet


def _positions(U, members):
    """pos[x.i] is the position of x in `members`, None for the other
    elements of the universe U."""
    pos = [None] * len(U.ids)
    for j, x in enumerate(members):
        pos[x.i] = j
    return pos


class Universe:
    """A finite set of elements closed under involution, meet and join, given
    by its tables; `from_tables` builds one."""

    @classmethod
    def from_tables(cls, ids, leq, inv, meet, join, order=None):
        """Table-driven universe; validates totality of all tables on load.

        Element i keeps its up-set as the int `_up[i]` (bit j set when
        i <= j); `_join` and `_meet` are n x n lists of elements.  Every
        entry names an element, so the universe is closed by construction.
        """
        self = cls.__new__(cls)
        self.ids = list(ids)
        if len(set(self.ids)) != len(self.ids):
            raise ParseError("duplicate element ids")
        self._index = index = {v: i for i, v in enumerate(self.ids)}
        n = len(self.ids)

        def look(v):
            if v not in index:
                raise ParseError("unknown element id %r" % (v,))
            return index[v]

        self._inv = [None] * n
        for a, b in inv.items():
            self._inv[look(a)] = look(b)
        if any(v is None for v in self._inv):
            raise ParseError("involution table is not total")
        self._up = [1 << i for i in range(n)]
        for a, b in leq:
            self._up[look(a)] |= 1 << look(b)
        meet = _total_table(meet, look, n, "meet")
        join = _total_table(join, look, n, "join")
        if order is None:
            self._order = None
        else:
            try:
                self._order = [int(order[v]) for v in self.ids]
            except KeyError as e:
                raise ParseError("order map is not total: missing %r" % (e.args[0],))
        elems = self._elems = [UniverseElement(self, i) for i in range(n)]
        for x in elems:
            x.inv = elems[self._inv[x.i]]
        self._meet = [[elems[k] for k in row] for row in meet]
        self._join = [[elems[k] for k in row] for row in join]
        self._elements = sorted(elems, key=lambda x: x.sort_key)
        self._report = None
        return self

    def __iter__(self):
        return iter(self._elements)

    def __len__(self):
        return len(self._elements)

    def __contains__(self, x):
        return isinstance(x, UniverseElement) and x.universe is self

    def element(self, name):
        i = self._index.get(name)
        if i is None:
            raise NotInSystem("no element named %r" % (name,))
        return self._elems[i]

    def system(self, members=None):
        return AbstractSystem(self, self._elements if members is None else members)

    def report(self):
        """The `check_universe` report, computed on first use."""
        if self._report is None:
            self._report = check_universe(self)
        return self._report

    def is_distributive(self):
        return self.report()["distributive"]

    def __repr__(self):
        return "Universe(%d elements)" % len(self._elements)


def _total_table(tab, look, n, what):
    """n x n list of indices; a missing (i, j) entry is read from (j, i)."""
    out = [[None] * n for _ in range(n)]
    for (a, b), c in tab.items():
        out[look(a)][look(b)] = look(c)
    for i, row in enumerate(out):
        for j in range(n):
            if row[j] is None:
                if out[j][i] is None:
                    raise ParseError("%s table is not total" % what)
                row[j] = out[j][i]
    return out


class AbstractSystem(SeparationSystem):
    """Involution-closed subset of a universe."""

    __slots__ = ("universe",)

    def __init__(self, universe, members):
        members = frozenset(members)
        for s in members:
            if s not in universe:
                raise NotInSystem("%r is not an element of the universe" % (s,))
        super().__init__(universe, members)
        self.universe = universe


# ---------------------------------------------------------------- checking


def check_universe(U):
    """Exhaustive lattice / involution / distributivity report with witnesses.

    Reads the universe's own tables, renumbered in `sort_key` order, and
    runs every axiom on those integer tables, O(n^3), with no element call.
    """
    elems = U._elements
    n = len(elems)
    ids = [x.i for x in elems]
    pos = _positions(U, elems)
    inv = [pos[U._inv[i]] for i in ids]
    leq = [[U._up[i] >> j & 1 == 1 for j in ids] for i in ids]
    join = [[pos[U._join[i][j].i] for j in ids] for i in ids]
    meet = [[pos[U._meet[i][j].i] for j in ids] for i in ids]
    report = {"lattice": True, "involution_order_reversing": True,
              "distributive": True, "witnesses": {}}

    def flag(key, witness_name, *w):
        if report[key]:
            report[key] = False
            w = tuple(elems[i] for i in w)
            report["witnesses"][witness_name] = w[0] if len(w) == 1 else w

    for r in range(n):
        if not leq[r][r]:
            flag("lattice", "not-reflexive", r)
        if inv[inv[r]] != r:
            flag("involution_order_reversing", "not-involutive", r)
    for r, s in combinations(range(n), 2):
        if leq[r][s] and leq[s][r]:
            flag("lattice", "not-antisymmetric", r, s)
    for r in range(n):
        for s in range(n):
            j, m = join[r][s], meet[r][s]
            if not (leq[r][j] and leq[s][j] and leq[m][r] and leq[m][s]):
                flag("lattice", "not-a-bound", r, s)
            if leq[r][s] and not leq[inv[s]][inv[r]]:
                flag("involution_order_reversing", "order-reversal", r, s)
    for r in range(n):
        leq_r, join_r, meet_r = leq[r], join[r], meet[r]
        for s in range(n):
            leq_s, join_s, meet_s = leq[s], join[s], meet[s]
            r_leq_s, rs_meet = leq_r[s], meet_r[s]
            # rows of r v s and of r ^ s
            leq_rjs, meet_rjs, join_rms = leq[join_r[s]], meet[join_r[s]], join[rs_meet]
            for t in range(n):
                leq_t = leq[t]
                if r_leq_s and leq_s[t] and not leq_r[t]:
                    flag("lattice", "not-transitive", r, s, t)
                if leq_r[t] and leq_s[t] and not leq_rjs[t]:
                    flag("lattice", "join-not-least", r, s, t)
                if leq_t[r] and leq_t[s] and not leq_t[rs_meet]:
                    flag("lattice", "meet-not-greatest", r, s, t)
                if meet_r[join_s[t]] != join_rms[meet_r[t]]:
                    flag("distributive", "meet-over-join", r, s, t)
                if join_r[meet_s[t]] != meet_rjs[join_r[t]]:
                    flag("distributive", "join-over-meet", r, s, t)
    return report


def require_lattice(U):
    """U's report; HypothesisFailure naming the failed axioms and their
    witnesses unless U is a lattice with an order-reversing involution."""
    rep = U.report()
    failed = [key for key in ("lattice", "involution_order_reversing") if not rep[key]]
    if failed:
        raise HypothesisFailure("the universe fails %s: witnesses %r"
                                % (" and ".join(failed), rep["witnesses"]))
    return rep


def _element_distributive(x):
    """Whether x lives in a distributive universe (set lattices always do)."""
    if isinstance(x, UniverseElement):
        return x.universe.is_distributive()
    return True


# ---------------------------------------------------------------- families


def t_prime(S):
    """T': pairs {r,s} of S with r <= s.inv whose join is co-small.

    For each r only s = r and the s in inv(up[r]) after r are tried, in
    sort_key order; the join is an element call, since it may leave S.
    """
    T = S.table()
    lst = T.members
    out = set()
    for i, r in enumerate(lst):
        for j in mask_bits(T.upinv[i] >> i << i):
            x = r.join(lst[j])
            if x.inv.leq(x):
                out.add(frozenset((r, lst[j])))
    return StarFamily(out, tag="Tprime")


def t_tilde_star(S):
    """Stars of at most three members with a co-small join, plus the singleton
    inverses of small and trivial members; the abstract-tangle family.

    A star {a, b, c}, listed in table order, is non-degenerate with
    b, c in inv(up[a]) and c in inv(up[b]): `is_star`'s r <= s* for each
    r before s.  Only those are enumerated, as bitsets; their joins are
    element calls, since they may leave S.
    """
    T = S.table()
    lst, inv, upinv = T.members, T.inv, T.upinv
    nondeg = 0
    for i, t in enumerate(inv):
        if i != t:
            nondeg |= 1 << i
    out = set()
    for a in mask_bits(nondeg):
        r = lst[a]
        if r.inv.leq(r):
            out.add(frozenset((r,)))
        after_a = upinv[a] & (nondeg >> a + 1 << a + 1)
        for b in mask_bits(after_a):
            j = r.join(lst[b])
            if j.inv.leq(j):
                out.add(frozenset((r, lst[b])))
            for c in mask_bits(after_a & (upinv[b] >> b + 1 << b + 1)):
                x = j.join(lst[c])
                if x.inv.leq(x):
                    out.add(frozenset((r, lst[b], lst[c])))
    for i, r in enumerate(lst):
        if r.is_degenerate:
            continue
        if r.is_small or T.trivial_witness(i) is not None:
            out.add(frozenset({r.inv}))
    return StarFamily(out, tag="Ttildestars")


# ---------------------------------------------------------------- narrowness


def star_profile_status(R, P):
    """Flags for R within the profile P: narrow, and near-maximal when a star."""
    R = sorted(set(R), key=lambda s: s.sort_key)
    for r in R:
        if r not in P:
            raise HypothesisFailure("%r is not a member of the profile" % (r,))
    big = None
    for r in R:
        big = r if big is None else big.join(r)
    narrow, wit = True, None
    for x in P:
        y = x.inv if big is None else x.inv.join(big)
        if not y.inv.leq(y):
            narrow, wit = False, x
            break
    report = {"narrow": narrow, "narrow_witness": wit, "is_star": is_star(R),
              "near_maximal": None, "near_maximal_witness": None}
    if report["is_star"]:
        nm, nw = narrow, wit
        if narrow:
            for x in P:
                below = [s for s in R if s.leq(x)]
                if len(below) >= 2:
                    nm, nw = False, (x, below)
                    break
        report["near_maximal"], report["near_maximal_witness"] = nm, nw
    return report


def profile_nested_part(P, sigma):
    """P_sigma: the members of P nested with every member of sigma."""
    return [x for x in P if all(nested(x, s) for s in sigma)]


def _maximal(elems):
    lst = sorted(set(elems), key=lambda x: x.sort_key)
    return [x for x in lst if not any(x.leq(y) and x != y for y in lst)]


# ------------------------------------------------------------- unscrambling


def unscramble_pair(r, s, sigma, P):
    """Unscramble the crossing pair r, s within P, staying nested with sigma.

    r' is the minimal separation of P_sigma closely related to P with
    r ^ s.inv <= r' <= r (ties broken by canonical element order); then
    s' := s ^ r'.inv.  Nested inputs are returned unchanged.
    """
    sigma = check_star(sigma)
    if nested(r, s):
        return r, s
    for x in (r, s):
        if x not in P:
            raise HypothesisFailure("%r is not in the profile" % (x,))
        if not closely_related(x, P)[0]:
            raise HypothesisFailure("%r is not closely related to the profile" % (x,))
    for t in sigma:
        if t not in P:
            raise HypothesisFailure("sigma must be a subset of the profile")
        if not nested(r, t) or not nested(s, t):
            raise HypothesisFailure("sigma must be nested with r and s")
    floor = r.meet(s.inv)
    cands = [x for x in profile_nested_part(P, sigma)
             if floor.leq(x) and x.leq(r) and closely_related(x, P)[0]]
    if r not in cands:
        raise VerificationFailed("r itself is not a candidate for r'")
    mins = [x for x in cands if not any(y.leq(x) and y != x for y in cands)]
    r2 = min(mins, key=lambda x: x.sort_key)
    s2 = s.meet(r2.inv)
    if s2 not in P.system:
        raise VerificationFailed("s ^ r'.inv left the system")
    if s2 not in P or not closely_related(s2, P)[0]:
        raise VerificationFailed("unscrambled s' is not closely related to P")
    for t in sigma:
        if not nested(s2, t):
            raise VerificationFailed("unscrambled s' crosses sigma")
    if not nested(r2, s2):
        raise VerificationFailed("unscrambled pair is not nested")
    if _element_distributive(r):
        if r2 != r.meet(s2.inv):
            raise VerificationFailed("r' = r ^ s'.inv fails in a distributive universe")
    else:
        warnings.warn("unscrambling in a non-distributive universe; "
                      "narrowness need not be preserved")
    return r2, s2


def unscramble_set(R, sigma, P):
    """Successively unscramble crossing pairs of R; closely related, sigma-nested.

    Each index pair is unscrambled at most once; the supporting corollary
    bounds the process by |R|(|R|-1)/2 steps, so exceeding that (or touching
    a pair twice) signals an implementation bug.
    """
    sigma = check_star(sigma)
    work = sorted(set(R), key=lambda s: s.sort_key)
    for x in work:
        if x not in P:
            raise HypothesisFailure("%r is not in the profile" % (x,))
        if not closely_related(x, P)[0]:
            raise HypothesisFailure("%r is not closely related to the profile" % (x,))
        if not all(nested(x, t) for t in sigma):
            raise HypothesisFailure("%r is not nested with sigma" % (x,))
    keep = [s for s in sigma if any(s.leq(x) for x in work)]
    budget = len(work) * (len(work) - 1) // 2
    done = set()
    steps = 0
    while True:
        pair = None
        for i, j in combinations(range(len(work)), 2):
            if not nested(work[i], work[j]):
                pair = (i, j)
                break
        if pair is None:
            break
        if pair in done or steps >= budget:
            raise StepBudgetExceeded(
                "unscrambling exceeded %d steps; the corollary's bound failed" % budget)
        done.add(pair)
        steps += 1
        i, j = pair
        work[i], work[j] = unscramble_pair(work[i], work[j], sigma, P)
    out = sorted(set(work), key=lambda s: s.sort_key)
    for s in keep:
        if not any(s.leq(x) for x in out):
            raise VerificationFailed("a dominated sigma member was lost in unscrambling")
    return out


# --------------------------------------------------------- near-maximal stars


def near_max_star(sigma, P, tangles=None):
    """A star above sigma that is closely related to and near-maximal in P.

    Follows the supporting lemma's proof: unscramble the maximal separations
    of P_sigma, keep the maximal elements, then shrink the star while some
    separation of P_sigma exceeds two of its members.
    """
    sigma = check_star(sigma)
    for s in sigma:
        if s not in P:
            raise HypothesisFailure("sigma must be a subset of the profile")
    if sigma:
        if tangles is None:
            tangles = regular_profiles(P.system)
        for s in sigma:
            if not is_good(s, tangles)[0]:
                raise HypothesisFailure("sigma member %r is not good" % (s,))
    part = profile_nested_part(P, sigma)
    R = _maximal(part)
    for r in R:
        if not closely_related(r, P)[0]:
            raise VerificationFailed("a maximal separation of P_sigma is not "
                                     "closely related to P")
    if not star_profile_status(R, P)["narrow"]:
        raise VerificationFailed("the maximal separations of P_sigma are not narrow")
    Rp = unscramble_set(R, sigma, P)
    sp = _maximal(Rp)
    while True:
        viol = [x for x in part if sum(1 for s in sp if s.leq(x)) >= 2]
        if not viol:
            break
        x = min(_maximal(viol), key=lambda y: y.sort_key)
        if not closely_related(x, P)[0]:
            raise VerificationFailed("shrink pivot is not closely related to P")
        R2 = [s for s in sp if not s.leq(x)] + [x]
        if len(R2) >= len(sp):
            raise VerificationFailed("near-maximality loop failed to shrink the star")
        sp = _maximal(unscramble_set(R2, sigma, P))
    sp = check_star(sp)
    if not star_leq(sigma, sp):
        raise VerificationFailed("output star does not dominate sigma")
    for s in sp:
        if not closely_related(s, P)[0]:
            raise VerificationFailed("output star is not closely related to P")
    status = star_profile_status(sp, P)
    if not (status["narrow"] and status["near_maximal"]):
        raise VerificationFailed("output star is not near-maximal: %r" % (status,))
    return sp


def _profile_stars(P):
    """An iterator over the stars of proper members of P, as bitsets over
    its system's table; TooLarge at once when P has more than STAR_CAP
    proper members."""
    T = P.system.table()
    props = P.bits & T.proper
    if props.bit_count() > STAR_CAP:
        raise TooLarge("%d proper members exceed the enumeration cap %d"
                       % (props.bit_count(), STAR_CAP))
    return T.stars(props)


def maximal_star_above(sigma, P):
    """A star in P maximal in the star order with sigma <= it, by enumeration."""
    T = P.system.table()
    stars = sorted(_profile_stars(P), key=lambda st: (st.bit_count(), mask_bits(st)))
    cur = T.bits(sigma) & ~T.small
    while True:
        nxt = next((st for st in stars
                    if T.star_leq(cur, st) and not T.star_leq(st, cur)), None)
        if nxt is None:
            return frozenset(T.members[i] for i in mask_bits(cur))
        cur = nxt


def is_maximal_star(st, P):
    """(flag, witness): no star in P strictly greater in the star order."""
    T = P.system.table()
    st = T.bits(st)
    for tau in _profile_stars(P):
        if T.star_leq(st, tau) and not T.star_leq(tau, st):
            return False, frozenset(T.members[i] for i in mask_bits(tau))
    return True, None


# ------------------------------------------------------- essential refinement


def _require_friendly(S, F):
    """The premises on F of the essential refinement: F is a friendly star
    family over S and contains every non-degenerate member of T'."""
    fam = check_star_family(F, S)
    if not (fam["all_stars"] and fam["standard"]
            and fam["contains_inverse_of_smalls"]):
        raise HypothesisFailure("F is not friendly: %r" % (fam["witnesses"],))
    for el in t_prime(S):
        if any(x.is_degenerate for x in el):
            continue
        if el not in F:
            raise HypothesisFailure("T' is not contained in F: %r" % (sorted(el),))


def _maximal_step(S, F, ts):
    """The essential step of Theorem 1.3 for the refinement driver: a
    near-maximal star sp above the node's star sigma, then a maximal star
    spp in the tangle above sp.  It adds sp's proper members and spp."""

    def step(sigma, P):
        # near_max_star checks that every member of sigma is good
        sp = near_max_star(sigma, P, tangles=ts)
        spp = maximal_star_above(sp, P)
        # near-maximality puts every node between the two stars into F directly;
        # nodes home to a tangle and the sigma leaves bounding the tree are exempt
        cap = frozenset(s for s in sp if not s.is_small and not s.is_degenerate) | spp
        leaf_allowed = {frozenset({s.inv}) for s in sigma}
        for node in nodes(NestedSet(S, cap)):
            if node in leaf_allowed or any(all(x in Q for x in node) for Q in ts):
                continue
            if node not in F:
                raise VerificationFailed(
                    "cap node %r escaped F despite near-maximality" % (sorted(node),))
        return spp, cap

    return step


def refine_essential_abstract(sigma, P, F, tangles):
    """S-tree refining the essential star sigma up to a maximal star in P.

    The tree lies over F plus the maximal cap star plus the singleton
    inverses of sigma's members, each of which appears as a leaf separation.
    """
    S = P.system
    sigma = check_star(sigma)
    _require_friendly(S, F)
    ts = list(tangles)
    owners = [Q for Q in ts if all(s in Q for s in sigma)]
    if len(owners) != 1 or owners[0] != P:
        raise HypothesisFailure("sigma must be home to exactly the given tangle")
    leaves = {frozenset({s.inv}) for s in sigma}
    _, tree, _ = _refine(S, F, NestedSet(S, sigma), ts, _maximal_step(S, F, ts),
                         keep=leaves)
    leaf = set(tree.leaf_separations())
    for s in sigma:
        if s not in leaf:
            raise VerificationFailed("%r is not a leaf separation" % (s,))
    return tree


def theorem_1_3(S, F, N_tilde, tangles=None):
    """Refine N_tilde so inessential nodes lie in F and essential nodes are
    maximal stars in their tangles; requires a distributive universe.

    The essential step is `_maximal_step`.  Returns N.
    """
    if isinstance(S.ground, Universe) and not require_lattice(S.ground)["distributive"]:
        raise NonDistributive("the refinement theorem needs a distributive universe")
    ts = list(f_tangles(S, F) if tangles is None else tangles)
    _premise(N_tilde, ts, lambda s: is_good(s, ts)[0])
    if ts:
        _require_friendly(S, F)
    N, tree, homes = _refine(S, F, N_tilde, ts, _maximal_step(S, F, ts))
    # _maximal_step listed the stars of every home P, so the cap holds here
    for node, P in zip(tree.stars, homes):
        if P is None:
            continue
        ok, w = is_maximal_star(node, P)
        if not ok:
            raise VerificationFailed(
                "essential node %r is exceeded by %r" % (sorted(node), sorted(w)))
    return N


# ---------------------------------------------------------------- generators


def random_distributive_universe(seed, ground=6, generators=3, max_elements=40):
    """Complement-closed sublattice of a powerset; distributive by construction.

    Elements are subsets of the ground set with complement as involution and
    union/intersection as join/meet; closure keeps complements by De Morgan.
    """
    rng = random.Random(seed)
    full = frozenset(range(ground))
    for attempt in range(100):
        fam = {frozenset(), full}
        for _ in range(generators):
            X = frozenset(v for v in range(ground) if rng.random() < 0.5)
            fam.add(X)
            fam.add(full - X)
        changed = True
        while changed and len(fam) <= max_elements:
            changed = False
            for X, Y in combinations(sorted(fam, key=sorted), 2):
                for Z in (X | Y, X & Y):
                    if Z not in fam:
                        fam.add(Z)
                        fam.add(full - Z)
                        changed = True
        if len(fam) <= max_elements:
            break
    else:
        raise TooLarge("no closure within %d elements" % max_elements)
    return _subset_universe(sorted(fam, key=lambda X: (len(X), sorted(X))), full)


def _subset_universe(sets, full):
    names = {X: "e%02d" % i for i, X in enumerate(sets)}
    leq = [(names[X], names[Y]) for X in sets for Y in sets if X <= Y]
    inv = {names[X]: names[full - X] for X in sets}
    meet = {(names[X], names[Y]): names[X & Y] for X in sets for Y in sets}
    join = {(names[X], names[Y]): names[X | Y] for X in sets for Y in sets}
    return Universe.from_tables([names[X] for X in sets], leq, inv, meet, join)
