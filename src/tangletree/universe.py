"""Finite universes of separations and the abstract refinement pipeline:
table-driven lattices and their check, narrow and near-maximal stars,
unscrambling, and Theorem 1.3 with its essential step by maximal stars."""

import random
import warnings
from itertools import chain, combinations

from .errors import (HypothesisFailure, NonDistributive, NotInSystem,
                     ParseError, StepBudgetExceeded, TooLarge,
                     VerificationFailed)
from .distinguish import DistinguisherTable, require_premise
from .graphs import mask_bits
from .refine import _refine
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
        U = self.universe
        if other.__class__ is not UniverseElement or other.universe is not U:
            self._check(other)
        return U._elems[U._join[self.i][other.i]]

    def meet(self, other):
        U = self.universe
        if other.__class__ is not UniverseElement or other.universe is not U:
            self._check(other)
        return U._elems[U._meet[self.i][other.i]]

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
    def _order_sets(members):
        """up and down of the elements `members` of one universe, as bitsets
        over their positions, read off the universe's up-sets `_up`."""
        U = members[0].universe
        pos = _positions(U, members)
        n = len(members)
        up, down = [0] * n, [0] * n
        for i, x in enumerate(members):
            for b in mask_bits(U._up[x.i]):
                j = pos[b]
                if j is not None:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        return up, down

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
            return pos[ujoin[ids[i]][ids[j]]]

        def meet(i, j):
            return pos[umeet[ids[i]][ids[j]]]

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
        """Table-driven universe, in the form of a universe file: `ids` lists
        the element names, `leq` holds an [a, b] row for each a <= b,
        `meet` and `join` hold [a, b, c] rows, and `inv` and `order` map
        names to names and to integers.  A missing (a, b) entry of meet or
        join is read from (b, a), and a later row for the same pair replaces
        an earlier one.

        Each row is checked and its names resolved to element numbers in
        one pass.  A malformed table, an unknown name, or a table that is
        not total is a ParseError.  Every entry names an element, so the
        universe is closed by construction.
        """
        if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
            raise ParseError("universe 'elements' must be a list of names")
        index = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        leq, meet, join = [(rows,) + _resolve(rows, key, width, index)
                           for key, rows, width in (("leq", leq, 2), ("meet", meet, 3),
                                                    ("join", join, 3))]
        if not isinstance(inv, dict) or not all(isinstance(v, str) for v in inv.values()):
            raise ParseError("universe 'inv' must map names to names")
        if order is not None and not (
                isinstance(order, dict)
                and all(type(v) is int for v in order.values())):
            raise ParseError("universe 'order' must map names to integers")
        if len(index) != n:
            raise ParseError("duplicate element ids")
        _unknown((v for a, b in inv.items() for v in (b, a)), index)
        inv_ids = [None] * n
        for a, b in inv.items():
            inv_ids[index[a]] = index[b]
        if None in inv_ids:
            raise ParseError("involution table is not total")
        rows, flat, unknown = leq
        if unknown:
            _unknown(chain.from_iterable(rows), index)
        up = [1 << i for i in range(n)]
        pairs = iter(flat)
        for i, j in zip(pairs, pairs):
            up[i] |= 1 << j
        meet = _total_table(*meet, index, "meet")
        join = _total_table(*join, index, "join")
        if order is not None:
            try:
                order = [int(order[v]) for v in ids]
            except KeyError as e:
                raise ParseError("order map is not total: missing %r" % (e.args[0],))
        return cls._build(ids, index, inv_ids, up, meet, join, order)

    @classmethod
    def _build(cls, ids, index, inv, up, meet, join, order):
        """The universe of resolved tables: element i is named ids[i] (and
        index maps the names back), inv[i] is its inverse, the int up[i] its
        up-set (bit j set when i <= j), meet[i][j] and join[i][j] element
        numbers, and order a list of orders or None."""
        self = cls.__new__(cls)
        self.ids, self._index = ids, index
        self._inv, self._up, self._meet, self._join = inv, up, meet, join
        self._order = order
        elems = self._elems = [UniverseElement(self, i) for i in range(len(ids))]
        for x in elems:
            x.inv = elems[inv[x.i]]
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


def _resolve(rows, key, width, index):
    """(flat, unknown): the element numbers of one table's rows, flattened,
    and whether some row names an unknown element.  Such a row is left out;
    `_unknown` names the element once the checks that come first have
    passed.  A row that is not a list of `width` names is a ParseError at
    once.  A table of well-formed rows is resolved by one map over its
    names; only a table with a bad row is read row by row."""
    if not isinstance(rows, list):
        raise ParseError("universe table %r is missing or not a list" % (key,))
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        try:
            return list(map(index.__getitem__, chain.from_iterable(rows))), False
        except (KeyError, TypeError):
            pass
    flat, unknown = [], False
    for row in rows:
        if (not isinstance(row, list) or len(row) != width
                or not all(isinstance(v, str) for v in row)):
            raise ParseError("universe table %r needs rows of %d names, got %r"
                             % (key, width, row))
        if all(v in index for v in row):
            flat += [index[v] for v in row]
        else:
            unknown = True
    return flat, unknown


def _unknown(names, index):
    """ParseError for the first of the names that names no element."""
    for v in names:
        if v not in index:
            raise ParseError("unknown element id %r" % (v,))


def _total_table(rows, flat, unknown, index, what):
    """n x n list of element numbers from a table's rows as `_resolve` read
    them; a missing (i, j) entry is read from (j, i).  An unknown name is
    reported from the rows the table keeps, pair by pair in the order of
    each pair's first row, the result c before a and b."""
    if unknown:
        kept = {tuple(row[:2]): row for row in rows}.values()
        _unknown((v for a, b, c in kept for v in (c, a, b)), index)
    n = len(index)
    out = [[None] * n for _ in range(n)]
    triples = iter(flat)
    for i, j, k in zip(triples, triples, triples):
        out[i][j] = k
    for i, row in enumerate(out):
        if None not in row:
            continue
        for j in range(n):
            if row[j] is None:
                if out[j][i] is None:
                    raise ParseError("%s table is not total" % what)
                row[j] = out[j][i]
    return out


class AbstractSystem(SeparationSystem):
    """Involution-closed subset of a universe."""

    __slots__ = ()

    def __init__(self, universe, members):
        members = frozenset(members)
        for s in members:
            if s not in universe:
                raise NotInSystem("%r is not an element of the universe" % (s,))
        super().__init__(universe, members)


# ---------------------------------------------------------------- checking


def check_universe(U):
    """Exhaustive lattice / involution / distributivity report with witnesses.

    Reads the universe's own tables with no element call, renumbered in
    `sort_key` order, and holds the order as bitsets: up[r] has bit t when
    r <= t, down[r] when t <= r.  Each witness is the first failure in
    position order over elements r, then pairs r < s, then pairs (r, s),
    then triples (r, s, t).  The lattice axioms take O(n^2) bitset
    operations: for each pair (r, s), one mask per axiom holds the t that
    break transitivity (up[s] & ~up[r], when r <= s), the least join
    (up[r] & up[s] & ~up[r v s]) and the greatest meet
    (down[r] & down[s] & ~down[r ^ s]); the witness is the lowest t of
    their union.

    Distributivity, once the lattice axioms hold, is Birkhoff's test
    (G. Birkhoff, "Rings of sets", Duke Math. J. 3, 1937).  Let J(x) be the
    set of join-irreducible elements below x, those whose strict down-set
    is nonempty and has a maximum.  A finite lattice is distributive iff
    J(x v y) = J(x) | J(y) for all x, y.  If it is distributive, a
    join-irreducible j <= x v y is (j ^ x) v (j ^ y), so j <= x or j <= y.
    Conversely, J(x ^ y) = J(x) & J(y) always holds and x is the join of
    J(x), so x -> J(x) embeds the lattice into a lattice of sets, which is
    distributive.  Nothing is sampled: the test proves the answer in
    O(n^2) bitset operations.  Only when it fails, or the lattice axioms
    do, are the triples (r, s, t) scanned for the first that breaks
    r ^ (s v t) = (r ^ s) v (r ^ t) or r v (s ^ t) = (r v s) ^ (r v t).
    """
    elems = U._elements
    n = len(elems)
    ids = [x.i for x in elems]
    if ids == list(range(n)):
        inv, up, join, meet = U._inv, U._up, U._join, U._meet
    else:
        pos = _positions(U, elems)
        inv = [pos[U._inv[i]] for i in ids]
        up = [sum(1 << pos[j] for j in mask_bits(U._up[i])) for i in ids]
        join = [[pos[U._join[i][j]] for j in ids] for i in ids]
        meet = [[pos[U._meet[i][j]] for j in ids] for i in ids]
    down = [0] * n
    for r in range(n):
        for t in mask_bits(up[r]):
            down[t] |= 1 << r
    # key -> (the failure's place in the scan order above, witness name, positions)
    found = {}

    def flag(key, when, name, *w):
        if key not in found:
            found[key] = (when, name, w)

    for r in range(n):
        if not up[r] >> r & 1:
            flag("lattice", (1, r, 0), "not-reflexive", r)
        if inv[inv[r]] != r:
            flag("involution_order_reversing", (1, r, 1), "not-involutive", r)
    if "lattice" not in found:
        for r in range(n):
            twins = up[r] & down[r] >> r + 1 << r + 1
            if twins:
                flag("lattice", (2, r), "not-antisymmetric", r, _low(twins))
                break
    for r in range(n):
        ur, dr, jr, mr, ir = up[r], down[r], join[r], meet[r], inv[r]
        if "lattice" not in found:
            for s in range(n):
                j, m = jr[s], mr[s]
                if not ur >> j & up[s] >> j & dr >> m & down[s] >> m & 1:
                    flag("lattice", (3, r, s, 0), "not-a-bound", r, s)
                    break
        if "involution_order_reversing" not in found:
            for s in mask_bits(ur):
                if not up[inv[s]] >> ir & 1:
                    flag("involution_order_reversing", (3, r, s, 1), "order-reversal", r, s)
                    break
    if "lattice" not in found:
        for r in range(n):
            ur, dr, jr, mr = up[r], down[r], join[r], meet[r]
            for s in range(n):
                us = up[s]
                trans = us & ~ur if ur >> s & 1 else 0
                unjoined = ur & us & ~up[jr[s]]
                bad = trans | unjoined | (dr & down[s] & ~down[mr[s]])
                if bad:
                    t = _low(bad)
                    name = ("not-transitive" if trans >> t & 1 else
                            "join-not-least" if unjoined >> t & 1 else "meet-not-greatest")
                    flag("lattice", (4, r, s, t, 0), name, r, s, t)
                    break
            if "lattice" in found:
                break
    lattice = "lattice" not in found
    if not lattice or not _birkhoff(down, join):
        triple = _non_distributive_triple(join, meet)
        if triple is not None:
            name, r, s, t = triple
            flag("distributive", (4, r, s, t, 1), name, r, s, t)
        elif lattice:
            raise VerificationFailed("Birkhoff's test and the triple scan disagree")
    report = {"lattice": lattice,
              "involution_order_reversing": "involution_order_reversing" not in found,
              "distributive": "distributive" not in found, "witnesses": {}}
    for _, name, w in sorted(found.values(), key=lambda f: f[0]):
        w = tuple(elems[i] for i in w)
        report["witnesses"][name] = w[0] if len(w) == 1 else w
    return report


def _low(mask):
    """Position of the lowest set bit of a nonzero int."""
    return (mask & -mask).bit_length() - 1


def _birkhoff(down, join):
    """Whether J(r v s) = J(r) | J(s) for all r < s, where J(x) is the set
    of join-irreducibles below x; the join table must be a lattice's."""
    n = len(down)
    irr = 0
    for x in range(n):
        below = down[x] & ~(1 << x)
        if below:
            inner = 0
            for m in mask_bits(below):
                inner |= down[m] & ~(1 << m)
            # the maximal elements of the strict down-set; one is its maximum
            if (below & ~inner).bit_count() == 1:
                irr |= 1 << x
    J = [d & irr for d in down]
    for r in range(n):
        Jr = J[r]
        if any(J[j] != Jr | Js for j, Js in zip(join[r][r + 1:], J[r + 1:])):
            return False
    return True


def _non_distributive_triple(join, meet):
    """(name, r, s, t) for the first triple in position order that breaks
    r ^ (s v t) = (r ^ s) v (r ^ t) ("meet-over-join") or
    r v (s ^ t) = (r v s) ^ (r v t) ("join-over-meet"), or None.  Each pair
    (r, s) compares both sides over every t as two rows of the tables."""
    n = len(join)
    for r in range(n):
        jr, mr = join[r], meet[r]
        for s in range(n):
            mj = list(map(mr.__getitem__, join[s]))
            jm_m = list(map(join[mr[s]].__getitem__, mr))
            jm = list(map(jr.__getitem__, meet[s]))
            mj_j = list(map(meet[jr[s]].__getitem__, jr))
            if mj != jm_m or jm != mj_j:
                t = next(t for t in range(n) if mj[t] != jm_m[t] or jm[t] != mj_j[t])
                return ("meet-over-join" if mj[t] != jm_m[t] else "join-over-meet"), r, s, t
    return None


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


def _maximal(T, elems):
    """The maximal elements among the members elems of T's system, in
    `sort_key` order: i is maximal when no other of them lies in up[i]."""
    ids = T.bits(elems)
    return [T.members[i] for i in mask_bits(ids) if T.up[i] & ids == 1 << i]


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
    T = P.system.table()
    R = _maximal(T, part)
    for r in R:
        if not closely_related(r, P)[0]:
            raise VerificationFailed("a maximal separation of P_sigma is not "
                                     "closely related to P")
    if not star_profile_status(R, P)["narrow"]:
        raise VerificationFailed("the maximal separations of P_sigma are not narrow")
    Rp = unscramble_set(R, sigma, P)
    sp = _maximal(T, Rp)
    while True:
        viol = [x for x in part if sum(1 for s in sp if s.leq(x)) >= 2]
        if not viol:
            break
        x = _maximal(T, viol)[0]
        if not closely_related(x, P)[0]:
            raise VerificationFailed("shrink pivot is not closely related to P")
        R2 = [s for s in sp if not s.leq(x)] + [x]
        if len(R2) >= len(sp):
            raise VerificationFailed("near-maximality loop failed to shrink the star")
        sp = _maximal(T, unscramble_set(R2, sigma, P))
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


def theorem_1_3(S, F, N_tilde, tangles=None):
    """Refine N_tilde so inessential nodes lie in F and essential nodes are
    maximal stars in their tangles; requires a distributive universe.

    The essential step is `_maximal_step`.  Returns N.
    """
    if isinstance(S.ground, Universe) and not require_lattice(S.ground)["distributive"]:
        raise NonDistributive("the refinement theorem needs a distributive universe")
    table = DistinguisherTable.of(f_tangles(S, F) if tangles is None else tangles)
    ts = table.tangles
    require_premise(N_tilde, table, lambda s: is_good(s, ts)[0])
    if ts:
        _require_friendly(S, F)
    return _refine(S, F, N_tilde, ts, _maximal_step(S, F, ts))[0]


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
    """The universe of a family of subsets of `full`, closed under complement,
    union and intersection, with the i-th set named "eNN"."""
    num = {X: i for i, X in enumerate(sets)}
    ids = ["e%02d" % i for i in range(len(sets))]
    up = [sum(1 << j for j, Y in enumerate(sets) if X <= Y) for X in sets]
    meet = [[num[X & Y] for Y in sets] for X in sets]
    join = [[num[X | Y] for Y in sets] for X in sets]
    return Universe._build(ids, {v: i for i, v in enumerate(ids)},
                           [num[full - X] for X in sets], up, meet, join, None)
