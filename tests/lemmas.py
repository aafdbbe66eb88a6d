"""Statements of the paper's lemmas that only the tests check, with the
examples and the artifact writers that only the tests use."""

from tangletree.errors import HypothesisFailure, TangletreeError, VerificationFailed
from tangletree.graphs import mask_bits, vertex_mask
from tangletree.io import _dump, _header, _sep_out
from tangletree.seps import nested
from tangletree.tangles import Orientation, check_star, closely_related, star_leq
from tangletree.universe import Universe, _profile_stars


def star_status(sigma, tangles):
    """The tangles that orient every member of the star sigma as sigma does:
    sigma is essential when there is one, exclusive when there is exactly one."""
    sigma = check_star(sigma)
    owners = [P for P in tangles if all(s in P for s in sigma)]
    return {
        "owners": owners,
        "essential": len(owners) >= 1,
        "exclusive": len(owners) == 1,
    }


def guarded_infimum(s, M, assignments):
    """r := s ^ meet(M); in S and closely related when the hypotheses hold.

    assignments maps each m in M to a profile containing s to which m is
    closely related.
    """
    for m in M:
        P = assignments.get(m)
        if P is None or s not in P or not closely_related(m, P)[0]:
            raise HypothesisFailure("m=%r lacks a valid profile assignment" % (m,))
    r = s
    for m in sorted(M, key=lambda x: x.sort_key):
        r = r.meet(m)
    return r


# ------------------------------------------------------------------ shifting


class EmulationFailure(TangletreeError):
    pass


class OutOfDomain(TangletreeError):
    pass


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


# ------------------------------------------------------- closeness machinery


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


def closeness_repair(rho, pivot, tau):
    """sigma'' := {(A,B)} u {(C n B, D u A)}: the repair star for pivot (A,B)."""
    out = {pivot}
    for other in rho:
        if other != pivot:
            out.add(other.meet(pivot.inv))
    out = frozenset(out)
    check_star(out)
    return out


# -------------------------------------------------------------------- blocks


def block_orientation(b, S):
    """Orient every member of S toward b; defined when b is never split."""
    b = vertex_mask(b)
    chosen = set()
    for s in S.unoriented():
        if s.is_degenerate:
            chosen.add(s)
        elif not b & ~s.b:
            chosen.add(s)
        elif not b & ~s.a:
            chosen.add(s.inv)
        else:
            return None
    return Orientation(S, S.table().bits(chosen))


# ----------------------------------------------------------------- universes


def m3_universe():
    """Non-distributive five-element diamond with an order-reversing involution.

    Three incomparable self-inverse midpoints between a bottom and a top that
    swap under the involution; used for recorded (not asserted) experiments.
    """
    ids = ["bot", "a", "b", "c", "top"]
    leq = [["bot", x] for x in ids] + [[x, "top"] for x in ids]
    inv = {"bot": "top", "top": "bot", "a": "a", "b": "b", "c": "c"}
    meet, join = [], []
    for x in ids:
        for y in ids:
            if x == y:
                meet.append([x, y, x])
                join.append([x, y, x])
            elif x == "bot" or y == "bot":
                meet.append([x, y, "bot"])
                join.append([x, y, y if x == "bot" else x])
            elif x == "top" or y == "top":
                meet.append([x, y, y if x == "top" else x])
                join.append([x, y, "top"])
            else:  # two distinct midpoints
                meet.append([x, y, "bot"])
                join.append([x, y, "top"])
    return Universe.from_tables(ids, leq, inv, meet, join)


def lattice_of_sets(sets, names, inv, order=None):
    """The universe of a family of frozensets that is closed under
    intersection and holds their union, through Universe.from_tables:
    inclusion is the order, intersection the meet, and the least member
    holding both the join.  `names` and `inv` map each set to its name and
    to its inverse."""
    sets = list(sets)

    def join(X, Y):
        return min((Z for Z in sets if X | Y <= Z), key=len)

    return Universe.from_tables(
        [names[X] for X in sets],
        [[names[X], names[Y]] for X in sets for Y in sets if X < Y],
        {names[X]: names[inv[X]] for X in sets},
        [[names[X], names[Y], names[X & Y]] for X in sets for Y in sets],
        [[names[X], names[Y], names[join(X, Y)]] for X in sets for Y in sets],
        order=order)


def n5_universe():
    """The non-distributive pentagon bot < a < c < top, bot < b < top, with
    the order-reversing involution that swaps bot with top and a with c."""
    bot, a, c, b, top = (frozenset(x) for x in ((), (1,), (1, 2), (3,), (1, 2, 3)))
    names = {bot: "bot", a: "a", c: "c", b: "b", top: "top"}
    return lattice_of_sets(names, names, {bot: top, top: bot, a: c, c: a, b: b})


def max_and_closely_related_report(P):
    """Whether some maximal star in P is closely related to P (recorded data)."""
    members = P.system.table().members
    stars = [frozenset(members[i] for i in mask_bits(st)) for st in _profile_stars(P)]
    for st in sorted(stars, key=lambda st: (-len(st), sorted(s.sort_key for s in st))):
        if any(star_leq(st, tau) and not star_leq(tau, st) for tau in stars):
            continue
        if all(closely_related(s, P)[0] for s in st):
            return {"exists": True, "witness": st}
    return {"exists": False, "witness": None}


# ------------------------------------------------------------------- writers


def save_star_family(F, path, seed=None):
    obj = _header("star-family", seed)
    obj["tag"] = F.tag
    obj["stars"] = sorted(
        (sorted((_sep_out(s) for s in el)) for el in F.elements))
    return _dump(obj, path)


def save_abstract_system(S, path, seed=None):
    obj = _header("abstract-system", seed)
    obj["members"] = sorted(x.name for x in S)
    return _dump(obj, path)


def save_abstract_star_family(F, path, seed=None):
    obj = _header("abstract-star-family", seed)
    obj["tag"] = F.tag
    obj["stars"] = sorted(sorted(s.name for s in el) for el in F.elements)
    return _dump(obj, path)
