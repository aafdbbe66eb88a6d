"""Build a nested set of efficient distinguishers for a set of tangles."""

from .errors import HypothesisFailure, NoTangles, VerificationFailed
from .seps import canonical, nested
from .tangles import distinguishers, distinguishes
from .trees import NestedSet


class DistinguisherTable:
    """A tangle set with, per tangle pair, the minimum distinguishing order
    and the efficient distinguishers; iterates over the tangles.  Raises
    VerificationFailed for a pair that nothing distinguishes, which only
    tangles of two different systems can be."""

    def __init__(self, tangles):
        self.tangles = list(tangles)
        self.table = {}
        n = len(self.tangles)
        for i in range(n):
            for j in range(i + 1, n):
                _, eff = distinguishers(self.tangles[i], self.tangles[j])
                if not eff:
                    raise VerificationFailed(
                        "tangles %d and %d are not distinguishable in S" % (i, j))
                self.table[(i, j)] = {"min_order": eff[0].order, "efficient": eff}

    @classmethod
    def of(cls, tangles):
        """tangles itself when it already is a table, else its table."""
        return tangles if isinstance(tangles, cls) else cls(tangles)

    def __iter__(self):
        return iter(self.tangles)

    def __len__(self):
        return len(self.tangles)

    def pairs(self):
        return sorted(self.table)

    def __getitem__(self, pair):
        i, j = pair
        if i > j:
            i, j = j, i
        return self.table[(i, j)]

    def efficient_pair(self, s):
        """The first pair (i, j) that s distinguishes at the pair's minimum
        order, or None."""
        for (i, j) in self.pairs():
            if (self.table[(i, j)]["min_order"] == s.order
                    and distinguishes(s, self.tangles[i], self.tangles[j])):
                return i, j
        return None


def _orient_into(t, P):
    """The orientation of t lying in P, or None."""
    if t in P:
        return t
    if t.inv in P:
        return t.inv
    return None


def build_efficient_nested_set(tangles, S):
    """Greedy uncrossing construction of a nested set N~ such that every
    tangle pair is distinguished and every member efficiently distinguishes
    some pair.  Pairs are processed by increasing minimum distinguishing
    order; crossing candidates are replaced by the corner s ^ t.inv with t
    oriented into both profiles, which keeps the order minimal and strictly
    lowers the crossing count.
    """
    table = DistinguisherTable.of(tangles)
    ts = table.tangles
    if not ts:
        raise NoTangles("no tangles to distinguish")
    order_pairs = sorted(table.pairs(), key=lambda p: (table[p]["min_order"], p))
    chosen = []
    budget = max(1, len(S)) ** 2
    for (i, j) in order_pairs:
        entry = table[(i, j)]
        P, Q = ts[i], ts[j]
        if any(distinguishes(t, P, Q) for t in chosen):
            continue
        s = entry["efficient"][0]
        if s not in P:
            s = s.inv
        steps = 0
        while True:
            crossing = [t for t in chosen if not nested(s, t)]
            if not crossing:
                break
            steps += 1
            if steps > budget:
                raise VerificationFailed("uncrossing did not terminate")
            t = min(crossing, key=lambda t: t.sort_key)
            ti = _orient_into(t, P)
            tj = _orient_into(t, Q)
            if ti is None or ti != tj:
                raise VerificationFailed("a chosen member already distinguishes the pair")
            before = len(crossing)
            s2 = s.meet(ti.inv)
            if s2.order > s.order or not (s2 in P and s2.inv in Q):
                raise VerificationFailed("corner replacement lost efficiency")
            s = s2
            after = sum(1 for t in chosen if not nested(s, t))
            if after >= before:
                raise VerificationFailed("corner replacement did not uncross")
        chosen.append(canonical(s))
    N = NestedSet(S, chosen)
    report = verify_premise(N, table)
    if not (report["distinguishes_all"] and report["each_member_efficient"]):
        raise VerificationFailed("post-hoc check failed: %r" % (report,))
    return N


def verify_premise(N, tangles, member_ok=None):
    """Premise of the refinement theorems for N and the given tangles: N
    distinguishes every pair, and member_ok holds for each member, by
    default that it efficiently distinguishes some pair.  With no tangles
    the members are not checked.  N is nested by construction."""
    table = DistinguisherTable.of(tangles)
    ts = table.tangles
    if member_ok is None:
        def member_ok(s):
            return table.efficient_pair(s) is not None
    report = {"distinguishes_all": True, "each_member_efficient": True,
              "witnesses": {}}
    for (i, j) in table.pairs():
        if not any(distinguishes(s, ts[i], ts[j]) for s in N):
            report["distinguishes_all"] = False
            report["witnesses"].setdefault("undistinguished", (i, j))
    if ts:
        for s in N:
            if not member_ok(s):
                report["each_member_efficient"] = False
                report["witnesses"].setdefault("inefficient", s)
    return report


def require_premise(N, tangles, member_ok=None):
    """verify_premise, raising HypothesisFailure at the first undistinguished
    pair, else at the first member that fails member_ok."""
    w = verify_premise(N, tangles, member_ok)["witnesses"]
    if "undistinguished" in w:
        raise HypothesisFailure(
            "premise fails: tangles %d and %d are not distinguished" % w["undistinguished"])
    if "inefficient" in w:
        raise HypothesisFailure("premise fails for the member %r" % (w["inefficient"],))
