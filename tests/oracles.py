"""Reference implementations that only the tests need."""

from itertools import combinations


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
