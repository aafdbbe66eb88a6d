"""Abstract universes: lattice checks, unscrambling, near-maximal stars and
the essential-node refinement."""

import random
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from lemmas import (lattice_of_sets, m3_universe, max_and_closely_related_report,
                    n5_universe)
from oracles import (check_universe_elementwise, elements_over, is_maximal_star,
                     reference_maximal)
from tangletree.distinguish import build_efficient_nested_set
from tangletree.errors import (HypothesisFailure, NonDistributive, NotInSystem,
                               ParseError)
from tangletree.examples import bridged_cliques
from tangletree.graphs import Graph
from tangletree.seps import enumerate_separations, nested
from tangletree.tangles import (CoverFamily, Orientation, StarFamily,
                                closely_related, f_tangles, is_profile,
                                star_leq)
from tangletree.trees import NestedSet, nodes
from tangletree.universe import (Universe, UniverseElement, _maximal, check_universe,
                                 maximal_star_above, near_max_star,
                                 profile_nested_part, random_distributive_universe,
                                 star_profile_status, t_prime, t_tilde_star, theorem_1_3,
                                 unscramble_pair, unscramble_set)


def _crossing_pairs(P):
    members = sorted(P, key=lambda s: s.sort_key)
    for r, s in combinations(members, 2):
        if not nested(r, s):
            yield r, s


# ------------------------------------------------------------------ checking


def test_check_universe_on_subset_lattices():
    for seed in range(4):
        u = random_distributive_universe(seed)
        rep = check_universe(u)
        assert rep["lattice"]
        assert rep["involution_order_reversing"]
        assert rep["distributive"]
        assert u.is_distributive()


def test_check_universe_flags_m3():
    rep = check_universe(m3_universe())
    assert rep["lattice"]
    assert rep["involution_order_reversing"]
    assert not rep["distributive"]
    assert ("meet-over-join" in rep["witnesses"]
            or "join-over-meet" in rep["witnesses"])


def test_check_universe_flags_n5():
    # like M3, a lattice with an order-reversing involution that is not
    # distributive: Birkhoff's test fails, and the triple scan names the
    # oracle's witness
    u = n5_universe()
    rep = check_universe(u)
    assert rep["lattice"] and rep["involution_order_reversing"]
    assert not rep["distributive"]
    assert set(rep["witnesses"]) <= {"meet-over-join", "join-over-meet"}
    assert rep == check_universe_elementwise(u)


@pytest.mark.parametrize("ground, generators, size", [(7, 4, 64), (8, 5, 128)])
def test_check_universe_matches_oracle_at_64_and_128_elements(ground, generators, size):
    # at 128 elements the names e100.. sort before e11, so sort_key order is
    # not the table's own
    u = random_distributive_universe(1, ground=ground, generators=generators,
                                     max_elements=size)
    assert len(u) == size
    rep = check_universe(u)
    assert rep["lattice"] and rep["distributive"]
    assert rep == check_universe_elementwise(u)


def test_check_universe_on_256_elements_takes_under_half_a_second():
    u = random_distributive_universe(0, ground=10, generators=6, max_elements=256)
    assert len(u) == 256
    took = []
    for _ in range(2):
        t0 = time.perf_counter()
        rep = check_universe(u)
        took.append(time.perf_counter() - t0)
    assert rep["lattice"] and rep["involution_order_reversing"] and rep["distributive"]
    assert min(took) < 0.5


def test_check_universe_matches_oracle_on_lattices_of_sets():
    # intersection-closed families are lattices, often not distributive; they
    # are listed in a shuffled order under random orders, so sort_key order
    # is not the table's own
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        ground = rng.randint(3, 5)
        fam = {frozenset(range(ground))}
        for _ in range(rng.randint(1, 6)):
            fam.add(frozenset(v for v in range(ground) if rng.random() < 0.5))
        while any(X & Y not in fam for X, Y in combinations(fam, 2)):
            fam |= {X & Y for X, Y in combinations(fam, 2)}
        sets = sorted(fam, key=sorted)
        rng.shuffle(sets)
        names = {X: "x%02d" % i for X, i in zip(sets, rng.sample(range(100), len(sets)))}
        u = lattice_of_sets(sets, names, {X: X for X in sets},
                            order={names[X]: rng.randrange(3) for X in sets})
        rep = check_universe(u)
        assert rep["lattice"]
        assert rep == check_universe_elementwise(u)
        seen.add(rep["distributive"])
    assert seen == {True, False}


def test_from_tables_validation():
    with pytest.raises(ParseError):
        Universe.from_tables(["a", "a"], [], {"a": "a"}, [], [])
    with pytest.raises(ParseError):
        Universe.from_tables(["a", "b"], [], {"a": "b"}, [], [])
    with pytest.raises(ParseError):
        Universe.from_tables(["a"], [], {"a": "a"}, [], [["a", "a", "a"]])


def _tables(elems, name=lambda x: x.name):
    """The name-keyed tables of elems, which are closed under inv, join and
    meet: meet and join map name pairs to names, so a test can edit them;
    `_from_tables` builds the universe."""
    elems = sorted(elems, key=lambda x: x.sort_key)
    leq = [(name(a), name(b)) for a in elems for b in elems if a.leq(b) and a != b]
    inv = {name(a): name(a.inv) for a in elems}
    meet = {(name(a), name(b)): name(a.meet(b)) for a in elems for b in elems}
    join = {(name(a), name(b)): name(a.join(b)) for a in elems for b in elems}
    return [name(a) for a in elems], leq, inv, meet, join


def _from_tables(ids, leq, inv, meet, join, **kw):
    """Universe.from_tables on the tables of `_tables`, meet and join as rows."""
    return Universe.from_tables(ids, [list(p) for p in leq], inv,
                                [[a, b, c] for (a, b), c in meet.items()],
                                [[a, b, c] for (a, b), c in join.items()], **kw)


def _separation_universe(G):
    """The separations of G of every order as a table universe: the i-th in
    sort_key order is named "sNNN" and keeps its order, so the universe lists
    them in the same order."""
    elems = sorted(enumerate_separations(G, G.n + 1).oriented, key=lambda s: s.sort_key)
    names = {s: "s%03d" % i for i, s in enumerate(elems)}
    return _from_tables(*_tables(elems, names.get),
                                order={names[s]: s.order for s in elems})


def test_bipartition_universe():
    # the bipartitions of a 3-set: the separations of the edgeless graph
    rep = check_universe(_separation_universe(Graph(3, [])))
    assert rep["lattice"] and rep["distributive"]


def test_graph_universe_matches_separations():
    G = bridged_cliques(2)
    S = enumerate_separations(G, G.n + 1)
    u = _separation_universe(G)
    assert [x.order for x in u] == sorted(s.order for s in S.oriented)
    rep = check_universe(u)
    assert rep["lattice"] and rep["involution_order_reversing"] and rep["distributive"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 200), st.sampled_from(["meet", "join", "inv", "leq"]),
       st.integers(0, 2 ** 32), st.integers(1, 3))
def test_check_universe_matches_elementwise_oracle(seed, table, rng_seed, edits):
    ids, leq, inv, meet, join = _tables(random_distributive_universe(seed))
    rng = random.Random(rng_seed)
    for _ in range(edits):
        a, b, c = rng.choice(ids), rng.choice(ids), rng.choice(ids)
        if table == "meet":
            meet[(a, b)] = c
        elif table == "join":
            join[(a, b)] = c
        elif table == "inv":
            inv[a] = b
        else:
            leq.append((a, b))
    u = _from_tables(ids, leq, inv, meet, join)
    assert check_universe(u) == check_universe_elementwise(u)


def test_check_universe_matches_oracle_on_m3_and_graph_tables():
    for u in (m3_universe(), _separation_universe(Graph(3, [])),
              _separation_universe(bridged_cliques(2))):
        assert check_universe(u) == check_universe_elementwise(u)


def test_check_universe_reads_the_tables(monkeypatch):
    universes = [m3_universe(), random_distributive_universe(5)]

    def forbidden(self, other):
        raise AssertionError("check_universe made an element call")

    for op in ("leq", "join", "meet"):
        monkeypatch.setattr(UniverseElement, op, forbidden)
    reports = [check_universe(u) for u in universes]
    monkeypatch.undo()
    assert reports == [check_universe_elementwise(u) for u in universes]


def test_table_elements_are_interned():
    u = random_distributive_universe(3)
    for x in u:
        assert x.inv is x.inv and x.inv.inv is x
        for y in u:
            assert any(z is x.join(y) for z in u._elems)
            assert any(z is x.meet(y) for z in u._elems)
    with pytest.raises(NotInSystem):
        next(iter(u)).leq(next(iter(random_distributive_universe(3))))


def test_theorem_1_3_names_a_failed_lattice_axiom():
    ids, leq, inv, meet, join = _tables(random_distributive_universe(4))
    inv["e00"] = "e01"
    u = _from_tables(ids, leq, inv, meet, join)
    S = u.system()
    with pytest.raises(HypothesisFailure, match="involution_order_reversing"):
        theorem_1_3(S, t_tilde_star(S), NestedSet(S, []))


# ------------------------------------------------------------------ families


def test_t_prime_inside_t_tilde_star():
    for seed in range(4):
        S = random_distributive_universe(seed).system()
        F = t_tilde_star(S)
        for el in t_prime(S):
            if any(x.is_degenerate for x in el):
                continue
            assert el in F.elements


def test_abstract_tangles_are_profiles():
    for seed in range(6):
        S = random_distributive_universe(seed).system()
        ts = f_tangles(S, t_tilde_star(S))
        assert len(ts) >= 1
        for O in ts:
            assert is_profile(O)[0]


# --------------------------------------------------------------- narrowness


def test_star_profile_status_empty_set():
    S = random_distributive_universe(1).system()
    ts = f_tangles(S, t_tilde_star(S))
    P = ts[0]
    rep = star_profile_status([], P)
    # with an empty join, narrow means every member of P is small
    assert rep["narrow"] == all(x.is_small for x in P)


def test_star_profile_status_requires_membership():
    S = random_distributive_universe(1).system()
    ts = f_tangles(S, t_tilde_star(S))
    P = ts[0]
    outside = next(x for x in S if x not in P)
    with pytest.raises(HypothesisFailure):
        star_profile_status([outside], P)


def test_cosmall_meet_algebra():
    """u ^ w is co-small whenever u, w are co-small with u >= w.inv, w >= u.inv."""
    for seed in range(4):
        u = random_distributive_universe(seed)
        elems = sorted(u, key=lambda x: x.sort_key)
        for a in elems:
            if not a.inv.leq(a):
                continue
            for b in elems:
                if not b.inv.leq(b):
                    continue
                if b.inv.leq(a) and a.inv.leq(b):
                    m = a.meet(b)
                    assert m.inv.leq(m), (a, b)


# ------------------------------------------------------------- unscrambling


def _profiles_with_crossings(seed):
    u = random_distributive_universe(seed)
    S = u.system()
    return u, S, f_tangles(S, t_tilde_star(S))


@pytest.mark.parametrize("seed", range(6))
def test_unscramble_pair_postconditions(seed):
    u, S, ts = _profiles_with_crossings(seed)
    for P in ts:
        for r, s in _crossing_pairs(P):
            if not (closely_related(r, P)[0] and closely_related(s, P)[0]):
                continue
            r2, s2 = unscramble_pair(r, s, frozenset(), P)
            assert nested(r2, s2)
            assert r2 in P and s2 in P
            assert closely_related(r2, P)[0] and closely_related(s2, P)[0]
            assert r.meet(s.inv).leq(r2) and r2.leq(r)
            # both distributive identities hold in a subset universe
            assert s2 == s.meet(r2.inv)
            assert r2 == r.meet(s2.inv)


@pytest.mark.parametrize("seed", range(6))
def test_unscramble_set_postconditions(seed):
    u, S, ts = _profiles_with_crossings(seed)
    for P in ts:
        R = [x for x in P if closely_related(x, P)[0]
             and not x.is_degenerate]
        narrow_before = star_profile_status(
            [x for x in R], P)["narrow"] if R else True
        out = unscramble_set(R, frozenset(), P)
        for a, b in combinations(out, 2):
            assert nested(a, b)
        for x in out:
            assert x in P and closely_related(x, P)[0]
        if narrow_before:
            assert star_profile_status(out, P)["narrow"]


def test_unscramble_pair_nested_inputs_unchanged():
    u, S, ts = _profiles_with_crossings(0)
    P = ts[0]
    members = sorted(P, key=lambda s: s.sort_key)
    r = members[0]
    assert unscramble_pair(r, r, frozenset(), P) == (r, r)


def test_unscramble_warns_without_distributivity():
    u = m3_universe()
    S = u.system()
    bot = u.element("bot")
    a, b, c = u.element("a"), u.element("b"), u.element("c")
    P = Orientation(S, S.table().bits({bot, a, b, c}))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        r2, s2 = unscramble_pair(a, b, frozenset(), P)
        assert any("non-distributive" in str(x.message) for x in w)
    assert nested(r2, s2)


# --------------------------------------------------------- near-maximal stars


@pytest.mark.parametrize("seed", range(8))
def test_near_max_star_certificates(seed):
    u, S, ts = _profiles_with_crossings(seed)
    for P in ts:
        sp = near_max_star(frozenset(), P)
        status = star_profile_status(sp, P)
        assert status["is_star"] and status["narrow"] and status["near_maximal"]
        for s in sp:
            assert closely_related(s, P)[0]


def test_maximal_reads_the_table():
    # on every profile of the 36 benchmark universes, and on parts of it
    checked = 0
    for seed in range(36):
        u, S, ts = _profiles_with_crossings(seed)
        T = S.table()
        for P in ts:
            members = list(P)
            for elems in (members, members[::2], members[1::3],
                          [x for x in members if not x.is_small], members[:1], []):
                assert _maximal(T, elems) == reference_maximal(elems)
                checked += 1
    assert checked >= 36 * 6


def test_near_max_star_above_sigma():
    # graph instance: k = 2 twin cliques, sigma = a bridge separation
    G = bridged_cliques(4)
    S = enumerate_separations(G, 2)
    Tk = CoverFamily(G, 2, stars_only=True)
    F = StarFamily(elements_over(Tk, S) | set(t_prime(S).elements),
                   tag="Tkstars+Tprime")
    ts = f_tangles(S, F)
    assert len(ts) == 2
    from tangletree.seps import separation
    left = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    P = next(t for t in ts if left in t)
    sp = near_max_star(frozenset({left}), P, tangles=ts)
    assert star_leq({left}, sp)
    status = star_profile_status(sp, P)
    assert status["narrow"] and status["near_maximal"]


def test_maximal_star_enumeration_agrees():
    checked = 0
    for seed in range(6):
        u, S, ts = _profiles_with_crossings(seed)
        for P in ts:
            sp = near_max_star(frozenset(), P)
            spp = maximal_star_above(sp, P)
            ok, wit = is_maximal_star(spp, P)
            assert ok, wit
            assert star_leq([s for s in sp if not s.is_small], spp)
            rep = max_and_closely_related_report(P)
            assert "exists" in rep and "witness" in rep
            checked += 1
    assert checked >= 3


# ------------------------------------------------------- essential refinement


def test_theorem_1_3_needs_distributivity():
    u = m3_universe()
    S = u.system()
    with pytest.raises(NonDistributive):
        theorem_1_3(S, t_tilde_star(S), NestedSet(S, []))


def _graph_instance_k2():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 2)
    Tk = CoverFamily(G, 2, stars_only=True)
    F = StarFamily(elements_over(Tk, S) | set(t_prime(S).elements),
                   tag="Tkstars+Tprime")
    ts = f_tangles(S, F)
    return G, S, F, ts


def test_theorem_1_3_on_twin_cliques():
    G, S, F, ts = _graph_instance_k2()
    assert len(ts) == 2
    Nt = build_efficient_nested_set(ts, S)
    N = theorem_1_3(S, F, Nt, tangles=ts)
    assert set(Nt) <= set(N)
    for node in nodes(N):
        owners = [P for P in ts if all(x in P for x in node)]
        if owners:
            ok, wit = is_maximal_star(node, owners[0])
            assert ok, wit
        else:
            assert node in F


@pytest.mark.parametrize("seed", range(6))
def test_theorem_1_3_on_table_universes(seed):
    u = random_distributive_universe(seed)
    S = u.system()
    F = t_tilde_star(S)
    ts = f_tangles(S, F)
    Nt = (build_efficient_nested_set(ts, S)
          if len(ts) > 1 else NestedSet(S, []))
    N = theorem_1_3(S, F, Nt, tangles=ts)
    assert set(Nt) <= set(N)
    homes = 0
    for node in nodes(N):
        owners = [P for P in ts if all(x in P for x in node)]
        homes += len(owners)
        assert len(owners) <= 1
    assert homes == len(ts)


def test_theorem_1_3_premise_needs_good_members():
    U = random_distributive_universe(0)
    S = U.system()
    F = t_tilde_star(S)
    ts = f_tangles(S, F)
    Nt = NestedSet(S, set(build_efficient_nested_set(ts, S)) | {U.element("e00")})
    with pytest.raises(HypothesisFailure, match="premise fails for the member e00"):
        theorem_1_3(S, F, Nt, tangles=ts)


def test_theorem_1_3_checks_the_family():
    G, S, F, ts = _graph_instance_k2()
    Nt = build_efficient_nested_set(ts, S)
    no_singletons = StarFamily({el for el in F.elements if len(el) != 1})
    with pytest.raises(HypothesisFailure, match="not friendly"):
        theorem_1_3(S, no_singletons, Nt, tangles=ts)
    no_t_prime = StarFamily(set(F.elements) - set(t_prime(S).elements))
    with pytest.raises(HypothesisFailure, match="T' is not contained"):
        theorem_1_3(S, no_t_prime, Nt, tangles=ts)


def test_profile_nested_part():
    u, S, ts = _profiles_with_crossings(0)
    P = ts[0]
    part = profile_nested_part(P, frozenset())
    assert part == list(P)


# --------------------------------------------------------------- generators


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_random_universe_reproducible(seed):
    a = random_distributive_universe(seed)
    b = random_distributive_universe(seed)
    assert [x.name for x in a] == [x.name for x in b]
    assert len(a) <= 40
