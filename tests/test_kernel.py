"""The mask kernel of graph separations against its frozenset definitions,
the registered members of S_k, value semantics and ground checks."""

import random

import pytest

from conftest import random_graph
from tangletree.errors import MismatchedGround
from tangletree.examples import bridged_cliques
from tangletree.graphs import Graph, cycle_graph, path_graph, vertex_mask
from tangletree.seps import (OrientedSeparation, compare, enumerate_separations,
                             separation)
from tangletree.tangles import profile_stand_in_family

# the element protocol on vertex sets, as it was defined before the masks


def ref_inv(s):
    return s.B, s.A


def ref_leq(r, s):
    return r.A <= s.A and s.B <= r.B


def ref_join(r, s):
    return r.A | s.A, r.B & s.B


def ref_meet(r, s):
    return r.A & s.A, r.B | s.B


def ref_order(s):
    return len(s.A & s.B)


def ref_sort_key(s):
    return (len(s.A & s.B), len(s.A), tuple(sorted(s.A)), tuple(sorted(s.B)))


SYSTEMS = ([(random_graph(seed, lo=5, hi=8), k) for seed in range(4) for k in (2, 3, 4)]
           + [(bridged_cliques(4), 3)])


@pytest.mark.parametrize("G,k", SYSTEMS)
def test_mask_protocol_matches_set_definitions(G, k):
    S = sorted(enumerate_separations(G, k), key=lambda s: s.sort_key)
    for s in S:
        assert (s.a, s.b) == (vertex_mask(s.A), vertex_mask(s.B))
        assert (s.inv.A, s.inv.B) == ref_inv(s)
        assert s.order == ref_order(s)
        assert s.is_small == (s.A <= s.B)
        assert s.is_cosmall == (s.B <= s.A)
        assert s.is_degenerate == (s.A == s.B)
        assert s.sort_key == ref_sort_key(s)
    for r in S:
        for s in S:
            assert r.leq(s) == ref_leq(r, s)
            j, m = r.join(s), r.meet(s)
            assert (j.A, j.B) == ref_join(r, s)
            assert (m.A, m.B) == ref_meet(r, s)
            assert j.order == ref_order(j) and j.sort_key == ref_sort_key(j)


@pytest.mark.parametrize("G,k", SYSTEMS)
def test_members_are_registered_once_and_paired(G, k):
    S = enumerate_separations(G, k)
    assert len(G.separations) == len(S)
    for s in S.oriented:
        assert G.separations[(s.a, s.b)] is s
        assert s.inv.inv is s
        assert OrientedSeparation(G, s.A, s.B) is s
        assert separation(G, s.A, s.B) is s
    for r in S.oriented:
        for s in S.oriented:
            for x in (r.join(s), r.meet(s)):
                if x in S:
                    assert x is G.separations[(x.a, x.b)]
                else:
                    assert (x.a, x.b) not in G.separations
    assert len(G.separations) == len(S)


def test_fresh_separations_stay_unregistered():
    G = path_graph(5)
    S = enumerate_separations(G, 2)
    x = separation(G, {0, 1, 2}, {1, 2, 3, 4})      # order 2: not in S_2
    assert x not in S
    assert x.inv.A == x.B and x.inv.inv == x
    assert len(G.separations) == len(S)


def test_profile_family_registers_no_join():
    # the joins of p_s_family outside S_k must not grow the graph's table
    G = bridged_cliques(7)
    S = enumerate_separations(G, 3)
    profile_stand_in_family(S)
    assert len(G.separations) == len(S)


def test_equal_graphs_give_equal_separations():
    G1, G2 = bridged_cliques(4), bridged_cliques(4)
    assert G1 == G2 and G1 is not G2
    S1, S2 = enumerate_separations(G1, 3), enumerate_separations(G2, 3)
    assert S1.oriented == S2.oriented
    by_masks = {(s.a, s.b): s for s in S2.oriented}
    for s in S1.oriented:
        t = by_masks[(s.a, s.b)]
        assert s is not t and s == t and hash(s) == hash(t)
        assert s.leq(t) and s.join(t) == s and s.meet(t.inv).order == s.order
        assert compare(s, t) == "equal"


def test_operations_across_graphs_raise_mismatched_ground():
    P, C = path_graph(4), cycle_graph(4)
    r = separation(P, {0, 1}, {1, 2, 3})
    s = separation(C, {0, 1, 2}, {2, 3, 0})
    for op in (r.leq, r.join, r.meet, s.leq, s.join, s.meet):
        other = s if op.__self__ is r else r
        with pytest.raises(MismatchedGround):
            op(other)
    with pytest.raises(MismatchedGround):
        compare(r, s)
    # a registered member against a fresh separation of another graph
    m = next(iter(enumerate_separations(P, 2)))
    with pytest.raises(MismatchedGround):
        m.leq(s)


def _set_components(G, removed):
    """Components of G - removed by flooding vertex sets over the edge list."""
    seen, comps = set(removed), []
    for start in range(G.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for e in G.edges:
                if v in e:
                    (w,) = e - {v}
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
        comps.append(frozenset(comp))
    return comps


def test_components_on_masks_match_set_flood():
    rng = random.Random(4)
    for seed in range(12):
        G = random_graph(seed, lo=4, hi=10)
        for _ in range(5):
            removed = frozenset(rng.sample(range(G.n), rng.randint(0, G.n)))
            assert G.components(removed) == _set_components(G, removed)
        for v in range(G.n):
            assert G.neighbors(v) == {w for e in G.edges if v in e for w in e} - {v}


def test_graph_equality_is_by_value():
    assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
    assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
