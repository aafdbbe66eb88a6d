"""Separation construction, lattice laws and enumeration oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from oracles import (brute_force_separations, is_submodular_system,
                     one_sided_separations)
from tangletree.errors import CrossingEdge, NotACover, NotInSystem, TooLarge
from tangletree.examples import bridged_cliques
from tangletree.graphs import complete_graph, cycle_graph, path_graph
from tangletree.seps import (canonical, classify, compare,
                             enumerate_separations, nested, separation)

SMALL_SYSTEMS = [
    (path_graph(4), 2), (cycle_graph(5), 2), (complete_graph(4), 3),
    (bridged_cliques(3), 3), (path_graph(6), 3),
]


def test_separation_validation():
    G = path_graph(4)
    s = separation(G, {0, 1}, {1, 2, 3})
    assert s.order == 1
    with pytest.raises(NotACover):
        separation(G, {0, 1}, {1, 2})
    with pytest.raises(CrossingEdge):
        separation(G, {0, 1}, {2, 3})


def test_lattice_ops_and_involution():
    G = path_graph(5)
    a = separation(G, {0, 1}, {1, 2, 3, 4})
    b = separation(G, {0, 1, 2}, {2, 3, 4})
    assert a.leq(b)
    assert a.join(b) == b and a.meet(b) == a
    assert b.inv.leq(a.inv)
    assert a.inv.inv == a
    assert compare(a, b) == "leq" and compare(b, a) == "geq"
    assert a.join(b) == b
    assert a.meet(b).inv == a.inv


def test_classify_flags():
    G = path_graph(4)
    S = enumerate_separations(G, 2)
    small = separation(G, set(), G.vertices)
    fl = classify(small, S)
    assert fl["small"] and not fl["proper"]
    assert fl["trivial"] and fl["witness"] is not None
    proper = separation(G, {0, 1}, {1, 2, 3})
    fl = classify(proper, S)
    assert fl["proper"] and not fl["trivial"]
    with pytest.raises(NotInSystem):
        classify(separation(G, {0, 1, 2}, {1, 2, 3}), S)   # order 2, not in S_2


@pytest.mark.parametrize("G,k", SMALL_SYSTEMS)
def test_enumeration_matches_subset_pair_sweep(G, k):
    fast = enumerate_separations(G, k)
    slow = brute_force_separations(G, k)
    assert fast.oriented == slow.oriented


@pytest.mark.parametrize("G,k", SMALL_SYSTEMS)
def test_enumeration_contains_one_sided_separations(G, k):
    assert one_sided_separations(G, k) <= enumerate_separations(G, k).oriented


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_enumeration_oracle_random_graphs(seed, k):
    G = random_graph(seed, lo=4, hi=7)
    fast = enumerate_separations(G, k)
    slow = brute_force_separations(G, k)
    assert fast.oriented == slow.oriented


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_sk_is_submodular(seed):
    G = random_graph(seed, lo=4, hi=7)
    assert is_submodular_system(enumerate_separations(G, 3))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_pairwise_relations(seed, data):
    G = random_graph(seed, lo=4, hi=6)
    S = sorted(enumerate_separations(G, 3), key=lambda s: s.sort_key)
    a = data.draw(st.sampled_from(S))
    b = data.draw(st.sampled_from(S))
    # nested is symmetric and invariant under reorientation
    assert nested(a, b) == nested(b, a) == nested(a.inv, b) == nested(a, b.inv)
    # corners bound the pair and De-Morgan holds for set separations
    assert a.meet(b).leq(a) and a.leq(a.join(b))
    assert a.join(b).inv == a.inv.meet(b.inv)
    assert canonical(a) == canonical(a.inv)


def test_caps_raise():
    with pytest.raises(TooLarge):
        enumerate_separations(complete_graph(6), 2, max_vertices=4)
    with pytest.raises(TooLarge):
        enumerate_separations(complete_graph(6), 2, max_system=3)
