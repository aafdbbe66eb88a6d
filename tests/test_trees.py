"""Nested sets, splitting stars, S-trees and tree-decompositions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from oracles import nodes_by_orientation
from tangletree import seps
from tangletree.blocks import verify_theorem_4_8
from tangletree.distinguish import build_efficient_nested_set
from tangletree.errors import Irregular, NotNested
from tangletree.examples import bridged_cliques, satellite_cliques
from tangletree.graphs import path_graph
from tangletree.seps import (OrientedSeparation, canonical, enumerate_separations,
                             nested, separation)
from tangletree.tangles import CoverFamily, f_tangles
from tangletree.trees import (NestedSet, TreeDecomposition, check_regular,
                              nodes, to_stree, to_tree_decomposition)
from tangletree.universe import (UniverseElement, random_distributive_universe,
                                 t_tilde_star, theorem_1_3)


def _random_nested_set(seed, k=3):
    """Greedy nested subset of the proper separations of a random graph."""
    import random
    rng = random.Random(seed)
    G = random_graph(seed, lo=5, hi=8)
    S = enumerate_separations(G, k)
    props = [s for s in S.unoriented()
             if not s.is_small and not s.is_cosmall and not s.is_degenerate]
    rng.shuffle(props)
    chosen = []
    for s in props:
        if all(nested(s, t) for t in chosen):
            chosen.append(s)
    N = NestedSet(S, chosen)
    try:
        check_regular(N)
    except Irregular:
        # drop members trivial within the set, largest-order first
        for drop in sorted(chosen, key=lambda s: -s.order):
            trimmed = [s for s in chosen if s != drop]
            try:
                check_regular(NestedSet(S, trimmed))
                chosen = trimmed
                return NestedSet(S, chosen)
            except Irregular:
                continue
        return None
    return N


def test_nested_set_rejects_crossing():
    from tangletree.graphs import cycle_graph
    G = cycle_graph(4)
    S = enumerate_separations(G, 3)
    a = separation(G, {0, 1, 2}, {0, 2, 3})
    b = separation(G, {1, 2, 3}, {0, 1, 3})
    with pytest.raises(NotNested):
        NestedSet(S, [a, b])
    N = NestedSet(S, [a, a.inv])
    assert len(N) == 1   # canonical members collapse orientations


def test_check_regular_rejections():
    G = path_graph(4)
    S = enumerate_separations(G, 2)
    small = separation(G, set(), G.vertices)
    with pytest.raises(Irregular):
        check_regular(NestedSet(S, [small]))


def test_nodes_empty_and_singleton():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    assert nodes(NestedSet(S, [])) == [frozenset()]
    a = separation(G, {0, 1, 2, 3}, {3, 4, 5, 6, 7})
    got = nodes(NestedSet(S, [a]))
    assert sorted(map(sorted, got)) == sorted(map(sorted, [{a}, {a.inv}]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_nodes_structural_matches_orientation(seed):
    N = _random_nested_set(seed)
    if N is None or not len(N):
        return
    assert nodes(N) == nodes_by_orientation(N)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_stree_round_trip(seed):
    N = _random_nested_set(seed)
    if N is None or not len(N):
        return
    T = to_stree(N)
    assert len(T.stars) == len(N) + 1
    assert {canonical(x) for x in T.alpha.values()} == set(N)
    # every oriented member sits in exactly one node
    for s in [x for t in N for x in (t, t.inv)]:
        assert sum(1 for star in T.stars if s in star) == 1


def test_tree_decomposition_from_nested_set():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    N = build_efficient_nested_set(ts, S)
    TD = to_tree_decomposition(N, G)
    ok, w = TD.is_valid()
    assert ok, w
    assert TD.adhesion() == 1
    assert verify_theorem_4_8(G, 3, TD, ts)["efficient"]


def test_td_validity_witnesses():
    G = path_graph(4)
    TD = TreeDecomposition(G, [{0, 1}, {2, 3}], [(0, 1)])
    ok, w = TD.is_valid()
    assert not ok and w[0] == "uncovered-edge"
    TD = TreeDecomposition(G, [{0, 1, 2}, {2, 3}, {0, 2, 3}], [(0, 1), (1, 2)])
    ok, w = TD.is_valid()
    assert not ok and w[0] == "disconnected-trace"
    G = path_graph(2)
    TD = TreeDecomposition(G, [{0, 1}, {0, 1}], [(0, 1), (1, 0)])
    assert TD.is_valid() == (False, ("not-a-tree", [(0, 1), (0, 1)]))
    TD = TreeDecomposition(G, [{0, 1}], [(0, 0)])
    assert TD.is_valid() == (False, ("not-a-tree", [(0, 0)]))


def test_nested_sets_read_the_table_and_make_no_element_comparison(monkeypatch):
    # the efficient nested set of a graph's three tangles and a universe's
    # refined nested set, with the splitting stars the element-wise
    # reference finds
    G = satellite_cliques(4, 2)
    S = enumerate_separations(G, 3)
    graph_N = build_efficient_nested_set(f_tangles(S, CoverFamily(G, 3)), S)
    S = random_distributive_universe(0).system()
    F = t_tilde_star(S)
    ts = f_tangles(S, F)
    universe_N = theorem_1_3(S, F, build_efficient_nested_set(ts, S), tangles=ts)
    cases = [(N, nodes_by_orientation(N)) for N in (graph_N, universe_N)]

    def forbidden(*args):
        raise AssertionError("element comparison")

    for cls in (OrientedSeparation, UniverseElement):
        monkeypatch.setattr(cls, "leq", forbidden)
    monkeypatch.setattr(seps, "compare", forbidden)
    for N, want in cases:
        assert len(N) > 1
        N = NestedSet(N.system, list(N))
        check_regular(N)
        assert nodes(N) == want
        assert len(to_stree(N).stars) == len(N) + 1
