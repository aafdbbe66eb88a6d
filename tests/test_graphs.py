"""Graph model and vertex-cut basics."""

import gc

import pytest

from oracles import induced_edges
from tangletree.examples import bridged_cliques
from tangletree.graphs import (Graph, complete_graph, cycle_graph,
                               glue_cliques, min_vertex_cut_size, path_graph)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_builders():
    assert len(complete_graph(5).edges) == 10
    assert len(path_graph(5).edges) == 4
    assert len(cycle_graph(5).edges) == 5
    G = glue_cliques([[0, 1, 2], [2, 3, 4]])
    assert len(G.edges) == 6
    assert G.neighbors(2) == {0, 1, 3, 4}


def test_components():
    G = path_graph(5)
    assert len(G.components()) == 1
    comps = G.components({2})
    assert sorted(sorted(c) for c in comps) == [[0, 1], [3, 4]]


def test_min_vertex_cut_exhaustive():
    assert min_vertex_cut_size(path_graph(5), 0, 4) == 1
    assert min_vertex_cut_size(cycle_graph(5), 0, 2) == 2
    with pytest.raises(ValueError):
        min_vertex_cut_size(complete_graph(4), 0, 1)


def test_min_vertex_cut_large_graph_matches_known_value():
    # 16 vertices, more than any oracle graph; the bridge pins the cut at 1
    G = bridged_cliques(8)
    assert min_vertex_cut_size(G, 0, 15) == 1
    assert min_vertex_cut_size(G, 0, 8) == 1


def test_vertex_cut_cache_keeps_no_graph_alive():
    # an 11-cycle with one chord: a graph no other test builds
    G = Graph(11, [(i, (i + 1) % 11) for i in range(11)] + [(0, 5)])
    key = (G.n, G.edges)
    assert min_vertex_cut_size(G, 1, 7) == 2
    del G
    gc.collect()
    assert not any(isinstance(o, Graph) and (o.n, o.edges) == key
                   for o in gc.get_objects())


def test_induced_edges():
    G = complete_graph(4)
    assert len(induced_edges(G, {0, 1, 2})) == 3
    assert induced_edges(G, {0}) == set()
