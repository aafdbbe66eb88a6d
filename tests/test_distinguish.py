"""Efficient-distinguisher nested sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from tangletree.distinguish import (DistinguisherTable,
                                    build_efficient_nested_set, verify_premise)
from tangletree.errors import NoTangles
from tangletree.examples import bridged_cliques, satellite_cliques
from tangletree.seps import enumerate_separations
from tangletree.tangles import CoverFamily, f_tangles


def test_no_tangles_raises():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    with pytest.raises(NoTangles):
        build_efficient_nested_set([], S)


def test_table_symmetric_access():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    table = DistinguisherTable(ts)
    assert table[(0, 1)] == table[(1, 0)]
    assert table[(0, 1)]["min_order"] == 1


def test_premise_on_twin_cliques():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    N = build_efficient_nested_set(ts, S)
    assert len(N) == 1
    rep = verify_premise(N, ts)
    assert rep["distinguishes_all"] and rep["each_member_efficient"]


def test_premise_on_four_clique_graph():
    G = satellite_cliques(6, 3)
    S = enumerate_separations(G, 3, max_vertices=32)
    ts = f_tangles(S, CoverFamily(G, 3))
    assert len(ts) == 4
    N = build_efficient_nested_set(ts, S)
    rep = verify_premise(N, ts)
    assert rep["distinguishes_all"] and rep["each_member_efficient"]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_premise_on_random_graphs(seed, k):
    G = random_graph(seed, lo=5, hi=9)
    S = enumerate_separations(G, k)
    ts = f_tangles(S, CoverFamily(G, k))
    if len(ts) < 2:
        return
    N = build_efficient_nested_set(ts, S)
    rep = verify_premise(N, ts)
    assert rep["distinguishes_all"] and rep["each_member_efficient"]
