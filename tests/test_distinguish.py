"""Efficient-distinguisher nested sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from tangletree import distinguish
from tangletree.distinguish import (DistinguisherTable,
                                    build_efficient_nested_set, verify_premise)
from tangletree.errors import NoTangles, VerificationFailed
from tangletree.examples import bridged_cliques, satellite_cliques
from tangletree.graphs import cycle_graph
from tangletree.seps import enumerate_separations, separation
from tangletree.tangles import (CoverFamily, Orientation, _backtrack_orientations,
                                f_tangles)


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


def test_table_rejects_a_pair_nothing_distinguishes():
    # only orientations of two different systems can agree on every member
    # one of them orients: here the k=3 orientation picks, wherever it can,
    # the member number that P sets in the k=2 table
    G = bridged_cliques(4)
    P = f_tangles(enumerate_separations(G, 2), CoverFamily(G, 2))[0]
    S3 = enumerate_separations(G, 3)
    T = S3.table()
    bits = 0
    for i in T.reps:
        j = T.inv[i]
        bits |= 1 << (j if P.bits >> j & 1 and not P.bits >> i & 1 else i)
    assert not P.bits & ~bits
    with pytest.raises(VerificationFailed, match="tangles 0 and 1 are not distinguishable"):
        DistinguisherTable([P, Orientation(S3, bits)])


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


def _cycle_orientations():
    """S_3 of the 6-cycle and its 32 consistent orientations, by bits."""
    S = enumerate_separations(cycle_graph(6), 3)
    T = S.table()
    found = _backtrack_orientations(S, lambda bits, y: bool(bits & T.up[T.inv[y]]))
    return S, [Orientation(S, bits) for bits in sorted(found)]


def test_corner_uncrossing_replaces_crossing_candidates(monkeypatch):
    # the efficient distinguisher of the last pair crosses the member
    # chosen before it, so the loop orients that member into both tangles
    # of the pair and takes one corner
    S, os_ = _cycle_orientations()
    assert len(os_) == 32
    calls = []
    orient = distinguish._orient_into
    monkeypatch.setattr(distinguish, "_orient_into",
                        lambda t, P: calls.append(t) or orient(t, P))
    N = build_efficient_nested_set([os_[8], os_[9], os_[13]], S)
    assert len(calls) == 2
    G = S.ground
    assert list(N) == [separation(G, {2, 3, 4}, {0, 1, 2, 4, 5}),
                       separation(G, {0, 1, 2, 5}, {2, 3, 4, 5})]


def test_corner_uncrossing_rejects_orientations_that_are_not_profiles():
    S, os_ = _cycle_orientations()
    with pytest.raises(VerificationFailed, match="corner replacement lost efficiency"):
        build_efficient_nested_set(os_, S)
