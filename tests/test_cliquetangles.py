"""Clique-cover reduction: oracle checks against direct enumeration."""

import json
import os

import pytest

from oracles import reference_cover_triple
from tangletree import cliquetangles
from tangletree.cliquetangles import BaseTangle, CliqueCover
from tangletree.errors import NotACover
from tangletree.examples import (five_cliques_with_hub, satellite_cliques,
                                 shared_pair_cliques)
from tangletree.graphs import glue_cliques, mask_bits
from tangletree.seps import canonical, enumerate_separations, separation
from tangletree.tangles import CoverFamily, _backtrack_orientations, f_tangles

DATA = os.path.join(os.path.dirname(__file__), "..", "data",
                    "scaled_example.json")

SMALL_COVERS = [([[0, 1, 2, 3], [2, 3, 4, 5, 6]], 3),
                ([[0, 1, 2, 3, 4], [3, 4, 5, 6, 7], [0, 1, 7, 8]], 3)]


def _shared_pair_cover():
    blocks = [frozenset(range(6))]
    n = 6
    for i in range(3):
        blocks.append(frozenset([2 * i, 2 * i + 1] + list(range(n, n + 4))))
        n += 4
    return CliqueCover(shared_pair_cliques(6, 3), blocks, 3)


def _satellite_cover():
    cliques = [frozenset(range(6)), frozenset(range(8, 14)),
               frozenset(range(16, 22)), frozenset(range(24, 30))]
    for i in range(3):
        a, b = 6 + 8 * i, 7 + 8 * i
        sat = list(range(8 + 8 * i, 14 + 8 * i))
        cliques += [frozenset({2 * i, a}), frozenset({a, sat[0]}),
                    frozenset({2 * i + 1, b}), frozenset({b, sat[1]})]
    return CliqueCover(satellite_cliques(6, 3), cliques, 3)


def _five_hub_cover():
    G, cliques, k, _, _ = five_cliques_with_hub()
    return CliqueCover(G, cliques, k)


def _base_oracle(cov, S):
    """Base patterns via direct enumeration: proper separations whose strict
    sides are unions of cover cliques."""
    out = set()
    for s in S.unoriented():
        if s.is_small or s.is_cosmall or s.is_degenerate:
            continue
        try:
            out.add(canonical(cov.base_of(s)))
        except Exception:
            continue
    return out


def test_cover_validation():
    G = glue_cliques([[0, 1, 2], [2, 3, 4]])
    with pytest.raises(NotACover):
        CliqueCover(G, [[0, 1, 2]], 2)           # misses vertices
    with pytest.raises(NotACover):
        CliqueCover(G, [[0, 1, 2], [3, 4], [0, 3]], 2)   # {0,3} not an edge


def test_reduction_matches_enumeration_small():
    for blocks, k in SMALL_COVERS:
        G = glue_cliques(blocks)
        cov = CliqueCover(G, blocks, k)
        S = enumerate_separations(G, k)
        bases = set(cov.base_separations())
        assert bases <= _base_oracle(cov, S)
        base_tangles = cov.tangles()
        direct = f_tangles(S, CoverFamily(G, k))
        assert len(base_tangles) == len(direct)
        # membership agreement on every proper separation
        matched = 0
        for O in direct:
            hits = [bt for bt in base_tangles
                    if all(s in bt for s in O
                           if not s.is_degenerate)]
            assert len(hits) == 1
            matched += 1
        assert matched == len(direct)


def test_reduction_on_shared_pair_cliques():
    cov = _shared_pair_cover()
    G = cov.G
    base_tangles = cov.tangles()
    S = enumerate_separations(G, 3, max_vertices=20)
    direct = f_tangles(S, CoverFamily(G, 3))
    assert len(base_tangles) == len(direct) == 4
    for O in direct:
        hits = [bt for bt in base_tangles
                if all(s in bt for s in O if not s.is_degenerate)]
        assert len(hits) == 1


def test_four_clique_graph_reduction():
    assert len(_satellite_cover().tangles()) == 4


def _check_scaled_example():
    frozen = json.load(open(DATA))
    G, cliques, k, right, hub = five_cliques_with_hub()
    assert k == frozen["k"] and G.n == frozen["n"]
    cov = CliqueCover(G, cliques, k)
    assert len(cov.base_separations()) == frozen["base_separations"]
    ts = cov.tangles()
    assert len(ts) == frozen["tangles"]
    tau = next(t for t in ts if any(right <= s.B for s in t.members()))
    census = cov.star_census(tau, ts)
    best = min(i for (_, i, _) in census)
    assert best == frozen["minimal_star"]["interior"]
    owners = {o for (_, i, o) in census if i == best}
    assert owners == {frozen["minimal_star"]["owners"]}
    excl = min(i for (_, i, o) in census if o == 1)
    assert excl == frozen["minimal_exclusive_star"]["interior"]
    assert excl > best


def test_scaled_example_matches_frozen_data():
    _check_scaled_example()


def test_scaled_example_within_small_cover_budget(monkeypatch):
    # every cover search on the five-hub graph stays far below 200 nodes
    monkeypatch.setattr(cliquetangles, "COVER_SEARCH_BUDGET", 200)
    _check_scaled_example()


def _assert_covering_triple(cov, members, witness):
    """witness is a covering set of at most three separations of order < k,
    each a padded copy of a member or small."""
    G = cov.G
    assert len(witness) <= 3
    for w in witness:
        separation(G, w.A, w.B)
        assert w.order < cov.k
        assert w.B == G.vertices or any(
            w.B == s.B and s.A <= w.A for s in members)
    assert frozenset().union(*(w.A for w in witness)) == G.vertices
    for e in G.edges:
        assert any(e <= w.A for w in witness)


COVERS = [_five_hub_cover, _satellite_cover, _shared_pair_cover,
          lambda: CliqueCover(glue_cliques(SMALL_COVERS[0][0]), *SMALL_COVERS[0]),
          lambda: CliqueCover(glue_cliques(SMALL_COVERS[1][0]), *SMALL_COVERS[1])]
COVER_IDS = ["five-hub", "satellite", "shared-pair", "small-0", "small-1"]


def _orientations(cov):
    """The base members of each consistent orientation of the base patterns,
    in the order `CliqueCover.tangles` reaches them."""
    S = cov.base_system()
    members = S.table().members

    def prune(bits, y):
        return any(cov._padded_inconsistent(members[y], members[c]) for c in mask_bits(bits))

    return [[members[i] for i in mask_bits(bits)]
            for bits in _backtrack_orientations(S, prune)]


@pytest.mark.parametrize("build", COVERS, ids=COVER_IDS)
def test_cover_triple_matches_reference(build):
    cov = build()
    for chosen in _orientations(cov):
        witness = cov.cover_triple(chosen)
        assert witness == reference_cover_triple(cov, chosen)
        if witness is not None:
            _assert_covering_triple(cov, chosen, witness)


@pytest.mark.parametrize("build", COVERS, ids=COVER_IDS)
def test_tangles_search_each_combination_once(build, monkeypatch):
    cov = build()
    calls = []
    search = CliqueCover._cover_search

    def counted(self, chosen, wilds):
        calls.append(tuple(chosen))
        return search(self, chosen, wilds)

    monkeypatch.setattr(CliqueCover, "_cover_search", counted)
    found = cov.tangles()
    shared = list(calls)
    del calls[:]
    unshared = [BaseTangle(cov, chosen) for chosen in _orientations(cov)
                if not cov.cover_triple(chosen)]
    # each combination an unshared cover_triple per orientation reaches is
    # searched once, and the tangles are the same, in the same order
    assert len(shared) == len(set(shared)) and set(shared) == set(calls)
    assert found == unshared
    if build is _five_hub_cover:
        assert (len(shared), len(calls)) == (115, 316)
