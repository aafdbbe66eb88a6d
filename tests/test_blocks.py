"""k-blocks, separability and the decomposition audit."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from lemmas import block_orientation
from oracles import inseparable
from tangletree.blocks import (Block, _maximal_cliques, k_blocks, separable_star,
                               separated, tangle_correspondence, verify_theorem_4_8)
from tangletree.distinguish import build_efficient_nested_set
from tangletree.examples import bridged_cliques
from tangletree.graphs import Graph, complete_graph, path_graph
from tangletree.refine import theorem_1_2
from tangletree.seps import enumerate_separations
from tangletree.tangles import (is_profile, is_regular,
                                profile_stand_in_family, regular_profiles)
from tangletree.trees import NestedSet, TreeDecomposition


def test_inseparable():
    G = path_graph(5)
    # adjacent; one cut vertex suffices; no set of fewer than one vertex
    for a, b, k, apart in ((0, 1, 2, 0), (0, 4, 2, 1), (0, 4, 1, 0)):
        assert inseparable(G, a, b, k) is not apart
        assert separated(G, k)[a] >> b & 1 == apart


def test_k_blocks_match_the_vertex_cut_reference():
    """The separator sweep's relation and blocks equal the pairwise
    `min_vertex_cut_size` reference on random graphs, connected or not."""
    for n in range(2, 13):
        for k in range(1, 6):
            rng = random.Random(100 * n + k)
            p = rng.uniform(0.15, 0.6)
            G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            sep = separated(G, k)
            for a in range(n):
                for b in range(n):
                    assert (sep[a] >> b & 1 == 0) == inseparable(G, a, b, k), (n, k, a, b)
            ref = [U for U in _maximal_cliques(G.vertices,
                                               lambda a, b: inseparable(G, a, b, k))
                   if len(U) >= k]
            assert [blk.vertices for blk in k_blocks(G, k)] == ref


def test_k_blocks_complete_graph():
    G = complete_graph(4)
    for k in (1, 2, 3, 4):
        blocks = k_blocks(G, k)
        assert len(blocks) == 1
        assert blocks[0].vertices == G.vertices


def test_k_blocks_path_pairs():
    # adjacent pairs are 2-inseparable; any third vertex is cut off by one
    blocks = k_blocks(path_graph(5), 2)
    assert sorted(sorted(b.vertices) for b in blocks) == [
        [0, 1], [1, 2], [2, 3], [3, 4]]


def test_twin_clique_blocks_and_stars():
    G = bridged_cliques(7)
    blocks = k_blocks(G, 3)
    assert sorted(sorted(b.vertices) for b in blocks) == [
        list(range(7)), list(range(7, 14))]
    for b in blocks:
        assert b.separable
        assert b.star is not None
        assert all(s.order < 3 for s in b.star)
    # the star around {0,1} needs an order-2 member, too big for k = 2
    assert separable_star({0, 1}, G, 2) is None


def test_block_orientation_is_regular_profile():
    G = bridged_cliques(7)
    S = enumerate_separations(G, 3)
    for b in k_blocks(G, 3):
        O = block_orientation(b.vertices, S)
        assert O is not None
        assert is_profile(O)[0] and is_regular(O)[0]
        # the unique profile containing the block's star is the induced one
        owners = [P for P in regular_profiles(S)
                  if all(s in P for s in b.star)]
        assert owners == [O]


def test_tangle_correspondence_on_twin_cliques():
    G = bridged_cliques(7)
    S = enumerate_separations(G, 3)
    ts = regular_profiles(S)
    b = k_blocks(G, 3)[0]
    tau = block_orientation(b.vertices, S)
    rep = tangle_correspondence(b.vertices, tau, 3)
    assert rep["induces"] and rep["witnesses"] and rep["small_side_bound"]
    # a tiny set fails the correspondence
    bad = tangle_correspondence({0}, tau, 3)
    assert not (bad["induces"] and bad["witnesses"])


def _audit(G, k):
    S = enumerate_separations(G, k)
    ts = regular_profiles(S)
    if not ts:
        return None
    F = profile_stand_in_family(S)
    Nt = (build_efficient_nested_set(ts, S)
          if len(ts) > 1 else NestedSet(S, []))
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    return verify_theorem_4_8(G, k, TD, ts)


def test_audit_on_twin_cliques():
    rep = _audit(bridged_cliques(7), 3)
    assert rep["efficient"] and rep["big_parts"] and rep["blocks_are_parts"]
    big = [e for e in rep["parts"] if e["claimed"]]
    assert sorted(sorted(e["bag"]) for e in big) == [
        list(range(7)), list(range(7, 14))]


def test_audit_flags_tampered_decomposition():
    G = bridged_cliques(7)
    S = enumerate_separations(G, 3)
    ts = regular_profiles(S)
    # single-bag decomposition distinguishes nothing
    TD = TreeDecomposition(G, [G.vertices], [])
    rep = verify_theorem_4_8(G, 3, TD, ts)
    assert not rep["efficient"]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 12))
def test_audit_on_generated_graphs(seed):
    rep = _audit(random_graph(seed), 3)
    if rep is None:
        return
    assert rep["efficient"], rep["witnesses"]
    assert rep["big_parts"], rep["witnesses"]
    assert rep["blocks_are_parts"], rep["witnesses"]


def test_block_value_semantics():
    b1 = Block({0, 1}, 2, False, None)
    b2 = Block({1, 0}, 2, True, None)
    assert b1 == b2 and hash(b1) == hash(b2)
