"""Shifting, inessential refinement, minimal-interior stars and the pipeline."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from lemmas import (OutOfDomain, ShiftContext, closeness_repair,
                    min_order_extension, nested_replacement)
from oracles import enumerate_stars
from tangletree.distinguish import build_efficient_nested_set
from tangletree.errors import HypothesisFailure
from tangletree.examples import bridged_cliques
from tangletree.graphs import complete_graph, mask_bits, path_graph
from tangletree.refine import (exclusive_stars, min_interior_exclusive_star,
                               refine_inessential, theorem_1_2)
from tangletree.seps import enumerate_separations, separation
from tangletree.tangles import (CoverFamily, f_tangles, interior, is_star,
                                profile_stand_in_family, regular_profiles,
                                star_leq)
from tangletree.trees import NestedSet
from tangletree.universe import random_distributive_universe, t_tilde_star


def _twin_setup():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    return G, S, ts


def test_shift_context():
    G, S, ts = _twin_setup()
    r = separation(G, {0, 1, 2, 3}, {3, 4, 5, 6, 7})
    s = separation(G, {0, 1, 2, 3, 4}, {4, 5, 6, 7})
    ctx = ShiftContext(S, r, s)
    assert ctx.shift(r) == s
    x = separation(G, {0, 1, 2, 3}, {3, 4, 5, 6, 7})
    assert ctx.shift(x) == x.join(s)
    with pytest.raises(HypothesisFailure):
        ShiftContext(S, s, r)   # needs r <= s
    outside = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    if not ctx.in_domain(outside):
        with pytest.raises(OutOfDomain):
            ctx.shift(outside)


def test_table_stars_match_subset_oracle():
    from itertools import combinations
    G, S, ts = _twin_setup()
    U = random_distributive_universe(0).system()
    for S, P in ((S, ts[0]), (U, f_tangles(U, t_tilde_star(U))[0])):
        T = S.table()
        members = [T.members[i] for i in mask_bits(P.bits & T.proper)][:8]
        got = [frozenset(T.members[i] for i in mask_bits(st))
               for st in T.stars(T.bits(members))]
        assert got == list(enumerate_stars(members))
        want = set()
        for r in range(len(members) + 1):
            for c in combinations(members, r):
                if is_star(c):
                    want.add(frozenset(c))
        assert len(got) == len(want) and set(got) == want


def test_refine_inessential_certificate():
    from tangletree.trees import nodes
    G, S, ts = _twin_setup()
    u = separation(G, {0, 1, 2, 3}, {3, 4, 5, 6, 7})
    w = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    # the cover family takes the carving search, the explicit star family
    # the split search
    for F, tangles in ((CoverFamily(G, 3), ts),
                       (profile_stand_in_family(S), regular_profiles(S))):
        inessential = [st for st in nodes(NestedSet(S, [u, w]))
                       if not any(all(s in P for s in st) for P in tangles)]
        assert inessential
        for sigma in inessential:
            tree = refine_inessential(sigma, F, S, tangles)
            assert sigma <= set(tree.leaf_separations())
            for (i, j, x) in tree.edges:
                assert x in tree.stars[j] and x.inv in tree.stars[i]


def test_refine_inessential_rejects_essential_star():
    G, S, ts = _twin_setup()
    left = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    with pytest.raises(HypothesisFailure):
        refine_inessential(frozenset({left}), CoverFamily(G, 3), S, ts)


def test_min_interior_exclusive_star_is_brute_force_minimum():
    G, S, ts = _twin_setup()
    for tau in ts:
        best = min(len(interior(st, G))
                   for st, owners in exclusive_stars(tau, ts) if owners == 1)
        rho = min_interior_exclusive_star(tau, frozenset(), ts)
        assert len(interior(rho, G)) == best == 4


def test_min_interior_dominates_sigma():
    G, S, ts = _twin_setup()
    left = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    tau = next(t for t in ts if left in t)
    rho = min_interior_exclusive_star(tau, frozenset({left}), ts)
    assert star_leq({left}, rho)


def test_closeness_machinery():
    G, S, ts = _twin_setup()
    left = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    P = next(t for t in ts if left in t)
    assert min_order_extension(left, P) == left
    rho = nested_replacement(left, frozenset({left}), P)
    assert rho == left
    rep = closeness_repair(frozenset({left}), left, P)
    assert rep == frozenset({left})


def test_pipeline_on_twin_cliques():
    G, S, ts = _twin_setup()
    F = CoverFamily(G, 3)
    Nt = build_efficient_nested_set(ts, S)
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    assert set(Nt) <= set(N)
    bags = sorted(sorted(b) for b in TD.bags)
    assert [0, 1, 2, 3] in bags and [4, 5, 6, 7] in bags
    for b in TD.bags:
        assert len(b) <= 6 or set(b) in ({0, 1, 2, 3}, {4, 5, 6, 7})


def test_pipeline_premise_names_the_first_failure():
    G, S, ts = _twin_setup()
    F = CoverFamily(G, 3)
    with pytest.raises(HypothesisFailure,
                       match="premise fails: tangles 0 and 1 are not distinguished"):
        theorem_1_2(G, F, NestedSet(S, []), tangles=ts)
    extra = separation(G, {0, 1, 2, 3}, {0, 3, 4, 5, 6, 7})
    Nt = NestedSet(S, set(build_efficient_nested_set(ts, S)) | {extra})
    with pytest.raises(HypothesisFailure, match=re.escape(
            "premise fails for the member ({0,1,2,3},{0,3,4,5,6,7})")):
        theorem_1_2(G, F, Nt, tangles=ts)


def test_pipeline_checks_no_member_without_tangles():
    # with no tangle pair to distinguish, no member of N~ has to be efficient
    G = path_graph(6)
    S = enumerate_separations(G, 3)
    F = CoverFamily(G, 3)
    assert f_tangles(S, F) == []
    N, TD = theorem_1_2(G, F, NestedSet(S, [separation(G, {0, 1}, {1, 2, 3, 4, 5})]))
    assert (len(N), len(TD.bags)) == (11, 14)


def test_pipeline_trivial_k():
    G = complete_graph(3)
    S = enumerate_separations(G, 1)
    N, TD = theorem_1_2(G, CoverFamily(G, 1), NestedSet(S, []))
    assert len(TD.bags) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_pipeline_essential_bags_minimal_on_random_graphs(seed, k):
    G = random_graph(seed, lo=5, hi=9)
    S = enumerate_separations(G, k)
    F = CoverFamily(G, k)
    ts = f_tangles(S, F)
    if not ts:
        return
    Nt = (build_efficient_nested_set(ts, S)
          if len(ts) > 1 else NestedSet(S, []))
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    for i, bag in enumerate(TD.bags):
        star = TD.node_star(i)
        owners = [P for P in ts if all(s in P for s in star)]
        if not owners:
            continue
        best = min(len(interior(x, G))
                   for x, own in exclusive_stars(owners[0], ts) if own == 1)
        assert len(bag) == best
