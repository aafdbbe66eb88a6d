"""Orientations, profiles, F-tangles and the goodness relation."""

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from lemmas import guarded_infimum, star_status
from oracles import brute_force_f_tangles
from tangletree.errors import Indistinct, NotAStar, NotInProfile
from tangletree.examples import bridged_cliques
from tangletree.graphs import complete_graph, cycle_graph, path_graph
from tangletree.seps import canonical, enumerate_separations, separation
from tangletree.tangles import (CoverFamily, Orientation, check_star,
                                check_star_family, closely_related,
                                distinguishers, distinguishes, f_tangles,
                                interior, is_consistent, is_good, is_profile,
                                is_regular, is_star, profile_stand_in_family,
                                regular_profiles, star_leq)


def _tangle_counts(G, k, expected):
    S = enumerate_separations(G, k)
    ts = f_tangles(S, CoverFamily(G, k))
    assert len(ts) == expected
    return S, ts


def test_known_tangle_counts():
    _tangle_counts(complete_graph(4), 3, 1)
    _tangle_counts(complete_graph(6), 3, 1)
    _tangle_counts(bridged_cliques(4), 3, 2)
    # one 2-tangle per edge of the path (its four 2-blocks)
    _tangle_counts(path_graph(5), 2, 4)


def test_search_leaves_the_recursion_limit_alone():
    # 52 non-degenerate members, each one level deeper in a recursive search
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    assert sum(1 for s in S.unoriented() if not s.is_degenerate) == 52
    old = sys.getrecursionlimit()
    limit = len(inspect.stack()) + 50
    sys.setrecursionlimit(limit)
    try:
        assert len(f_tangles(S, CoverFamily(G, 3))) == 2
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)


def test_tangles_are_regular_profiles():
    for G, k in [(complete_graph(4), 3), (bridged_cliques(4), 3),
                 (cycle_graph(6), 2)]:
        S = enumerate_separations(G, k)
        for O in f_tangles(S, CoverFamily(G, k)):
            assert is_profile(O)[0]
            assert is_regular(O)[0]
            assert is_consistent(O)[0]


@pytest.mark.parametrize("G,k", [
    (path_graph(4), 2), (cycle_graph(5), 2), (complete_graph(4), 3),
    (bridged_cliques(3), 2),
])
def test_backtracking_matches_brute_force_filter(G, k):
    S = enumerate_separations(G, k)
    for F in (CoverFamily(G, k), CoverFamily(G, k, stars_only=True),
              profile_stand_in_family(S)):
        fast = f_tangles(S, F)
        slow = brute_force_f_tangles(S, F)
        assert [O.bits for O in fast] == [O.bits for O in slow]


def test_orientation_validation():
    G = path_graph(4)
    S = enumerate_separations(G, 2)
    T = S.table()
    with pytest.raises(ValueError):
        Orientation(S, 0)
    reps = S.unoriented()
    O = Orientation(S, T.bits(reps))
    assert len(O) == len(reps)
    assert list(O) == reps
    s = next(s for s in reps if not s.is_degenerate)
    assert s in O and s.inv not in O
    assert separation(path_graph(5), {0, 1}, {1, 2, 3, 4}) not in O
    assert O == Orientation(S, T.bits(reps)) and len({O, Orientation(S, O.bits)}) == 1
    with pytest.raises(ValueError):
        Orientation(S, O.bits | 1 << T.index[s.inv])       # both sides of s
    with pytest.raises(ValueError):
        Orientation(S, O.bits | 1 << len(T.members))       # a bit past the table
    # K2 at k=3 holds the degenerate ({0,1},{0,1}), which every orientation holds
    S = enumerate_separations(complete_graph(2), 3)
    T = S.table()
    d = next(i for i, t in enumerate(T.inv) if i == t)
    assert Orientation(S, T.bits(S.unoriented())).bits >> d & 1
    with pytest.raises(ValueError):
        Orientation(S, T.bits(S.unoriented()) & ~(1 << d))


def test_star_predicates():
    G = bridged_cliques(4)
    a = separation(G, {0, 1, 2, 3}, {3, 4, 5, 6, 7})
    b = a.inv
    assert is_star({a})
    P = path_graph(4)
    s = separation(P, {0, 1}, {1, 2, 3})
    t = separation(P, {0, 1, 2}, {2, 3})
    assert not is_star({s, t})   # s <= t, so they do not point at each other
    with pytest.raises(NotAStar):
        check_star({s, t})
    assert interior({a}, G) == frozenset({3, 4, 5, 6, 7})
    assert star_leq({a}, {a})
    assert star_leq(frozenset(), {a})


def test_consistency_witness():
    G = path_graph(5)
    S = enumerate_separations(G, 2)
    a = separation(G, {0, 1}, {1, 2, 3, 4})
    b = separation(G, {0, 1, 2}, {2, 3, 4})
    # a < b, so holding both a.inv and b is the canonical inconsistency
    chosen = set()
    for rep in S.unoriented():
        if rep == canonical(a):
            chosen.add(a.inv)
        elif rep == canonical(b):
            chosen.add(b)
        else:
            chosen.add(rep)
    ok, wit = is_consistent(Orientation(S, S.table().bits(chosen)))
    assert not ok
    assert wit == (a.inv, b) or wit == (b.inv, a) or wit is not None


def test_closely_related_and_distinguishers():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    P, Q = ts[0], ts[1]
    alls, eff = distinguishers(P, Q)
    assert eff and all(s.order == eff[0].order for s in eff)
    for s in eff:
        assert distinguishes(s, P, Q)
    s = eff[0] if eff[0] in P else eff[0].inv
    assert closely_related(s, P)[0]
    with pytest.raises(NotInProfile):
        closely_related(s.inv, P)
    with pytest.raises(Indistinct):
        distinguishers(P, P)


def test_good_iff_efficient_on_regular_profiles():
    """A separation is good iff it efficiently distinguishes a profile pair."""
    for G in [bridged_cliques(4), random_graph(1, lo=6, hi=8),
              random_graph(3, lo=6, hi=8)]:
        S = enumerate_separations(G, 3)
        ts = regular_profiles(S)
        if len(ts) < 2:
            continue
        pairs = [(i, j) for i in range(len(ts)) for j in range(i + 1, len(ts))]
        mins = {}
        for (i, j) in pairs:
            _, eff = distinguishers(ts[i], ts[j])
            mins[(i, j)] = eff[0].order if eff else None
        for s in S.unoriented():
            if s.is_degenerate or s.is_small or s.is_cosmall:
                continue
            efficient = any(
                mins[(i, j)] is not None and s.order == mins[(i, j)]
                and distinguishes(s, ts[i], ts[j]) for (i, j) in pairs)
            assert is_good(s, ts)[0] == efficient, s


def test_star_status_and_guarded_infimum():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    left = separation(G, {4, 5, 6, 7}, {0, 1, 2, 3, 4})
    P = next(t for t in ts if left in t)
    status = star_status({left}, ts)
    assert status["essential"] and status["exclusive"]
    r = guarded_infimum(left, {left}, {left: P})
    assert r == left


def test_check_star_family_reports():
    G = bridged_cliques(3)
    S = enumerate_separations(G, 3)
    F = profile_stand_in_family(S)
    rep = check_star_family(F, S)
    assert rep["all_stars"] and rep["standard"]
    assert rep["contains_inverse_of_smalls"]
    assert all(is_profile(O)[0] for O in f_tangles(S, F))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_regular_profiles_are_consistent_regular_profiles(seed):
    G = random_graph(seed, lo=4, hi=7)
    S = enumerate_separations(G, 3)
    for O in regular_profiles(S):
        assert is_consistent(O)[0] and is_profile(O)[0] and is_regular(O)[0]
