"""The index table of a separation system: its bitsets against the element
protocol, one table per system, and the bitset versions of the search,
certificates and profile family against the element-wise loops they
replaced (tests/oracles.py)."""

import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph
from tangletree import seps
from tangletree.cliquetangles import CliqueCover
from tangletree.examples import bridged_cliques, satellite_cliques
from tangletree.refine import exclusive_stars
from tangletree.seps import OrientedSeparation, canonical, classify, enumerate_separations
from tangletree.tangles import (CoverFamily, Orientation, closely_related, f_tangles,
                                is_consistent, is_profile, p_s_family,
                                profile_stand_in_family, regular_profiles, star_leq)
from tangletree.universe import (UniverseElement, maximal_star_above,
                                 random_distributive_universe, t_prime, t_tilde_star)


def _graph_system(seed, k):
    return enumerate_separations(random_graph(seed, lo=5, hi=8), k)


SMALL = ([("graph-%d-k%d" % (seed, k), lambda seed=seed, k=k: _graph_system(seed, k))
          for seed in range(3) for k in (2, 3, 4)]
         # (V, V) has order 3 < 4: a degenerate member
         + [("triangle-k4", lambda: enumerate_separations(random_graph(0, lo=3, hi=3), 4))]
         + [("bridged4-k3", lambda: enumerate_separations(bridged_cliques(4), 3))]
         + [("universe-%d" % seed, lambda seed=seed: random_distributive_universe(seed).system())
            for seed in range(4)])


def _universe_subsystem(seed):
    """An involution-closed third of a universe: some of its joins are
    elements of the universe outside the system."""
    U = random_distributive_universe(seed)
    some = list(U)[:len(U) // 3]
    S = U.system(set(some) | {x.inv for x in some})
    assert any(r.join(s) not in S for r in S for s in S)
    return S


def _base_system():
    """The base patterns of a clique cover of satellite_cliques(4, 2), a
    central K4 and two satellite K4 each joined to it through two connector
    vertices: a system with no order bound."""
    cliques = [range(4), range(6, 10), range(12, 16),
               [0, 4], [4, 6], [1, 5], [5, 7], [2, 10], [10, 12], [3, 11], [11, 13]]
    S = CliqueCover(satellite_cliques(4, 2), cliques, 3).base_system()
    assert S.k is None
    return S


KERNEL = SMALL + [("universe-sub-%d" % seed, lambda seed=seed: _universe_subsystem(seed))
                  for seed in range(2)] + [("clique-cover-base", _base_system)]


@pytest.mark.parametrize("build", [b for _, b in KERNEL], ids=[n for n, _ in KERNEL])
def test_table_matches_the_element_protocol(build):
    S = build()
    T = S.table()
    members = T.members
    assert members == sorted(S.oriented, key=lambda s: s.sort_key) == list(S)
    assert S.unoriented() == sorted({canonical(s) for s in S.oriented},
                                    key=lambda s: s.sort_key)
    for i, r in enumerate(members):
        incons = T.up[T.inv[i]] & ~(1 << i | 1 << T.inv[i])
        assert T.index[r] == i
        assert members[T.inv[i]] == r.inv
        assert (T.small >> i & 1 == 1) == r.is_small
        proper = not (r.is_small or r.is_cosmall or r.is_degenerate)
        assert (T.proper >> i & 1 == 1) == proper
        for j, s in enumerate(members):
            assert (T.up[i] >> j & 1 == 1) == r.leq(s)
            assert (T.down[i] >> j & 1 == 1) == s.leq(r)
            assert (T.upinv[i] >> j & 1 == 1) == r.leq(s.inv)
            assert (incons >> j & 1 == 1) == oracles.pair_inconsistent(r, s)


@pytest.mark.parametrize("build", [b for _, b in KERNEL], ids=[n for n, _ in KERNEL])
def test_join_and_meet_kernels_match_find(build):
    S = build()
    T = S.table()
    members = T.members
    for i, r in enumerate(members):
        for j, s in enumerate(members):
            assert T.join(i, j) == T.index.get(r.join(s))
            assert T.meet(i, j) == T.index.get(r.meet(s))


def test_profiles_and_their_family_make_no_element_join(monkeypatch):
    calls = []

    def counting(name):
        op = getattr(OrientedSeparation, name)

        def counted(self, other):
            calls.append(name)
            return op(self, other)
        return counted

    S = enumerate_separations(bridged_cliques(4), 4)
    S.table()
    monkeypatch.setattr(OrientedSeparation, "join", counting("join"))
    monkeypatch.setattr(OrientedSeparation, "meet", counting("meet"))
    profiles = regular_profiles(S)
    assert profiles
    for O in profiles:
        assert is_profile(O)[0]
        for s in O:
            closely_related(s, O)
    profile_stand_in_family(S)
    assert calls == []


def test_star_listing_and_the_star_order_make_no_leq_call(monkeypatch):
    # the tangles of two graphs under T_k and of two universes under T~*
    cases = []
    for G in (bridged_cliques(4), random_graph(5, lo=6, hi=8)):
        S = enumerate_separations(G, 3)
        cases.append(f_tangles(S, CoverFamily(G, 3)))
    for seed in (0, 5):
        S = random_distributive_universe(seed).system()
        cases.append(f_tangles(S, t_tilde_star(S)))
    # the first proper member of each tangle, as the star to extend
    first = {P: [s for s in P if not (s.is_small or s.is_cosmall)][:1]
             for ts in cases for P in ts}

    def forbidden(self, other):
        raise AssertionError("leq called")

    for cls in (OrientedSeparation, UniverseElement):
        monkeypatch.setattr(cls, "leq", forbidden)
    found = []
    for ts in cases:
        assert ts
        for P in ts:
            assert sum(1 for _ in exclusive_stars(P, ts)) > 1
            spp = maximal_star_above(first[P], P)
            assert oracles.is_maximal_star(spp, P) == (True, None)
            assert oracles.is_maximal_star(first[P], P)[0] == (spp == frozenset(first[P]))
            found.append(spp)
    monkeypatch.undo()
    for spp, P in zip(found, first):
        assert spp and star_leq(first[P], spp)


def test_table_is_built_once_per_system_and_not_when_enumerating(monkeypatch):
    built = []

    class Counting(seps.IndexTable):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(seps, "IndexTable", Counting)
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    assert built == [] and S._table is None
    list(S)
    S.unoriented()
    for s in S:
        classify(s, S)
    profile_stand_in_family(S)
    regular_profiles(S)
    f_tangles(S, CoverFamily(G, 3))
    assert len(built) == 1 and S.table() is built[0]
    A = random_distributive_universe(1).system()
    f_tangles(A, t_tilde_star(A))
    regular_profiles(A)
    assert len(built) == 2 and A.table() is built[1]
    # a second, equal system gets its own table
    S2 = enumerate_separations(G, 3)
    assert S2 == S and S2.table() is not S.table()


def test_no_module_state_holds_a_table():
    S = enumerate_separations(bridged_cliques(4), 3)
    regular_profiles(S)
    T = S.table()
    for name, module in list(sys.modules.items()):
        if name.startswith("tangletree"):
            for value in vars(module).values():
                assert value is not T
                if isinstance(value, (dict, list, set, tuple)):
                    for v in value:
                        assert v is not T
    gc.collect()
    referrers = [r for r in gc.get_referrers(T) if r is not sys._getframe()]
    assert referrers == [S]


# ------------------------------------------------------------------ parity


def _random_orientations(S, rng, count):
    reps = S.unoriented()
    for _ in range(count):
        yield Orientation(S, S.table().bits(s if rng.random() < 0.5 else s.inv
                                            for s in reps))


def _assert_parity(S, tangles_of, seed):
    T = S.table()
    for s in S:
        assert classify(s, S)["witness"] == oracles.classify_witness(s, S)
    assert set(p_s_family(S).elements) == set(oracles.p_s_family(S).elements)
    got, want = regular_profiles(S), oracles.regular_profiles(S)
    assert got == want
    found = tangles_of(f_tangles, oracles.f_tangles)
    samples = list(_random_orientations(S, random.Random(seed), 6)) + got + found
    for O in samples:
        assert is_consistent(O) == oracles.is_consistent(O)
        assert is_profile(O) == oracles.is_profile(O)
        some = list(O)
        for s in some[::max(1, len(some) // 4)]:
            assert closely_related(s, O) == oracles.closely_related(s, O)
    assert T is S.table()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 8))
def test_bitsets_match_the_element_loops_on_graphs(seed, k, n):
    # n < k gives the degenerate member (V, V)
    G = random_graph(seed, lo=n, hi=n)
    S = enumerate_separations(G, k)

    def tangles_of(search, reference):
        got = search(S, CoverFamily(G, k))
        assert got == reference(S, CoverFamily(G, k))
        return got

    _assert_parity(S, tangles_of, seed)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_bitsets_match_the_element_loops_on_universes(seed):
    S = random_distributive_universe(seed).system()
    F = t_tilde_star(S)

    def tangles_of(search, reference):
        got = search(S, F)
        assert got == reference(S, F)
        return got

    _assert_parity(S, tangles_of, seed)


ABSTRACT = ([("universe-%d" % seed, lambda seed=seed: random_distributive_universe(seed).system())
             for seed in range(36)]
            + [("universe-sub-%d" % seed, lambda seed=seed: _universe_subsystem(seed))
               for seed in range(2)])


@pytest.mark.parametrize("build", [b for _, b in ABSTRACT], ids=[n for n, _ in ABSTRACT])
def test_abstract_families_match_the_subset_loops(build):
    S = build()
    F = t_tilde_star(S)
    assert set(F.elements) == set(oracles.t_tilde_star(S).elements)
    assert any(len(el) > 1 for el in F.elements)
    assert set(t_prime(S).elements) == set(oracles.t_prime(S).elements)
