"""The search prunes of both families and the covering-triple kernel
against the set-based loops they replaced."""

import random
import time
from itertools import combinations

import pytest

from conftest import random_graph
from oracles import (maximal_sides, reference_cover_contains, reference_star_violation,
                     reference_subset_in, reference_violation, reference_witnesses)
from tangletree import tangles
from tangletree.blocks import tangle_correspondence
from tangletree.distinguish import build_efficient_nested_set
from tangletree.examples import bridged_cliques, satellite_cliques
from tangletree.graphs import Graph, mask_bits
from tangletree.refine import theorem_1_2
from tangletree.seps import enumerate_separations
from tangletree.tangles import (CoverFamily, StarFamily, covering_subset, f_tangles,
                                profile_stand_in_family, regular_profiles)
from tangletree.trees import NestedSet
from tangletree.universe import random_distributive_universe, t_tilde_star


class _CheckedFamily(CoverFamily):
    """A cover family that checks every call of the search prune against the
    reference: blocked(bits, y) against the witness of reference_violation,
    and subset_in on the orientation chosen | {y} that the call examines:
    the same witness as reference_subset_in on the members that subset_in
    searches, and None exactly when it is None on all of them."""

    calls = covers = 0

    def blocker(self, T):
        blocked = super().blocker(T)

        def checked(bits, y):
            got = blocked(bits, y)
            chosen = frozenset(T.members[i] for i in mask_bits(bits))
            y = T.members[y]
            want = reference_violation(self, chosen, y)
            assert got == (want is not None), (chosen, y)
            O = chosen | {y}
            sub = self.subset_in(O)
            searched = O if self.stars_only else maximal_sides(O)
            assert sub == reference_subset_in(self, searched), O
            assert (sub is None) == (reference_subset_in(self, O) is None), O
            self.covers += sub is not None
            for hit in (want, sub):
                if hit is not None:
                    assert hit in self and reference_cover_contains(self, hit)
            assert ({y} in self) == reference_cover_contains(self, {y})
            self.calls += 1
            return got

        return checked


@pytest.mark.parametrize("stars_only", [False, True], ids=["Tk", "Tkstars"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cover_family_matches_reference(k, stars_only):
    graphs = [random_graph(seed, lo=5, hi=8) for seed in range(8)]
    if k == 3:
        graphs.append(bridged_cliques(4))
    covers = 0
    for G in graphs:
        S = enumerate_separations(G, k)
        F = _CheckedFamily(G, k, stars_only=stars_only)
        for O in f_tangles(S, F):
            assert F.subset_in(O) is None
            assert reference_subset_in(F, O) is None
        assert F.calls > 0
        covers += F.covers
    # some of the orientations examined hold a cover
    assert covers > 0


def test_tk_certificate_searches_the_maximal_members():
    # P4 plus six isolated vertices at k=2: S_2 has 1,280 members, and a
    # certificate over all of a tangle's members took 11 s
    G = Graph(10, [(0, 1), (1, 2), (2, 3)])
    t0 = time.perf_counter()
    assert len(f_tangles(enumerate_separations(G, 2), CoverFamily(G, 2))) == 3
    assert time.perf_counter() - t0 < 3


def _homes(G, k):
    """(bag, home tangle) pairs of the refined decomposition of G."""
    S = enumerate_separations(G, k)
    ts = regular_profiles(S)
    if not ts:
        return []
    Nt = build_efficient_nested_set(ts, S) if len(ts) > 1 else NestedSet(S, [])
    _, TD = theorem_1_2(G, profile_stand_in_family(S), Nt, tangles=ts)
    return [(bag, P) for t, bag in enumerate(TD.bags)
            for P in ts if all(s in P for s in TD.node_star(t))]


@pytest.mark.parametrize("G,k", [(bridged_cliques(7), 3)]
                         + [(random_graph(seed, lo=6, hi=9), 3) for seed in (0, 1, 3, 4)],
                         ids=["bridged7", "random0", "random1", "random3", "random4"])
def test_tangle_correspondence_witnesses_match_reference(G, k):
    pairs = _homes(G, k)
    assert pairs
    for bag, P in pairs:
        rep = tangle_correspondence(bag, P, k)
        assert rep["witnesses"] == reference_witnesses(bag, P)
        if not rep["witnesses"]:
            # the witness may differ from the old loop's; it must still cover
            hit = rep["witnesses_detail"]["witnesses"]
            assert 1 <= len(hit) <= 3 and all(s in P and not s.is_degenerate for s in hit)
            assert not reference_witnesses(bag, hit)


def _check_bitset(blocked, reference, F, T, bits):
    """blocked(bits, y) against the reference's witness, for every y outside bits."""
    chosen = frozenset(T.members[i] for i in mask_bits(bits))
    for y in range(len(T.members)):
        if not bits >> y & 1:
            want = reference(F, chosen, T.members[y])
            assert blocked(bits, y) == (want is not None), (chosen, y)


@pytest.mark.parametrize("stars_only", [False, True], ids=["Tk", "Tkstars"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3], ids=["K1", "K2", "K3"])
def test_cover_prune_matches_reference_on_every_subset(n, k, stars_only):
    # below k vertices S_k holds (V, V): it covers G alone, so it blocks
    # under T_k and, being no star, never under T_k*.  Beyond ten members
    # (K3 at k=3 and 4) only the bitsets holding at most one orientation of
    # each separation are tried, as the search asks.
    G = Graph(n, combinations(range(n), 2))
    S = enumerate_separations(G, k)
    T = S.table()
    F = CoverFamily(G, k, stars_only=stars_only)
    blocked = F.blocker(T)
    N = len(T.members)
    both = [1 << i | 1 << t for i, t in enumerate(T.inv) if i < t] if N > 10 else []
    for bits in range(1 << N):
        if any(bits & p == p for p in both):
            continue
        _check_bitset(blocked, reference_violation, F, T, bits)


def _random_bitsets(N, rng, count):
    """count random bitsets over N members, about 1/2, 1/4 and 1/8 full."""
    for density in (1, 2, 3) * (count // 3):
        bits = rng.getrandbits(N)
        for _ in range(density):
            bits &= rng.getrandbits(N)
        yield bits


@pytest.mark.parametrize("stars_only", [False, True], ids=["Tk", "Tkstars"])
@pytest.mark.parametrize("k", [3, 4])
def test_cover_prune_matches_reference_on_random_bitsets(k, stars_only):
    # unlike the search's, these sets need not be consistent orientations
    for seed in range(3):
        G = random_graph(seed, lo=6, hi=6)
        T = enumerate_separations(G, k).table()
        F = CoverFamily(G, k, stars_only=stars_only)
        blocked = F.blocker(T)
        N = len(T.members)
        for bits in _random_bitsets(N, random.Random(seed), 6):
            _check_bitset(blocked, reference_violation, F, T, bits)


class _CheckedStarFamily(StarFamily):
    """An explicit family that checks every call of the search prune against
    the element loop it replaced."""

    calls = 0

    def blocker(self, T):
        blocked = super().blocker(T)

        def checked(bits, y):
            got = blocked(bits, y)
            chosen = frozenset(T.members[i] for i in mask_bits(bits))
            want = reference_star_violation(self, chosen, T.members[y])
            assert got == (want is not None), (chosen, T.members[y])
            self.calls += 1
            return got

        return checked


def _star_system(name):
    if name == "Ttildestars":
        A = random_distributive_universe(0).system()
        return A, t_tilde_star(A)
    G = bridged_cliques(4)
    S = enumerate_separations(G, 4)
    # an element with a member outside S never blocks
    outside = next(s for s in enumerate_separations(G, 5) if s.order == 4)
    F = profile_stand_in_family(S)
    return S, StarFamily(set(F) | {frozenset({S.unoriented()[-1], outside})})


@pytest.mark.parametrize("name", ["profiles", "Ttildestars"])
def test_star_family_prune_matches_the_element_loop(name):
    S, F = _star_system(name)
    checked = _CheckedStarFamily(F.elements, tag=F.tag)
    assert f_tangles(S, checked) == f_tangles(S, F)
    assert checked.calls > 0
    T = S.table()
    blocked = F.blocker(T)
    N = len(T.members)
    for bits in _random_bitsets(N, random.Random(0), 12):
        _check_bitset(blocked, reference_star_violation, F, T, bits)
