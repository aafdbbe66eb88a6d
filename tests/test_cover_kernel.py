"""The covering-triple kernel against the set-based loops it replaced."""

import pytest

from conftest import random_graph
from oracles import (reference_cover_contains, reference_subset_in,
                     reference_violation, reference_witnesses)
from tangletree.blocks import tangle_correspondence
from tangletree.distinguish import build_efficient_nested_set
from tangletree.examples import bridged_cliques
from tangletree.refine import theorem_1_2
from tangletree.seps import enumerate_separations
from tangletree.tangles import (CoverFamily, f_tangles, profile_stand_in_family,
                                regular_profiles)
from tangletree.trees import NestedSet


class _CheckedFamily(CoverFamily):
    """A cover family that checks every prune call of the search against the
    reference: the witness of violation(chosen, y), and subset_in on the
    orientation chosen | {y} that the call examines."""

    calls = 0

    def violation(self, chosen, y):
        got = super().violation(chosen, y)
        assert got == reference_violation(self, chosen, y), (chosen, y)
        O = chosen | {y}
        sub = self.subset_in(O)
        assert sub == reference_subset_in(self, O), O
        for hit in (got, sub):
            if hit is not None:
                assert hit in self and reference_cover_contains(self, hit)
        assert ({y} in self) == reference_cover_contains(self, {y})
        self.calls += 1
        return got


@pytest.mark.parametrize("stars_only", [False, True], ids=["Tk", "Tkstars"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cover_family_matches_reference(k, stars_only):
    graphs = [random_graph(seed, lo=5, hi=8) for seed in range(8)]
    if k == 3:
        graphs.append(bridged_cliques(4))
    for G in graphs:
        S = enumerate_separations(G, k)
        F = _CheckedFamily(G, k, stars_only=stars_only)
        for O in f_tangles(S, F):
            assert F.subset_in(O.chosen) is None
            assert reference_subset_in(F, O.chosen) is None
        assert F.calls > 0


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
