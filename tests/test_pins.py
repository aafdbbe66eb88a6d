"""Pinned outputs of the two refinement theorems on fixed instances.

`pins.json` holds, as sorted reprs, the refined nested set of
`theorem_1_3` on `random_distributive_universe(0..9)`, and the refined
nested set with the decomposition's bags and edges of `theorem_1_2` on
`random_graph` seeds 0-5 at k = 2..4 with the T_k family.  A change to the
refinement that moves any of them must say why.
"""

import json
import os

import pytest

from conftest import random_graph
from tangletree.distinguish import DistinguisherTable, build_efficient_nested_set
from tangletree.refine import theorem_1_2
from tangletree.seps import enumerate_separations
from tangletree.tangles import CoverFamily, f_tangles
from tangletree.trees import NestedSet
from tangletree.universe import (random_distributive_universe, t_tilde_star,
                                 theorem_1_3)

with open(os.path.join(os.path.dirname(__file__), "pins.json")) as _f:
    PINS = json.load(_f)


def _premise(S, tangles):
    ts = DistinguisherTable(tangles)
    return ts, build_efficient_nested_set(ts, S) if len(ts) > 1 else NestedSet(S, [])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_theorem_1_2_pins(seed, k):
    G = random_graph(seed)
    S = enumerate_separations(G, k)
    F = CoverFamily(G, k)
    ts, Nt = _premise(S, f_tangles(S, F))
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    got = {"N": sorted(map(repr, N)), "bags": [sorted(b) for b in TD.bags],
           "edges": [list(e) for e in TD.edges]}
    assert got == PINS["theorem_1_2 %d/%d" % (seed, k)]


@pytest.mark.parametrize("seed", range(10))
def test_theorem_1_3_pins(seed):
    S = random_distributive_universe(seed).system()
    F = t_tilde_star(S)
    ts, Nt = _premise(S, f_tangles(S, F))
    N = theorem_1_3(S, F, Nt, tangles=ts)
    assert sorted(map(repr, N)) == PINS["theorem_1_3 %d" % seed]
