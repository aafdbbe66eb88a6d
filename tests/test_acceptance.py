"""Acceptance suite: one test per top-level criterion, each line of the
verbose run reporting pass or fail for that criterion."""

import json
import os
import time
from itertools import combinations

from conftest import random_graph
from oracles import (brute_force_f_tangles, brute_force_separations,
                     elements_over, is_maximal_star, nodes_by_orientation)
from tangletree import cli
from tangletree.blocks import verify_theorem_4_8
from tangletree.cliquetangles import CliqueCover
from tangletree.distinguish import build_efficient_nested_set
from tangletree.examples import (bridged_cliques, five_cliques_with_hub,
                                 satellite_cliques)
from tangletree.graphs import complete_graph, cycle_graph, path_graph
from tangletree.io import (load_graph, load_system, load_tangles,
                           load_tree_decomposition, load_universe, save_graph,
                           save_system, save_tangles, save_tree_decomposition,
                           save_universe)
from tangletree.refine import exclusive_stars, theorem_1_2
from tangletree.seps import enumerate_separations, nested
from tangletree.tangles import (CoverFamily, closely_related, f_tangles,
                                interior, profile_stand_in_family,
                                regular_profiles, star_leq)
from tangletree.trees import NestedSet, nodes
from tangletree.universe import (near_max_star, random_distributive_universe,
                                 star_profile_status, t_tilde_star,
                                 theorem_1_3, unscramble_set)

DATA = os.path.join(os.path.dirname(__file__), "..", "data",
                    "scaled_example.json")

K6_BAGS = [frozenset(range(6)), frozenset(range(8, 14)),
           frozenset(range(16, 22)), frozenset(range(24, 30))]


def test_criterion_1_four_clique_figure_reproduction():
    t0 = time.time()
    G = satellite_cliques(6, 3)
    S = enumerate_separations(G, 3, max_vertices=32)
    F = CoverFamily(G, 3)
    ts = f_tangles(S, F)
    assert len(ts) == 4
    # independent oracle: the clique-cover reduction counts the same tangles
    cliques = list(K6_BAGS)
    for i in range(3):
        a, b = 6 + 8 * i, 7 + 8 * i
        sat = list(range(8 + 8 * i, 14 + 8 * i))
        cliques += [frozenset({2 * i, a}), frozenset({a, sat[0]}),
                    frozenset({2 * i + 1, b}), frozenset({b, sat[1]})]
    base_tangles = CliqueCover(G, cliques, 3).tangles()
    assert len(base_tangles) == 4
    for O in ts:
        hits = [bt for bt in base_tangles
                if all(s in bt for s in O if not s.is_degenerate)]
        assert len(hits) == 1
    Nt = build_efficient_nested_set(ts, S)
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    essential, inessential = [], []
    for i, bag in enumerate(TD.bags):
        star = TD.node_star(i)
        if any(all(s in P for s in star) for P in ts):
            essential.append(frozenset(bag))
        else:
            inessential.append(bag)
    assert sorted(map(sorted, essential)) == sorted(map(sorted, K6_BAGS))
    assert all(len(b) <= 3 * 3 - 3 for b in inessential)
    assert time.time() - t0 < 60


def test_criterion_2_essential_interiors_are_minimal():
    t0 = time.time()
    graphs_used = set()
    checked = 0
    for seed in range(24):
        G = random_graph(seed)
        for k in (2, 3, 4):
            S = enumerate_separations(G, k)
            F = CoverFamily(G, k)
            ts = f_tangles(S, F)
            if not ts:
                continue
            graphs_used.add(seed)
            Nt = (build_efficient_nested_set(ts, S)
                  if len(ts) > 1 else NestedSet(S, []))
            N, TD = theorem_1_2(G, F, Nt, tangles=ts)
            for i, bag in enumerate(TD.bags):
                star = TD.node_star(i)
                owners = [P for P in ts if all(s in P for s in star)]
                if not owners:
                    continue
                best = min(len(interior(x, G))
                           for x, own in exclusive_stars(owners[0], ts)
                           if own == 1)
                assert len(bag) == best, (seed, k, i)
                checked += 1
    assert len(graphs_used) >= 20 and checked >= 20
    assert time.time() - t0 < 600


def test_criterion_3_minimal_star_beats_every_exclusive_star():
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
    assert ({o for (_, i, o) in census if i == best}
            == {frozen["minimal_star"]["owners"]})
    excl = min(i for (_, i, o) in census if o == 1)
    assert excl == frozen["minimal_exclusive_star"]["interior"]
    # the overall minimum is non-exclusive and strictly beats every
    # exclusive star, so exclusivity cannot be required of minimal stars
    assert frozen["minimal_star"]["owners"] > 1
    assert best < excl


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


def test_criterion_4_decomposition_audit():
    for k in (3, 4):
        rep = _audit(bridged_cliques(7), k)
        assert rep["efficient"] and rep["big_parts"] and rep["blocks_are_parts"]
    audited = 0
    for seed in range(13):
        rep = _audit(random_graph(seed), 3)
        audited += 1
        if rep is None:
            continue
        assert rep["efficient"], (seed, rep["witnesses"])
        assert rep["big_parts"], (seed, rep["witnesses"])
        assert rep["blocks_are_parts"], (seed, rep["witnesses"])
    assert audited >= 10


def _certify_profile(P, sigma=frozenset(), tangles=None):
    sp = near_max_star(sigma, P, tangles=tangles)
    status = star_profile_status(sp, P)
    assert status["is_star"] and status["narrow"] and status["near_maximal"]
    R = [x for x in P if closely_related(x, P)[0] and not x.is_degenerate]
    out = unscramble_set(R, sigma, P)
    for a, b in combinations(out, 2):
        assert nested(a, b)
    for x in out:
        assert x in P and closely_related(x, P)[0]
        assert all(nested(x, s) for s in sigma)
    if star_profile_status(R, P)["narrow"]:
        assert star_profile_status(out, P)["narrow"]


def test_criterion_5_abstract_property_suite():
    # graph-derived systems of order-3 separations
    for G in (bridged_cliques(4), bridged_cliques(5), satellite_cliques(4, 2)):
        S = enumerate_separations(G, 3, max_vertices=20)
        for P in f_tangles(S, CoverFamily(G, 3)):
            _certify_profile(P)
    # a graph instance of the essential-node refinement (k = 2 keeps the
    # needed corners outside the system, so tangles survive the big family)
    from tangletree.tangles import StarFamily
    from tangletree.universe import t_prime
    G = bridged_cliques(4)
    S = enumerate_separations(G, 2)
    Tk = CoverFamily(G, 2, stars_only=True)
    F = StarFamily(elements_over(Tk, S) | set(t_prime(S).elements),
                   tag="Tkstars+Tprime")
    ts = f_tangles(S, F)
    assert len(ts) == 2
    N = theorem_1_3(S, F, build_efficient_nested_set(ts, S), tangles=ts)
    # fifty table-driven distributive universes
    for seed in range(50):
        u = random_distributive_universe(seed)
        S = u.system()
        F = t_tilde_star(S)
        ts = f_tangles(S, F)
        assert ts
        for P in ts:
            _certify_profile(P)
        Nt = (build_efficient_nested_set(ts, S)
              if len(ts) > 1 else NestedSet(S, []))
        N = theorem_1_3(S, F, Nt, tangles=ts)
        T = S.table()
        for node in nodes(N):
            owners = [P for P in ts if all(x in P for x in node)]
            if owners and (owners[0].bits & T.proper).bit_count() <= 12:
                ok, wit = is_maximal_star(node, owners[0])
                assert ok, (seed, wit)


def test_criterion_6_oracle_equivalences():
    # backtracking tangle search against the full-orientation filter
    for G, k in [(path_graph(4), 2), (cycle_graph(5), 2),
                 (complete_graph(4), 3), (bridged_cliques(3), 2)]:
        S = enumerate_separations(G, k)
        for F in (CoverFamily(G, k), CoverFamily(G, k, stars_only=True),
                  profile_stand_in_family(S)):
            fast = f_tangles(S, F)
            slow = brute_force_f_tangles(S, F)
            assert [O.bits for O in fast] == [O.bits for O in slow]
    # separation enumeration against the subset-pair sweep
    for G, k in [(path_graph(5), 2), (cycle_graph(5), 3),
                 (bridged_cliques(3), 3), (random_graph(2, lo=5, hi=7), 3)]:
        assert (set(enumerate_separations(G, k).oriented)
                == set(brute_force_separations(G, k).oriented))
    # structural node computation against orientation-based
    from test_trees import _random_nested_set
    compared = 0
    for seed in range(40):
        N = _random_nested_set(seed)
        if N is None or not len(N):
            continue
        assert nodes(N) == nodes_by_orientation(N)
        compared += 1
    assert compared >= 10
    # goodness coincides with efficient distinguishing on regular profiles
    from tangletree.tangles import distinguishers, distinguishes, is_good
    for G in [bridged_cliques(4), random_graph(1, lo=6, hi=8),
              random_graph(3, lo=6, hi=8)]:
        S = enumerate_separations(G, 3)
        ts = regular_profiles(S)
        if len(ts) < 2:
            continue
        pairs = list(combinations(range(len(ts)), 2))
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


def test_criterion_7_determinism_and_round_trips(tmp_path):
    gpath = tmp_path / "twin.json"
    save_graph(bridged_cliques(4), gpath, seed=9)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.run(["refine", "--graph", str(gpath), "--k", "3",
                        "--seed", "9", "--out", str(out)]) == 0
        assert cli.run(["tangles", "--graph", str(gpath), "--k", "3",
                        "--seed", "9", "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    # round trips: save -> load -> save reproduces the bytes
    G = load_graph(gpath)
    assert save_graph(G, tmp_path / "g2.json", seed=9) == gpath.read_text()
    run = tmp_path / "a"
    S = load_system(run / "system.json", G)
    assert (save_system(S, tmp_path / "s2.json", seed=9)
            == (run / "system.json").read_text())
    ts = load_tangles(run / "tangles.json", G)
    assert (save_tangles(list(ts), tmp_path / "t2.json", seed=9)
            == (run / "tangles.json").read_text())
    TD = load_tree_decomposition(run / "td.json")
    assert (save_tree_decomposition(TD, tmp_path / "td2.json", seed=9)
            == (run / "td.json").read_text())
    u = random_distributive_universe(4)
    save_universe(u, tmp_path / "u.json")
    assert (save_universe(load_universe(tmp_path / "u.json"),
                          tmp_path / "u2.json")
            == (tmp_path / "u.json").read_text())
