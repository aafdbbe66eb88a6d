"""Seeded instance sets of the four benchmark workloads.

Each workload is a fixed list of instances.  The workload seed permutes how
the inputs are written (the order of the edges of a graph and of the two
ends of each edge, the order of the elements and table rows of a universe)
and the order in which the instances run.  It changes neither the graphs
nor the universes: relabelling them moved single instances by up to 70% in
time and changed which of several equally good refinements the program
picks, so the spread over seeds would have measured the luck of the draw
and the artifacts could not be held to the seed commit's bytes.  Seed 0
writes exactly what `tangletree.io` writes, in the tier-1 order.  NOTES.md
records why each instance is in its workload.
"""

import json
import os
import random

from tangletree import io as tio
from tangletree.examples import (bridged_cliques, five_cliques_with_hub,
                                 satellite_cliques)
from tangletree.graphs import Graph

def random_graph(seed, lo=6, hi=12):
    """Seeded connected graph: random spanning tree plus random extra edges.

    The same generator as the test suite's `random_graph`, kept here so the
    benchmark does not import the tests.
    """
    rng = random.Random(seed)
    n = rng.randint(lo, hi)
    edges = set()
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(frozenset({verts[i], verts[j]}))
    p = rng.uniform(0.2, 0.5)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add(frozenset({u, v}))
    return Graph(n, edges)


def _satellite_cover(m, branches):
    """Cover cliques of `satellite_cliques(m, branches)`, as in acceptance
    criterion 1: the central and satellite K_m plus the connector edges."""
    cliques = [list(range(m))]
    n = m
    for i in range(branches):
        a, b = n, n + 1
        sat = list(range(n + 2, n + 2 + m))
        n += 2 + m
        cliques += [sat, [2 * i, a], [a, sat[0]], [2 * i + 1, b], [b, sat[1]]]
    return cliques


def _graph_instance(iid, G, commands, cliques=None, **extra):
    files = {"graph.json": ("graph", G)}
    if cliques is not None:
        files["cliques.json"] = ("json", [sorted(C) for C in cliques])
    return dict(id=iid, commands=commands, files=files, **extra)


def _refine(k, family):
    return ["refine", "--graph", "{graph.json}", "--k", str(k),
            "--family", family, "--out", "{out}"]


def clique_tangles():
    out = [
        _graph_instance("satellite-4x2-k3", satellite_cliques(4, 2),
                        [_refine(3, "Tk")],
                        cliques=_satellite_cover(4, 2), expect_tangles=3,
                        tangle_bags=4, cross_check_k=3),
        _graph_instance("bridged-4-k4", bridged_cliques(4),
                        [_refine(4, "profiles")],
                        cliques=[range(4), range(4, 8)], expect_tangles=2,
                        tangle_bags=4),
    ]
    G, cliques, k, right, _ = five_cliques_with_hub()
    inst = _graph_instance("five-cliques-hub-k10", G, "cliquecover",
                           cliques=list(cliques), cover_k=k)
    inst["right"] = cliques.index(right)
    out.append(inst)
    return out


def random_refine():
    return [_graph_instance("random-%02d-k%d" % (g, k), random_graph(g, 6, 10),
                            [_refine(k, "Tk")])
            for g in range(16) for k in (2, 3, 4)]


def _audit(k):
    return [_refine(k, "profiles"),
            ["verify", "--graph", "{graph.json}", "--k", str(k),
             "--td", "{out}/td.json", "--out", "{out}"]]


def profile_audit():
    out = [_graph_instance("bridged-7-k3", bridged_cliques(7), _audit(3))]
    out += [_graph_instance("random-%02d-k3" % g, random_graph(g), _audit(3))
            for g in range(13)]
    return out


def abstract_universes():
    from tangletree.universe import random_distributive_universe
    out = []
    for u in range(36):
        iid = "universe-%02d" % u
        U = random_distributive_universe(u)
        out.append(dict(id=iid, files={"universe.json": ("universe", U)},
                        commands=[["abstract", "--universe", "{universe.json}",
                                   "--out", "{out}"]]))
    return out


BUILDERS = {
    "clique-tangles": clique_tangles,
    "random-refine": random_refine,
    "profile-audit": profile_audit,
    "abstract-universes": abstract_universes,
}


def instances(workload, seed):
    """The workload's instances, in the order the seed gives them."""
    out = BUILDERS[workload]()
    if seed != 0:
        random.Random("%s:%d" % (workload, seed)).shuffle(out)
    return out


def _shuffled(rows, rng):
    rows = list(rows)
    rng.shuffle(rows)
    return rows


def write_inputs(inst, directory, seed):
    """Write an instance's input files; returns the map name -> path.

    Seed 0 writes the bytes `tangletree.io` writes; another seed writes the
    same graph or universe with its rows in another order.  Every seed
    serialises the file twice, so set-up does the same work on each.
    """
    os.makedirs(directory, exist_ok=True)
    rng = random.Random("%s:%d" % (inst["id"], seed))
    paths = {}
    for name, (kind, value) in inst["files"].items():
        path = paths[name] = os.path.join(directory, name)
        if kind == "graph":
            text = tio.save_graph(value, path)
        elif kind == "universe":
            text = tio.save_universe(value, path)
        else:
            text = json.dumps(value)
        obj = json.loads(text)
        if seed != 0:
            if kind == "graph":
                obj["edges"] = [_shuffled(e, rng) for e in _shuffled(obj["edges"], rng)]
            elif kind == "universe":
                for key in ("elements", "leq", "meet", "join"):
                    obj[key] = _shuffled(obj[key], rng)
            else:
                obj = [_shuffled(c, rng) for c in obj]
        with open(path, "w") as f:
            f.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return paths
