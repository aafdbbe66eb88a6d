"""The CLI contract under mutated input files: exit 0-3, never an exception."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import save_abstract_system, save_star_family
from oracles import elements_over
from tangletree import cli
from tangletree.graphs import path_graph
from tangletree.io import save_graph, save_tree_decomposition, save_universe
from tangletree.seps import enumerate_separations
from tangletree.tangles import CoverFamily, StarFamily
from tangletree.trees import TreeDecomposition
from tangletree.universe import random_distributive_universe

# small values only: a mutated vertex count must not ask for a huge graph
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 7), st.text(max_size=3),
                  st.just([]), st.just({}), st.lists(st.integers(-1, 7), max_size=3))


def _paths(obj, path=()):
    """Every position in a JSON tree, the root first."""
    yield path
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _paths(item, path + (i,))


def _mutate(draw, obj):
    """obj after one to three random edits: replace, delete or duplicate."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if not path:
            obj = draw(_LEAF) if op == "replace" else obj
            continue
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if op == "replace":
            parent[last] = draw(_LEAF)
        elif op == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, json.loads(json.dumps(parent[last])))
    return obj


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid graph, tree-decomposition, star family, universe and
    universe-system file, parsed."""
    d = tmp_path_factory.mktemp("valid")
    G = path_graph(4)
    save_graph(G, d / "g.json")
    S = enumerate_separations(G, 2)
    save_star_family(StarFamily(elements_over(CoverFamily(G, 2, stars_only=True), S)),
                     d / "fam.json")
    bags = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    save_tree_decomposition(TreeDecomposition(G, bags, [(0, 1), (1, 2)]), d / "td.json")
    U = random_distributive_universe(2)
    save_universe(U, d / "u.json")
    save_abstract_system(U.system(), d / "sys.json")
    return {name: json.loads((d / (name + ".json")).read_text())
            for name in ("g", "td", "fam", "u", "sys")}


# the command, the file it mutates, and its arguments given the file paths
_COMMANDS = {
    "tangles": ("g", lambda p: ["tangles", "--graph", p["g"], "--k", "2"]),
    "tangles-family-file": ("fam", lambda p: ["tangles", "--graph", p["g"], "--k", "2",
                                              "--family", "file:" + p["fam"]]),
    "tot": ("g", lambda p: ["tot", "--graph", p["g"], "--k", "2"]),
    "blocks": ("g", lambda p: ["blocks", "--graph", p["g"], "--k", "2"]),
    "verify-graph": ("g", lambda p: ["verify", "--graph", p["g"], "--k", "2",
                                     "--td", p["td"]]),
    "verify-td": ("td", lambda p: ["verify", "--graph", p["g"], "--k", "2",
                                   "--td", p["td"]]),
    "export-dot": ("td", lambda p: ["export-dot", "--td", p["td"]]),
    "abstract": ("u", lambda p: ["abstract", "--universe", p["u"]]),
    "abstract-system": ("sys", lambda p: ["abstract", "--universe", p["u"],
                                          "--system", p["sys"]]),
    "refine-Tk": ("g", lambda p: ["refine", "--graph", p["g"], "--k", "2",
                                  "--family", "Tk"]),
    "refine-profiles": ("g", lambda p: ["refine", "--graph", p["g"], "--k", "2",
                                        "--family", "profiles"]),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_exit_contract(tmp_path_factory, valid_files, command,
                                                data):
    target, argv = _COMMANDS[command]
    d = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, obj in valid_files.items():
        obj = json.loads(json.dumps(obj))
        if name == target:
            obj = _mutate(data.draw, obj)
        paths[name] = str(d / (name + ".json"))
        (d / (name + ".json")).write_text(json.dumps(obj))
    assert cli.run(argv(paths) + ["--out", str(d / "run")]) in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_edge_list_keeps_the_exit_contract(tmp_path_factory, data):
    # one to three character edits of a valid edge list; a vertex grows by at
    # most three digits, so the graph stays small enough to build
    text = "n 4\n0 1\n1 2  # middle\n2 3\n"
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        c = data.draw(st.sampled_from(list("0137n #-x\t\n")))
        if op == "insert":
            text = text[:i] + c + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    d = tmp_path_factory.mktemp("fuzz")
    (d / "g.txt").write_text(text)
    argv = ["tangles", "--graph", str(d / "g.txt"), "--k", "2", "--out", str(d / "run")]
    assert cli.run(argv) in (0, 1, 2, 3)
