"""Artifact persistence: JSON round trips, parse errors and DOT export."""

import json

import pytest

from lemmas import (save_abstract_star_family, save_abstract_system,
                    save_star_family)
from oracles import elements_over, reference_save_universe
from tangletree import cli
from tangletree.distinguish import build_efficient_nested_set
from tangletree.errors import ParseError
from tangletree.examples import bridged_cliques
from tangletree.graphs import path_graph
from tangletree.io import (export_dot, load_abstract_nested_set,
                           load_abstract_star_family, load_abstract_system,
                           load_graph, load_nested_set, load_star_family,
                           load_system, load_tangles, load_tree_decomposition,
                           load_universe, save_abstract_nested_set, save_graph,
                           save_nested_set, save_report, save_system,
                           save_tangles, save_tree_decomposition, save_universe)
from tangletree.seps import enumerate_separations
from tangletree.tangles import CoverFamily, f_tangles
from tangletree.trees import NestedSet, to_tree_decomposition
from tangletree.universe import random_distributive_universe, t_tilde_star


@pytest.fixture
def twin():
    G = bridged_cliques(4)
    S = enumerate_separations(G, 3)
    ts = f_tangles(S, CoverFamily(G, 3))
    return G, S, ts


def test_graph_round_trip(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "g.json"
    text = save_graph(G, p, seed=7)
    obj = json.loads(text)
    assert obj["format"] == "graph" and obj["seed"] == 7
    H = load_graph(p)
    assert H.n == G.n and set(H.edge_tuples()) == set(G.edge_tuples())


def test_json_graph_is_read_once(tmp_path, twin, monkeypatch):
    # one read serves both the format sniff and the JSON parse, so the file
    # cannot change between them
    G = twin[0]
    p = tmp_path / "g.json"
    save_graph(G, p)
    opened, real_open = [], open

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    H = load_graph(p)
    monkeypatch.undo()
    assert H == G and opened == [p]


def test_graph_edge_list_parsing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a path\n0 1\n1 2   # middle\n\n2 3\n")
    G = load_graph(p)
    assert G.n == 4 and sorted(G.edge_tuples()) == [(0, 1), (1, 2), (2, 3)]
    p.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        load_graph(p)
    p.write_text("a b\n")
    with pytest.raises(ParseError):
        load_graph(p)
    p.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_graph(p)


def test_graph_edge_list_states_its_vertex_count(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("n 6  # two isolated vertices at the end\n0 1\n1 2\n2 3\n")
    G = load_graph(p)
    assert G.n == 6 and sorted(G.edge_tuples()) == [(0, 1), (1, 2), (2, 3)]
    p.write_text("0 1\nn 3\n")
    assert load_graph(p).n == 3
    p.write_text("n 4\n")
    assert load_graph(p).n == 4 and not load_graph(p).edges
    for bad in ("n 3\n0 1\n2 3\n", "n 3\nn 3\n0 1\n", "n -1\n", "n x\n0 1\n"):
        p.write_text(bad)
        with pytest.raises(ParseError):
            load_graph(p)
    p.write_text("n 3\n0 3\n")
    assert cli.run(["tangles", "--graph", str(p), "--k", "2",
                    "--out", str(tmp_path / "run")]) == 2


def test_format_tag_is_checked(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "g.json"
    save_graph(G, p)
    with pytest.raises(ParseError):
        load_system(p, G)
    p.write_text("not json")
    with pytest.raises(ParseError):
        load_graph(p)


def test_system_round_trip(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "s.json"
    save_system(S, p)
    S2 = load_system(p, G)
    assert S2.k == S.k
    assert set(S2.oriented) == set(S.oriented)


def test_tangles_round_trip(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "t.json"
    save_tangles(ts, p)
    ts2 = load_tangles(p, G)
    assert len(ts2) == len(ts)
    assert [set(O) for O in ts2] == [set(O) for O in ts]
    with pytest.raises(ParseError):
        save_tangles([], p)


def test_tangle_row_that_is_not_consistent_is_a_parse_error(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "t.json"
    obj = json.loads(save_tangles(ts, p))
    obj["tangles"][0] = [1 - b for b in obj["tangles"][0]]
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="not consistent"):
        load_tangles(p, G)


def test_star_family_round_trip(tmp_path, twin):
    G, S, ts = twin
    from tangletree.tangles import StarFamily
    Tk = CoverFamily(G, 3, stars_only=True)
    F = StarFamily(elements_over(Tk, S), tag="twin")
    p = tmp_path / "f.json"
    save_star_family(F, p)
    got = load_star_family(p, G)
    assert got.tag == "twin" and got.elements == F.elements


def test_nested_set_round_trip(tmp_path, twin):
    G, S, ts = twin
    N = build_efficient_nested_set(ts, S)
    p = tmp_path / "n.json"
    ann = {s: (0, 1) for s in N}
    text = save_nested_set(N, p, annotations=ann)
    assert json.loads(text)["distinguishes"] == [[0, 1]] * len(N)
    N2 = load_nested_set(p, S)
    assert set(N2) == set(N)


def test_tree_decomposition_round_trip(tmp_path, twin):
    G, S, ts = twin
    N = build_efficient_nested_set(ts, S)
    TD = to_tree_decomposition(N, G)
    p = tmp_path / "td.json"
    text = save_tree_decomposition(TD, p)
    TD2 = load_tree_decomposition(p)
    assert TD2.bags == TD.bags and TD2.edges == TD.edges
    assert TD2.graph.n == G.n
    obj = json.loads(text)
    obj["nodes"][0]["id"] = 5
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_tree_decomposition(p)


def test_universe_round_trip_is_byte_identical(tmp_path):
    u = random_distributive_universe(3)
    p1, p2 = tmp_path / "u1.json", tmp_path / "u2.json"
    text1 = save_universe(u, p1)
    u2 = load_universe(p1)
    text2 = save_universe(u2, p2)
    assert text1 == text2
    assert [x.name for x in u2] == [x.name for x in u]


def test_save_universe_matches_the_element_writer(tmp_path):
    # the table writer against the writer by element calls, on the 36
    # benchmark universes and on a file with other names and nonzero orders
    universes = [random_distributive_universe(seed) for seed in range(36)]
    obj = json.loads(save_universe(universes[4], tmp_path / "u.json"))
    rename = {v: "x%d" % (37 * i % 101) for i, v in enumerate(obj["elements"])}
    for key in ("leq", "meet", "join"):
        obj[key] = [[rename[v] for v in row] for row in obj[key]]
    obj["inv"] = {rename[a]: rename[b] for a, b in obj["inv"].items()}
    obj["order"] = {rename[v]: i % 3 for i, v in enumerate(obj["elements"])}
    obj["elements"] = [rename[v] for v in reversed(obj["elements"])]
    p = tmp_path / "renamed.json"
    p.write_text(json.dumps(obj))
    universes.append(load_universe(p))
    for u in universes:
        text = save_universe(u, tmp_path / "a.json", seed=3)
        assert text == reference_save_universe(u, tmp_path / "b.json", seed=3)
    assert '"order"' in text and '"x' in text


@pytest.mark.parametrize("table", ["leq", "meet", "join"])
@pytest.mark.parametrize("name, message", [(["e01"], "needs rows"), (5, "needs rows"),
                                           (None, "needs rows"),
                                           ("zz", "unknown element id 'zz'")])
def test_universe_row_with_a_bad_name_is_a_parse_error(tmp_path, table, name, message):
    obj = json.loads(save_universe(random_distributive_universe(1), tmp_path / "u.json"))
    obj[table][3][1] = name
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=message):
        load_universe(p)


@pytest.mark.parametrize("table", ["meet", "join"])
def test_universe_table_that_is_not_total_is_a_parse_error(tmp_path, table):
    obj = json.loads(save_universe(random_distributive_universe(1), tmp_path / "u.json"))
    a, b = obj["elements"][1:3]
    obj[table] = [row for row in obj[table] if {row[0], row[1]} != {a, b}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="%s table is not total" % table):
        load_universe(p)


def test_abstract_round_trips(tmp_path):
    u = random_distributive_universe(1)
    S = u.system()
    F = t_tilde_star(S)
    p = tmp_path / "a.json"
    save_abstract_system(S, p)
    S2 = load_abstract_system(p, u)
    assert set(S2) == set(S)
    save_abstract_star_family(F, p)
    F2 = load_abstract_star_family(p, u)
    assert F2.elements == F.elements and F2.tag == F.tag
    members = [x for x in S if not x.is_small and not x.is_cosmall
               and not x.is_degenerate][:1]
    N = NestedSet(S, members)
    save_abstract_nested_set(N, p)
    N2 = load_abstract_nested_set(p, S)
    assert set(N2) == set(N)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


def test_nested_set_without_members_is_a_parse_error(tmp_path, twin):
    G, S, ts = twin
    p = _write(tmp_path / "n.json", {"format": "nested-set", "n": G.n, "k": 3})
    with pytest.raises(ParseError, match="members"):
        load_nested_set(p, S)


def test_nested_set_member_outside_the_system_is_a_parse_error(tmp_path):
    G = bridged_cliques(4)
    S = enumerate_separations(G, 2)
    p = _write(tmp_path / "n.json", {"format": "nested-set", "n": G.n, "k": 2,
                                     "members": [[[0, 1, 2, 3, 4], [3, 4, 5, 6, 7]]]})
    with pytest.raises(ParseError, match="not in the system"):
        load_nested_set(p, S)
    u = random_distributive_universe(1)
    x = next(x for x in u if not x.is_degenerate)
    y = next(y for y in u if y not in (x, x.inv))
    p = _write(tmp_path / "a.json", {"format": "abstract-nested-set", "members": [y.name]})
    with pytest.raises(ParseError, match="not in the system"):
        load_abstract_nested_set(p, u.system([x, x.inv]))


def test_abstract_nested_set_without_members_is_a_parse_error(tmp_path):
    S = random_distributive_universe(1).system()
    p = _write(tmp_path / "n.json", {"format": "abstract-nested-set"})
    with pytest.raises(ParseError, match="members"):
        load_abstract_nested_set(p, S)


def test_abstract_nested_set_with_an_unknown_name_is_a_parse_error(tmp_path):
    S = random_distributive_universe(1).system()
    for members in (["nope"], [["e00"]]):
        p = _write(tmp_path / "n.json", {"format": "abstract-nested-set",
                                         "members": members})
        with pytest.raises(ParseError):
            load_abstract_nested_set(p, S)


def test_tangle_row_that_is_not_a_list_is_a_parse_error(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "t.json"
    obj = json.loads(save_tangles(ts, p))
    obj["tangles"][0] = 0
    with pytest.raises(ParseError, match="tangle row"):
        load_tangles(_write(p, obj), G)


def test_tangle_side_other_than_0_or_1_is_a_parse_error(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "t.json"
    obj = json.loads(save_tangles(ts, p))
    obj["tangles"][0][0] = 7
    with pytest.raises(ParseError, match="tangle row"):
        load_tangles(_write(p, obj), G)


def test_system_k_that_is_not_an_integer_is_a_parse_error(tmp_path, twin):
    G, S, ts = twin
    p = tmp_path / "s.json"
    obj = json.loads(save_system(S, p))
    obj["k"] = "x"
    with pytest.raises(ParseError, match="'k'"):
        load_system(_write(p, obj), G)


def test_report_reducer(tmp_path):
    p = tmp_path / "r.json"
    rep = {"ok": True, "count": 3, "bags": [frozenset({2, 1})],
           "pair": (0, 1), "extra": None}
    text = save_report(rep, p, seed=0)
    obj = json.loads(text)
    assert obj["report"]["bags"] == [[1, 2]]
    assert obj["report"]["pair"] == [0, 1]
    assert obj["seed"] == 0


def test_export_dot_tree_decomposition(tmp_path, twin):
    G, S, ts = twin
    N = build_efficient_nested_set(ts, S)
    TD = to_tree_decomposition(N, G)
    text = export_dot(TD)
    assert text.startswith("graph tangletree {")
    assert text.count("--") == len(TD.edges)
    assert '"{0,1,2,3}"' in text and '"{3,4,5,6,7}"' in text
    assert 'label="1"' in text  # the bridge separation has order 1
    assert export_dot(TD) == text
