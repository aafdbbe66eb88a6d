"""Command-line interface: artifacts, exit codes and determinism."""

import json

import pytest

from conftest import random_graph
from tangletree import (blocks, cli, cliquetangles, distinguish, refine,
                        tangles, trees, universe)
from tangletree.examples import bridged_cliques
from tangletree.graphs import complete_graph, path_graph
from tangletree.io import (save_graph, save_tree_decomposition, save_universe)
from tangletree.seps import enumerate_separations
from tangletree.tangles import CoverFamily
from tangletree.trees import NestedSet, TreeDecomposition
from tangletree.universe import random_distributive_universe


@pytest.fixture
def twin_graph(tmp_path):
    p = tmp_path / "twin.json"
    save_graph(bridged_cliques(4), p)
    return str(p)


def _read(path):
    return json.loads(path.read_text())


def test_tangles_subcommand(tmp_path, twin_graph):
    out = tmp_path / "run"
    code = cli.run(["tangles", "--graph", twin_graph, "--k", "3",
                    "--family", "Tk", "--seed", "5", "--out", str(out)])
    assert code == 0
    sysobj = _read(out / "system.json")
    tobj = _read(out / "tangles.json")
    assert sysobj["format"] == "separation-system" and sysobj["seed"] == 5
    assert tobj["format"] == "tangle-set" and len(tobj["tangles"]) == 2


def test_tangles_edge_list_input(tmp_path):
    p = tmp_path / "k4.txt"
    G = complete_graph(4)
    p.write_text("".join("%d %d\n" % e for e in G.edge_tuples()))
    out = tmp_path / "run"
    code = cli.run(["tangles", "--graph", str(p), "--k", "3",
                    "--out", str(out)])
    assert code == 0
    assert len(_read(out / "tangles.json")["tangles"]) == 1


def test_tangles_empty_result_writes_report(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    out = tmp_path / "run"
    code = cli.run(["tangles", "--graph", str(p), "--k", "3", "--out", str(out)])
    assert code == 0
    obj = _read(out / "tangles.json")
    assert obj["format"] == "report" and obj["report"]["tangles"] == 0


def test_tot_and_refine_subcommands(tmp_path, twin_graph):
    out = tmp_path / "run"
    assert cli.run(["tot", "--graph", twin_graph, "--k", "3",
                    "--out", str(out)]) == 0
    nested = _read(out / "nested.json")
    assert len(nested["members"]) == 1 and nested["distinguishes"] == [[0, 1]]
    assert cli.run(["refine", "--graph", twin_graph, "--k", "3",
                    "--out", str(out)]) == 0
    td = _read(out / "td.json")
    bags = sorted(sorted(d["bag"]) for d in td["nodes"])
    assert [0, 1, 2, 3] in bags
    dot = (out / "td.dot").read_text()
    assert dot.startswith("graph tangletree {")


def test_verify_subcommand_pass_and_fail(tmp_path, twin_graph):
    out = tmp_path / "run"
    cli.run(["refine", "--graph", twin_graph, "--k", "3", "--out", str(out)])
    code = cli.run(["verify", "--graph", twin_graph, "--k", "3",
                    "--td", str(out / "td.json"), "--out", str(out)])
    assert code == 0
    assert _read(out / "verify.json")["report"]["efficient"] is True
    # a single-bag decomposition distinguishes nothing
    G = bridged_cliques(4)
    bad = tmp_path / "bad.json"
    save_tree_decomposition(TreeDecomposition(G, [G.vertices], []), bad)
    code = cli.run(["verify", "--graph", twin_graph, "--k", "3",
                    "--td", str(bad), "--out", str(out)])
    assert code == 1
    assert _read(out / "verify.json")["report"]["efficient"] is False


def test_verify_rejects_foreign_graph(tmp_path, twin_graph):
    out = tmp_path / "run"
    cli.run(["refine", "--graph", twin_graph, "--k", "3", "--out", str(out)])
    other = tmp_path / "k4.json"
    save_graph(complete_graph(4), other)
    code = cli.run(["verify", "--graph", str(other), "--k", "3",
                    "--td", str(out / "td.json"), "--out", str(out)])
    assert code == 2


def test_refine_then_verify_at_k1_on_an_edgeless_graph(tmp_path):
    # three isolated vertices are three 1-tangles, which two separations
    # distinguish; one bag would leave them undistinguished
    graph = tmp_path / "e3.json"
    graph.write_text(json.dumps({"format": "graph", "n": 3, "edges": []}))
    out = tmp_path / "run"
    assert cli.run(["refine", "--graph", str(graph), "--k", "1",
                    "--out", str(out)]) == 0
    assert len(_read(out / "td.json")["nodes"]) == 3
    assert cli.run(["verify", "--graph", str(graph), "--k", "1",
                    "--td", str(out / "td.json"), "--out", str(out)]) == 0


@pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
def test_refine_keeps_a_graph_with_fewer_than_k_vertices_as_one_bag(tmp_path, n, k):
    # no T_k-tangle, and every carving of the empty star needs a degenerate
    # split: the answer is that of K2 at k=2, no separation and one bag V(G)
    graph = tmp_path / "g.json"
    save_graph(complete_graph(n), graph)
    out = tmp_path / "run"
    assert cli.run(["refine", "--graph", str(graph), "--k", str(k), "--family", "Tk",
                    "--out", str(out)]) == 0
    assert _read(out / "refined.json")["members"] == []
    td = _read(out / "td.json")
    assert td["nodes"] == [{"bag": list(range(n)), "id": 0}] and td["edges"] == []
    N, TD = refine.theorem_1_2(complete_graph(n), CoverFamily(complete_graph(n), k),
                               NestedSet(enumerate_separations(complete_graph(n), k), []))
    assert not len(N) and TD.bags == [frozenset(range(n))] and not TD.edges


def test_blocks_subcommand(tmp_path, twin_graph):
    out = tmp_path / "run"
    assert cli.run(["blocks", "--graph", twin_graph, "--k", "3",
                    "--out", str(out)]) == 0
    rep = _read(out / "blocks.json")["report"]
    assert [b["vertices"] for b in rep["blocks"]] == [[0, 1, 2, 3], [4, 5, 6, 7]]


@pytest.mark.parametrize("command,flag", [
    ("verify", ["--family", "Tk"]),
    ("blocks", ["--family", "Tk"]),
    ("blocks", ["--max-system", "10"]),
    ("abstract", ["--max-vertices", "10"]),
    ("abstract", ["--max-system", "10"])])
def test_a_flag_the_command_does_not_read_is_rejected(tmp_path, twin_graph, capsys,
                                                      command, flag):
    required = {"verify": ["--graph", twin_graph, "--k", "3", "--td", "td.json"],
                "blocks": ["--graph", twin_graph, "--k", "3"],
                "abstract": ["--universe", "u.json"]}[command]
    with pytest.raises(SystemExit) as e:
        cli.run([command, *required, *flag, "--out", str(tmp_path)])
    assert e.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


def test_abstract_subcommand(tmp_path):
    u = random_distributive_universe(2)
    p = tmp_path / "u.json"
    save_universe(u, p)
    out = tmp_path / "run"
    assert cli.run(["abstract", "--universe", str(p), "--out", str(out)]) == 0
    obj = _read(out / "refined.json")
    assert obj["format"] == "abstract-nested-set" and obj["members"]


def _universe_file(tmp_path, edit):
    """A saved random_distributive_universe(4) after `edit` changed its JSON."""
    p = tmp_path / "u.json"
    save_universe(random_distributive_universe(4), p)
    obj = _read(p)
    edit(obj)
    p.write_text(json.dumps(obj))
    return str(p)


def test_abstract_rejects_a_universe_that_fails_an_axiom(tmp_path, capsys):
    def swap(obj):
        obj["inv"]["e00"] = "e01"
    p = _universe_file(tmp_path, swap)
    assert cli.run(["abstract", "--universe", p, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "involution_order_reversing" in err and "not friendly" not in err


@pytest.mark.parametrize("edit", [
    lambda obj: obj.pop("meet"),
    lambda obj: obj["meet"].__setitem__(0, obj["meet"][0][:2]),
    lambda obj: obj["leq"].__setitem__(0, obj["leq"][0][:1]),
    lambda obj: obj.__setitem__("inv", sorted(obj["inv"].items())),
    lambda obj: obj.__setitem__("order", {name: "x" for name in obj["elements"]}),
], ids=["meet-missing", "short-meet-row", "short-leq-row", "inv-as-list",
        "non-integer-order"])
def test_abstract_malformed_universe_is_input_error(tmp_path, edit):
    p = _universe_file(tmp_path, edit)
    assert cli.run(["abstract", "--universe", p, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("option,obj", [
    ("--system", {"format": "abstract-system"}),
    ("--system", {"format": "abstract-system", "members": ["nope"]}),
    ("--system", {"format": "abstract-system", "members": ["e00"]}),
    ("--family", {"format": "abstract-star-family"}),
    ("--family", {"format": "abstract-star-family", "stars": [["nope"]]}),
], ids=["system-members-missing", "system-unknown-name", "system-without-inverse",
        "family-stars-missing", "family-unknown-name"])
def test_abstract_malformed_system_or_family_is_input_error(tmp_path, option, obj):
    u = _universe_file(tmp_path, lambda obj: None)
    p = tmp_path / "given.json"
    p.write_text(json.dumps(obj))
    given = str(p) if option == "--system" else "file:" + str(p)
    assert cli.run(["abstract", "--universe", u, option, given,
                    "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("obj", [
    {"edges": [[0, 1]]},
    {"n": 2, "edges": [[0, 0]]},
    {"n": 2, "edges": [[0, 5]]},
    {"n": "2", "edges": [[0, 1]]},
    {"n": 3, "edges": [[0, 1, 2]]},
], ids=["n-missing", "self-loop", "out-of-range-vertex", "non-integer-n",
        "edge-not-a-pair"])
def test_malformed_graph_is_input_error(tmp_path, obj):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(dict(obj, format="graph")))
    assert cli.run(["tangles", "--graph", str(p), "--k", "2",
                    "--out", str(tmp_path / "run")]) == 2


_TD = {"format": "tree-decomposition", "n": 2, "graph_edges": [[0, 1]],
       "nodes": [{"id": 0, "bag": [0, 1]}], "edges": []}


@pytest.mark.parametrize("edit", [
    {"n": None},
    {"graph_edges": [[0, 1], [1, 1]]},
    {"nodes": [{"bag": [0, 1]}]},
    {"nodes": [{"id": 0}]},
    {"edges": [[0, 3]]},
    {"nodes": [{"id": 0, "bag": [0, 1, 9]}]},
], ids=["n-missing", "self-loop", "node-without-id", "node-without-bag",
        "edge-to-missing-node", "bag-vertex-outside-graph"])
def test_malformed_tree_decomposition_is_input_error(tmp_path, edit):
    graph, td = tmp_path / "g.json", tmp_path / "td.json"
    graph.write_text(json.dumps({"format": "graph", "n": 2, "edges": [[0, 1]]}))
    td.write_text(json.dumps({key: value for key, value in dict(_TD, **edit).items()
                              if value is not None}))
    out = str(tmp_path / "run")
    assert cli.run(["export-dot", "--td", str(td), "--out", out]) == 2
    assert cli.run(["verify", "--graph", str(graph), "--k", "2",
                    "--td", str(td), "--out", out]) == 2


def test_bag_vertex_outside_graph_is_named(tmp_path, capsys):
    td = tmp_path / "td.json"
    td.write_text(json.dumps(dict(_TD, nodes=[{"id": 0, "bag": [0, 1, 9]}])))
    assert cli.run(["export-dot", "--td", str(td)]) == 2
    assert "[9]" in capsys.readouterr().err


@pytest.mark.parametrize("bags,edges", [
    ([[0, 1], [0, 1]], [[0, 1], [1, 0]]),
    ([[0, 1]], [[0, 0]]),
], ids=["repeated-edge", "self-edge"])
def test_verify_rejects_a_decomposition_that_is_not_a_tree(tmp_path, capsys, bags, edges):
    graph, td = tmp_path / "g.json", tmp_path / "td.json"
    graph.write_text(json.dumps({"format": "graph", "n": 2, "edges": [[0, 1]]}))
    nodes = [{"id": i, "bag": bag} for i, bag in enumerate(bags)]
    td.write_text(json.dumps(dict(_TD, nodes=nodes, edges=edges)))
    out = tmp_path / "run"
    assert cli.run(["verify", "--graph", str(graph), "--k", "2",
                    "--td", str(td), "--out", str(out)]) == 1
    assert _read(out / "verify.json")["report"]["witness"][0] == "not-a-tree"
    capsys.readouterr()
    # export-dot draws nothing for it: an input error naming the fault
    assert cli.run(["export-dot", "--td", str(td)]) == 2
    captured = capsys.readouterr()
    assert "not-a-tree" in captured.err and captured.out == ""


@pytest.mark.parametrize("star,fault", [
    ([[[0, 1]]], "pair [A, B]"),
    ([[[0, 1, 9], [1, 2, 3]]], "[9] are not in the graph"),
    ([[[0, 1], [2, 3]]], "edge [1, 2] crosses"),
], ids=["one-side", "vertex-outside-graph", "crossing-edge"])
def test_malformed_family_file_is_input_error(tmp_path, capsys, star, fault):
    graph, fam = tmp_path / "p4.json", tmp_path / "f.json"
    save_graph(path_graph(4), graph)
    fam.write_text(json.dumps({"format": "star-family", "stars": [star]}))
    assert cli.run(["tangles", "--graph", str(graph), "--k", "2",
                    "--family", "file:" + str(fam),
                    "--out", str(tmp_path / "run")]) == 2
    assert fault in capsys.readouterr().err


@pytest.mark.parametrize("command,k", [("blocks", "0"), ("blocks", "-1"),
                                       ("tangles", "-1")])
def test_k_below_one_is_input_error(tmp_path, twin_graph, command, k):
    assert cli.run([command, "--graph", twin_graph, "--k", k,
                    "--out", str(tmp_path / "run")]) == 2


def test_export_dot_subcommand(tmp_path, twin_graph, capsys):
    out = tmp_path / "run"
    cli.run(["refine", "--graph", twin_graph, "--k", "3", "--out", str(out)])
    capsys.readouterr()
    assert cli.run(["export-dot", "--td", str(out / "td.json")]) == 0
    assert capsys.readouterr().out.startswith("graph tangletree {")
    out2 = tmp_path / "dot"
    assert cli.run(["export-dot", "--td", str(out / "td.json"),
                    "--out", str(out2)]) == 0
    assert (out2 / "td.dot").read_text().startswith("graph tangletree {")


def test_exit_codes_for_bad_input(tmp_path, twin_graph):
    out = str(tmp_path / "run")
    assert cli.run(["tangles", "--graph", "/nope.json", "--k", "3",
                    "--out", out]) == 2
    assert cli.run(["tangles", "--graph", twin_graph, "--k", "3",
                    "--family", "bogus", "--out", out]) == 2
    assert cli.run(["tangles", "--graph", twin_graph, "--k", "3",
                    "--max-vertices", "4", "--out", out]) == 3
    assert cli.run(["tangles", "--graph", twin_graph, "--k", "3",
                    "--max-system", "0", "--out", out]) == 2
    path = tmp_path / "path41.txt"
    path.write_text("".join("%d %d\n" % (v, v + 1) for v in range(40)))
    assert cli.run(["blocks", "--graph", str(path), "--k", "2",
                    "--max-vertices", "8", "--out", out]) == 3
    far = tmp_path / "far.txt"
    far.write_text("0 100000\n")
    assert cli.run(["blocks", "--graph", str(far), "--k", "2", "--out", out]) == 3


@pytest.mark.parametrize("case", [
    "graph-dir", "universe-dir", "system-dir", "td-dir", "export-dot-td-dir",
    "family-dir", "abstract-family-dir", "graph-not-utf8", "universe-not-utf8",
    "out-is-a-file"])
def test_an_unreadable_path_is_input_error(tmp_path, twin_graph, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"format": "graph", "n": 2, "edges": []}\xff\xfe\n')
    afile = tmp_path / "afile"
    afile.write_text("x")
    u = tmp_path / "u.json"
    save_universe(random_distributive_universe(2), u)
    out = str(tmp_path / "run")
    graph = ["--graph", twin_graph, "--k", "3"]
    argv = {
        "graph-dir": ["tangles", "--graph", str(folder), "--k", "3", "--out", out],
        "universe-dir": ["abstract", "--universe", str(folder), "--out", out],
        "system-dir": ["abstract", "--universe", str(u), "--system", str(folder),
                       "--out", out],
        "td-dir": ["verify", *graph, "--td", str(folder), "--out", out],
        "export-dot-td-dir": ["export-dot", "--td", str(folder)],
        "family-dir": ["tangles", *graph, "--family", "file:%s" % folder, "--out", out],
        "abstract-family-dir": ["abstract", "--universe", str(u),
                                "--family", "file:%s" % folder, "--out", out],
        "graph-not-utf8": ["tangles", "--graph", str(binary), "--k", "3", "--out", out],
        "universe-not-utf8": ["abstract", "--universe", str(binary), "--out", out],
        "out-is-a-file": ["tangles", *graph, "--out", str(afile)],
    }[case]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_reruns_are_byte_identical(tmp_path, twin_graph):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.run(["refine", "--graph", twin_graph, "--k", "3",
                 "--seed", "9", "--out", str(out)])
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    assert set(outs[0]) == {"refined.json", "td.dot", "td.json"}


@pytest.mark.parametrize("command", ["tot", "refine", "abstract"])
def test_each_command_builds_one_table_and_searches_once(tmp_path, twin_graph,
                                                        monkeypatch, command):
    calls = {"tables": 0, "searches": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    table = distinguish.DistinguisherTable
    monkeypatch.setattr(table, "__init__", counted("tables", table.__init__))
    search = counted("searches", tangles.f_tangles)
    # modules bind f_tangles by name at import, so each binding is replaced
    for module in (blocks, cli, cliquetangles, distinguish, refine, tangles,
                   trees, universe):
        if getattr(module, "f_tangles", None) is tangles.f_tangles:
            monkeypatch.setattr(module, "f_tangles", search)
    if command == "abstract":
        u = tmp_path / "u.json"
        save_universe(random_distributive_universe(2), u)
        source = ["--universe", str(u)]
    else:
        source = ["--graph", twin_graph, "--k", "3"]
    assert cli.run([command, *source, "--out", str(tmp_path / "run")]) == 0
    assert calls == {"tables": 1, "searches": 1}


def test_refine_search_budget_is_cap_exceeded(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.json"
    save_graph(random_graph(0, 6, 10), graph)
    monkeypatch.setattr(refine, "MAX_EXPANSIONS", 0)
    assert cli.run(["refine", "--graph", str(graph), "--k", "3",
                    "--out", str(tmp_path / "run")]) == 3
    assert "search budget exhausted" in capsys.readouterr().err


def test_profile_split_search_reaches_its_budget(tmp_path, capsys):
    # no regular profile, and no refinement of the root star into the profile
    # family within MAX_EXPANSIONS: the split search must spend its budget in
    # seconds and exit 3, not run for minutes
    graph = tmp_path / "g.json"
    save_graph(random_graph(3), graph)
    assert cli.run(["refine", "--graph", str(graph), "--k", "4", "--family", "profiles",
                    "--out", str(tmp_path / "run")]) == 3
    assert "refinement search budget exhausted" in capsys.readouterr().err
