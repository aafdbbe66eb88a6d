"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker
from workloads import BUILDERS, random_graph, write_inputs

from tangletree import io as tio
from tangletree.examples import bridged_cliques
from tangletree.graphs import _min_vertex_cut_size, min_vertex_cut_size
from tangletree.universe import random_distributive_universe


def _setup(workload, seed, directory):
    result = run.spawn(workload, seed, str(directory), "setup")
    assert result is not None
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_repetition_starts_with_empty_cut_cache(workload, tmp_path):
    # a warm cache would let a repetition skip audit work every CLI user pays
    assert _setup(workload, 1, tmp_path / "a")["cache_entries"] == 0


def test_cache_guard_sees_a_warm_cache():
    try:
        min_vertex_cut_size(bridged_cliques(4), 0, 7)
        assert worker.cache_entries() > 0
    finally:
        _min_vertex_cut_size.cache_clear()


def test_inputs_follow_the_seed(tmp_path):
    a = _setup("profile-audit", 7, tmp_path / "a")["inputs_sha"]
    b = _setup("profile-audit", 7, tmp_path / "b")["inputs_sha"]
    c = _setup("profile-audit", 8, tmp_path / "c")["inputs_sha"]
    assert a == b != c


def test_every_seed_writes_the_tier1_instances(tmp_path):
    audit = {i["id"]: i for i in BUILDERS["profile-audit"]()}
    graph = tio.save_graph(random_graph(5), str(tmp_path / "g5.json"))
    universe = tio.save_universe(random_distributive_universe(3), str(tmp_path / "u3.json"))
    for seed in (0, 7):
        g = write_inputs(audit["random-05-k3"], str(tmp_path / ("g%d" % seed)), seed)
        u = write_inputs(BUILDERS["abstract-universes"]()[3], str(tmp_path / ("u%d" % seed)), seed)
        assert tio.load_graph(g["graph.json"]) == random_graph(5)
        assert tio.save_universe(tio.load_universe(u["universe.json"]),
                                 str(tmp_path / "again.json")) == universe
        with open(g["graph.json"]) as f:
            assert (f.read() == graph) == (seed == 0)


def test_self_times_subtract_children():
    spans = [["instance", 0.0, 10.0, None, "x"],
             ["cli.refine", 1.0, 9.0, 0, "x"],
             ["tangles.search", 2.0, 5.0, 1, "x"],
             ["io.save", 4.0, 6.0, 1, "x"]]
    assert run.self_times(spans) == [2.0, 4.0, 3.0, 2.0]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(range(72)) == (61, 100.0 * 62 / 72, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def _bench(cwd, *flags):
    return subprocess.run([sys.executable, *flags, "bench/run.py", "--workload",
                           "clique-tangles", "--seconds", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def test_refuses_python_O():
    proc = _bench(run.ROOT, "-O")
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_reference_covers_every_instance():
    with open(run.REFERENCE) as f:
        ref = json.load(f)
    for w in run.WORKLOADS:
        assert set(ref["workloads"][w]) == {i["id"] for i in BUILDERS[w]()}


def test_traced_run_is_the_cli_run(tmp_path):
    plain = run.spawn("random-refine", 2, str(tmp_path / "p"), "plain")
    traced = run.spawn("random-refine", 2, str(tmp_path / "t"), "traced")
    assert [r["digests"] for r in traced["instances"]] == \
        [r["digests"] for r in plain["instances"]]
    spans = traced["spans"]
    parents = {(name, spans[parent][0]) for name, _, _, parent, _ in spans
               if parent is not None}
    # the refinement's own is_valid check and the nested-set search's own
    # DistinguisherTable stay inside their callers' spans
    assert {p for n, p in parents if n == "distinguish.table"} == {"cli.refine"}
    assert "trees.validate" not in {n for n, _ in parents}
    assert {n for n, _ in parents} >= {"cli.refine", "seps.enumerate", "tangles.search",
                                       "refine.theorem_1_2", "io.load", "io.save"}
    assert traced["counts"]["refine.bags"] > 0
