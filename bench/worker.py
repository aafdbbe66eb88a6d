"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --dir DIR --mode MODE

MODE is `setup` (set up, then stop), `plain` (run every instance through
`tangletree.cli.run`) or `traced` (the same, with the spans of traced.py
installed).  The worker writes DIR/result.json; `run.py` starts it once per
repetition, so no repetition inherits the caches of another.  Set-up ends,
and timing starts, at the perf_counter value reported as `ready`: on Linux
it reads the system-wide monotonic clock, so the parent can subtract its own
start stamp.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# every module the commands import lazily, so that set-up pays for the
# imports rather than whichever instance happens to run first
import tangletree.blocks  # noqa: E402,F401
import tangletree.refine  # noqa: E402,F401
import tangletree.universe  # noqa: E402,F401
from tangletree import cli  # noqa: E402
from tangletree import io as tio  # noqa: E402
from tangletree.cliquetangles import CliqueCover  # noqa: E402
from tangletree.graphs import _min_vertex_cut_size  # noqa: E402

import traced  # noqa: E402
from workloads import BUILDERS, instances, write_inputs  # noqa: E402


def cache_entries():
    """Entries in the process-wide vertex-cut cache; nonzero at the start of
    a repetition means it would skip audit work every CLI user pays."""
    return _min_vertex_cut_size.cache_info().currsize


def _argv(argv, paths, out):
    subst = dict(paths, out=out)
    filled = []
    for arg in argv:
        for name, value in subst.items():
            arg = arg.replace("{%s}" % name, value)
        filled.append(arg)
    return filled


def clique_cover(paths, k, right):
    """The clique-cover oracle on a graph glued from cliques: its base
    separations, its tangles, and the star census of the tangle living on
    clique number `right`.  No CLI command runs this layer."""
    G = tio.load_graph(paths["graph.json"])
    with open(paths["cliques.json"]) as f:
        cliques = [frozenset(c) for c in json.load(f)]
    cov = CliqueCover(G, cliques, k)
    bases = cov.base_separations()
    ts = cov.tangles()
    tau = next(t for t in ts if any(cliques[right] <= s.B for s in t.members()))
    return len(bases), len(ts), cov.star_census(tau, ts)


def _run_instance(inst, paths, out):
    """(exit code, clique-cover result or None, captured stdout)."""
    if inst["commands"] == "cliquecover":
        return 0, clique_cover(paths, inst["cover_k"], inst["right"]), ""
    buf = io.StringIO()
    rc = 0
    with redirect_stdout(buf):
        for argv in inst["commands"]:
            rc = cli.run(_argv(argv, paths, out))
            if rc:
                break
    return rc, None, buf.getvalue()


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _is_decomposition(graph_path, td):
    """Independent check that td.json is a tree-decomposition of the input."""
    with open(graph_path) as f:
        graph = json.load(f)
    bags = [set(d["bag"]) for d in sorted(td["nodes"], key=lambda d: d["id"])]
    adj = {i: set() for i in range(len(bags))}
    for i, j in td["edges"]:
        adj[i].add(j)
        adj[j].add(i)

    def connected(nodes):
        if not nodes:
            return False
        seen, stack = set(), [min(nodes)]
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(adj[i] & nodes)
        return seen == nodes

    edges = sorted(sorted(e) for e in graph["edges"])
    return (td["n"] == graph["n"] and td["graph_edges"] == edges
            and len(td["edges"]) == len(bags) - 1 and connected(set(adj))
            and all(any(set(e) <= b for b in bags) for e in edges)
            and all(connected({i for i, b in enumerate(bags) if v in b})
                    for v in range(graph["n"])))


def _summary(inst, paths, out, result, stdout):
    """What the artifacts say about the claims the instance checks."""
    if result is not None:
        bases, tangles, census = result
        best = min(i for (_, i, _) in census)
        return {"base_separations": bases, "tangles": tangles,
                "minimal_star": best,
                "minimal_star_owners": sorted({o for (_, i, o) in census if i == best}),
                "minimal_exclusive_star": min(i for (_, i, o) in census if o == 1)}
    out_files = set(os.listdir(out))
    s = {}
    if "td.json" in out_files:
        with open(os.path.join(out, "td.json")) as f:
            td = json.load(f)
        s["decomposition"] = _is_decomposition(paths["graph.json"], td)
        if "tangle_bags" in inst:
            # the essential parts are the clique bags, one per tangle
            with open(paths["cliques.json"]) as f:
                cliques = [frozenset(c) for c in json.load(f)]
            s["tangles"] = sum(1 for d in td["nodes"] if len(d["bag"]) == inst["tangle_bags"]
                               and frozenset(d["bag"]) in cliques)
            if "cross_check_k" in inst:
                G = tio.load_graph(paths["graph.json"])
                s["cover_tangles"] = len(CliqueCover(G, cliques, inst["cross_check_k"]).tangles())
    if "verify.json" in out_files:
        with open(os.path.join(out, "verify.json")) as f:
            rep = json.load(f)["report"]
        for key in ("valid", "efficient", "big_parts", "blocks_are_parts"):
            s[key] = rep[key]
    if stdout.startswith("abstract:"):
        s["tangles"] = int(stdout.split()[1])
    return s


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--mode", required=True, choices=["setup", "plain", "traced"])
    a = p.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under python -O")
    insts = instances(a.workload, a.seed)
    files = [write_inputs(inst, os.path.join(a.dir, "in", inst["id"]), a.seed)
             for inst in insts]
    result = {"instance_count": len(insts), "cache_entries": cache_entries()}
    result["ready"] = time.perf_counter()
    if a.mode != "setup":
        tr = traced.Tracer() if a.mode == "traced" else None
        if tr is not None:
            traced.install(tr)
        runs = []
        for inst, paths in zip(insts, files):
            out = os.path.join(a.dir, "out", inst["id"])
            if tr is not None:
                tr.instance = inst["id"]
            # a CLI call starts with no garbage of earlier calls to collect,
            # and without this the seed's instance order decides which
            # instance pays for the collections
            gc.collect()
            t0 = time.perf_counter()
            try:
                with tr.span("instance") if tr else nullcontext():
                    rc, res, stdout = _run_instance(inst, paths, out)
                err = None
            except Exception:
                # one failing instance is counted, not allowed to end the run
                rc, res, stdout, err = None, None, "", traceback.format_exc()
                sys.stderr.write(err)
            runs.append((inst, paths, out, time.perf_counter() - t0, rc, res, stdout, err))
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["instances"] = [_record(*r) for r in runs]
        if tr is not None:
            result["spans"] = tr.spans
            result["counts"] = tr.counts
            result["bytes_written"] = sum(os.path.getsize(os.path.join(r[2], n))
                                          for r in runs if os.path.isdir(r[2])
                                          for n in os.listdir(r[2]))
    result["inputs_sha"] = hashlib.sha256("".join(
        _sha(path) for paths in files for path in sorted(paths.values())).encode()).hexdigest()
    with open(os.path.join(a.dir, "result.json"), "w") as f:
        json.dump(result, f)


def _record(inst, paths, out, seconds, rc, res, stdout, err):
    rec = {"id": inst["id"], "seconds": seconds, "rc": rc, "error": err,
           "expect_tangles": inst.get("expect_tangles")}
    if err is None and rc == 0:
        rec["digests"] = ({n: _sha(os.path.join(out, n)) for n in sorted(os.listdir(out))}
                          if os.path.isdir(out) else {})
        try:
            rec["summary"] = _summary(inst, paths, out, res, stdout)
        except (OSError, ValueError, KeyError) as e:
            rec["error"] = "unreadable artifacts: %r" % (e,)
    return rec


if __name__ == "__main__":
    main()
