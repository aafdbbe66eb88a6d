"""Benchmark of the tangletree command line: seeded workloads run through
`tangletree.cli.run`, end-to-end metrics, and a traced per-layer split.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, untraced, seed 0

Each repetition runs the workload's whole instance list once, in a fresh
interpreter started by this script (see worker.py), and repetitions follow
one another, one process at a time, until the next one would end after
`--seconds`; each instance counts at its fastest repetition.  A few extra
interpreters only set up, so that set-up time is a median.  With
`--trace 0` the last line reports the end-to-end metrics; with `--trace 1`
untraced and traced repetitions alternate and it reports the per-layer
metrics.  Every instance is checked outside the timed
region against reference.json and the hand-written expectations in
workloads.py; a mismatch counts as a failed instance.  NOTES.md explains
the workloads and the metrics.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("clique-tangles", "random-refine", "profile-audit",
             "abstract-universes")
REFERENCE = os.path.join(BENCH, "reference.json")
FROZEN = os.path.join(ROOT, "data", "scaled_example.json")
SETUP_ONLY_RUNS = 6
REPETITION_TIMEOUT_S = 120

LAYER_TIMES = ("seps.enumerate", "tangles.family", "tangles.search",
               "distinguish.nested", "distinguish.table", "refine.theorem_1_2",
               "trees.validate", "blocks.audit", "cliquetangles.cover",
               "cliquetangles.tangles", "cliquetangles.census",
               "universe.system", "universe.family", "universe.distributive",
               "universe.theorem_1_3", "io.load", "io.save")
LAYER_COUNTS = {"seps.members": "count", "tangles.found": "count",
                "distinguish.members": "count", "refine.separations": "count",
                "refine.bags": "count", "blocks.claimed_parts": "count",
                "cliquetangles.base_separations": "count",
                "universe.elements": "count", "io.bytes_written": "bytes"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def spawn(workload, seed, directory, mode):
    """One worker process; its result with `setup` and `wall` added, or None
    if it crashed or overran."""
    os.makedirs(directory)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--dir", directory, "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s repetition overran %d s\n" % (mode, REPETITION_TIMEOUT_S))
        return None
    wall = time.perf_counter() - t0
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        return None
    with open(os.path.join(directory, "result.json")) as f:
        result = json.load(f)
    result["setup"] = result["ready"] - t0
    result["wall"] = wall
    return result


def problems(rec, ref, frozen):
    """Why one instance run counts as failed; empty if it passed.  `ref` is
    the instance's entry in reference.json, or None while recording it."""
    if rec["error"]:
        return [rec["error"].strip().splitlines()[-1]]
    if rec["rc"] != 0:
        return ["exit code %s" % rec["rc"]]
    s = rec["summary"]
    out = []
    if ref is not None:
        if s != ref["summary"]:
            out.append("summary %r differs from reference %r" % (s, ref["summary"]))
        if rec["digests"] != ref["digests"]:
            out.append("artifact digests differ from the seed commit")
    want = rec["expect_tangles"]
    if want is not None and (s.get("tangles"), s.get("cover_tangles", want)) != (want, want):
        out.append("expected %d tangles, found %r" % (want, s))
    if not all(s.get(k, True) for k in ("decomposition", "valid", "efficient",
                                        "big_parts", "blocks_are_parts")):
        out.append("artifact check failed: %r" % (s,))
    if "base_separations" in s:
        expected = {"base_separations": frozen["base_separations"],
                    "tangles": frozen["tangles"],
                    "minimal_star": frozen["minimal_star"]["interior"],
                    "minimal_star_owners": [frozen["minimal_star"]["owners"]],
                    "minimal_exclusive_star": frozen["minimal_exclusive_star"]["interior"]}
        if s != expected:
            out.append("clique-cover census %r differs from %r" % (s, expected))
    return out


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def split(spans):
    """Self time summed per (instance, span name)."""
    out = {}
    for (name, _, _, _, instance), t in zip(spans, self_times(spans)):
        out[instance, name] = out.get((instance, name), 0.0) + t
    return out


def best(samples):
    """Per key, the smallest value any repetition gave it."""
    out = {}
    for sample in samples:
        for key, value in sample.items():
            out[key] = min(out.get(key, value), value)
    return out


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum if there are fewer than 11."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def load_reference():
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, reference, frozen, work):
    """Run one workload; (result object for the last line, report lines).
    The set-up-only interpreters count against `seconds` too."""
    start = time.perf_counter()
    setups = [spawn(workload, seed, os.path.join(work, "setup%d" % i), "setup")
              for i in range(SETUP_ONLY_RUNS)]
    if any(r is None for r in setups):
        raise BenchError("set-up of %s failed" % workload)
    needed = {"plain", "traced"} if trace else {"plain"}
    modes = itertools.cycle(sorted(needed))
    reps = []
    for i in itertools.count():
        mode = next(modes)
        r = spawn(workload, seed, os.path.join(work, "rep%d" % i), mode)
        reps.append((mode, r))
        elapsed = time.perf_counter() - start
        last = r["wall"] if r else elapsed / len(reps)
        if needed <= {m for m, _ in reps} and elapsed + last > seconds:
            break

    ref = (reference or {}).get("workloads", {}).get(workload, {})
    n_instances = setups[0]["instance_count"]
    attempted = failed = 0
    first_digests = {}
    for mode, r in reps:
        if r is None:
            attempted += n_instances
            failed += n_instances
            continue
        r["self"] = split(r.get("spans", []))
        own = {}
        for (instance, _), t in r["self"].items():
            own[instance] = own.get(instance, 0.0) + t
        for rec in r["instances"]:
            attempted += 1
            why = problems(rec, ref.get(rec["id"]), frozen)
            if rec["id"] not in ref:
                why.append("no reference entry")
            if r["cache_entries"]:
                why.append("vertex-cut cache held %d entries at the start" % r["cache_entries"])
            if "digests" in rec and first_digests.setdefault(rec["id"], rec["digests"]) != rec["digests"]:
                why.append("artifacts differ between repetitions (%s)" % mode)
            # guards the span bookkeeping (nesting, self times), not the
            # figures: an instance's spans all lie inside its timed window
            if mode == "traced" and own.get(rec["id"], 0.0) > rec["seconds"]:
                why.append("span self times exceed the instance's wall time")
            if why:
                failed += 1
                sys.stderr.write("FAILED %s/%s (%s): %s\n" % (workload, rec["id"], mode,
                                                              "; ".join(why)))

    plain = [r for m, r in reps if m == "plain" and r]
    traced = [r for m, r in reps if m == "traced" and r]
    if not plain or (trace and not traced):
        raise BenchError("no repetition of %s completed" % workload)
    # Interference from other tenants of the host only ever adds time, and
    # comes and goes within seconds: each instance counts at its fastest
    # repetition of the run.
    times = best({rec["id"]: rec["seconds"] for rec in r["instances"]} for r in plain)
    solve = sum(times.values())
    lines = ["# workload %s, seed %d, %d plain and %d traced repetitions, "
             "%d set-up samples" % (workload, seed, len(plain), len(traced),
                                    len(setups) + len(plain) + len(traced))]
    if trace:
        metrics = {}
        layers = best(r["self"] for r in traced)
        for name in LAYER_TIMES:
            total = sum((t for (_, n), t in layers.items() if n == name), 0.0)
            metrics[name + "_s"] = (total, "s")
        counts = dict(traced[0]["counts"], **{"io.bytes_written": traced[0]["bytes_written"]})
        for name, unit in LAYER_COUNTS.items():
            metrics[name] = (counts.get(name, 0), unit)
        traced_total = sum(best({rec["id"]: rec["seconds"] for rec in r["instances"]}
                                for r in traced).values())
        metrics["trace.overhead_s"] = (traced_total - solve, "s")
        lines.append("# pass: untraced %.3f s, traced %.3f s" % (solve, traced_total))
    else:
        value, pct, beyond = tail(times.values())
        metrics = {
            "setup_s": (statistics.median(r["setup"] for r in setups + plain), "s"),
            "solve_s": (solve, "s"),
            "instance_p50_s": (statistics.median(times.values()), "s"),
            "instance_tail_s": (value, "s"),
            "peak_rss_mb": (statistics.median(r["rss_kb"] for r in plain) / 1024.0, "MB"),
        }
        lines.append("# instance_tail_s: p%.1f of %d instances, %d beyond it%s"
                     % (pct, len(times), beyond,
                        " (fewer than 11: the maximum)" if beyond == 0 else ""))
    for name, (value, unit) in metrics.items():
        lines.append("%-34s %14.6f %s" % (name, value, unit))
    lines.append("%-34s %14.6f ratio (%d failed of %d attempted)"
                 % ("failed_ratio", failed / attempted, failed, attempted))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=33)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = p.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the program's assert certificates: another program
        sys.exit("bench: refusing to run under python -O")
    if not os.path.isfile(os.path.join(ROOT, "src", "tangletree", "cli.py")):
        sys.exit("bench: no tangletree sources under %s" % os.path.join(ROOT, "src"))
    with open(FROZEN) as f:
        frozen = json.load(f)
    reference = load_reference()
    # SystemExit makes subprocess.run kill the running worker before leaving
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("bench: terminated"))
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    print("# python %s, nproc %d, optimize flag %d"
          % (platform.python_version(), os.cpu_count() or 0, sys.flags.optimize))
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {}
    try:
        for w in workloads:
            results[w], lines = measure(w, a.seed, a.seconds, a.trace, reference,
                                        frozen, os.path.join(work, w))
            print("\n".join(lines), flush=True)
    except BenchError as e:
        sys.exit("bench: %s" % (e,))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
