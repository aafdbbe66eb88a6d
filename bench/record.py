"""Record reference.json: the artifact digests and checked facts of every
instance.

    python3 bench/record.py

Run it only on a commit whose artifacts are known good; the benchmark then
holds every later commit to them.  It refuses to record an instance that
fails its hand-written expectations.
"""

import json
import os
import shutil
import sys

from run import FROZEN, REFERENCE, ROOT, WORKLOADS, problems, spawn

SEED = 0


def main():
    with open(FROZEN) as f:
        frozen = json.load(f)
    work = os.path.join(ROOT, ".bench_work", "record%d" % os.getpid())
    out = {"workloads": {}}
    try:
        for w in WORKLOADS:
            r = spawn(w, SEED, os.path.join(work, w), "plain")
            if r is None:
                sys.exit("record: %s did not complete" % w)
            entries = {}
            for rec in r["instances"]:
                why = problems(rec, None, frozen)
                if why:
                    sys.exit("record: %s/%s fails: %s" % (w, rec["id"], "; ".join(why)))
                entries[rec["id"]] = {"digests": rec["digests"], "summary": rec["summary"]}
            out["workloads"][w] = entries
            print("%s: %d instances" % (w, len(entries)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
