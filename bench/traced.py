"""Spans around the calls into each tangletree module, for the traced run.

The program has no instrumentation of its own yet.  `install` replaces the
module functions the commands call with wrappers that open a span named
after the layer they enter and count what the call returned; the traced
worker then runs every instance through `tangletree.cli.run`, exactly as
the untraced one does.  A wrapper records only inside an open span, so
set-up and the checks after the timed region pass straight through it.
"""

import functools
import time
from contextlib import contextmanager

from tangletree import blocks, cli, distinguish, refine, trees, universe
from tangletree import io as tio
from tangletree.cliquetangles import CliqueCover


def _refined(result):
    N, TD = result
    return {"refine.separations": len(N), "refine.bags": len(TD.bags)}


def _claimed(report):
    return {"blocks.claimed_parts": sum(p["claimed"] for p in report["parts"])}


def _found(ts):
    return {"tangles.found": len(ts)}


# (owner, attribute, span name, counts of the result, direct).  The commands
# look these up at call time: `cli` binds its own names at import, the
# others are imported inside the command bodies.  A `direct` wrapper records
# only when a command or the benchmark itself makes the call, because the
# program also calls it inside other layers: the nested-set search builds
# its own DistinguisherTable, theorem_1_2 checks its decomposition with
# is_valid, and CliqueCover.tangles asks for the (cached) base separations.
WRAPPED = [
    (cli, "enumerate_separations", "seps.enumerate",
     lambda S: {"seps.members": len(S.unoriented())}, False),
    (cli, "_family", "tangles.family", None, False),
    (cli, "f_tangles", "tangles.search", _found, False),
    (cli, "regular_profiles", "tangles.search", _found, False),
    (distinguish, "build_efficient_nested_set", "distinguish.nested",
     lambda N: {"distinguish.members": len(N)}, False),
    (distinguish.DistinguisherTable, "__init__", "distinguish.table", None, True),
    (refine, "theorem_1_2", "refine.theorem_1_2", _refined, False),
    (trees.TreeDecomposition, "is_valid", "trees.validate", None, True),
    (blocks, "verify_theorem_4_8", "blocks.audit", _claimed, False),
    (CliqueCover, "__init__", "cliquetangles.cover", None, False),
    (CliqueCover, "base_separations", "cliquetangles.cover",
     lambda b: {"cliquetangles.base_separations": len(b)}, True),
    (CliqueCover, "tangles", "cliquetangles.tangles", None, False),
    (CliqueCover, "star_census", "cliquetangles.census", None, False),
    (universe.Universe, "system", "universe.system", None, False),
    (universe, "t_tilde_star", "universe.family", None, False),
    # Universe.is_distributive runs this once and caches the answer
    (universe, "check_universe", "universe.distributive", None, False),
    (universe, "theorem_1_3", "universe.theorem_1_3", None, False),
    (tio, "load_universe", "io.load", lambda U: {"universe.elements": len(U)}, False),
] + [(tio, name, "io.load" if name.startswith("load_") else "io.save", None, False)
     for name in sorted(vars(tio))
     if name.startswith(("load_", "save_", "export_")) and name != "load_universe"]


class Tracer:
    """Spans kept in memory as [name, start, end, parent, instance], plus
    per-layer work counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.instance = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _records(self, direct):
        if not self._open:
            return False
        caller = self.spans[self._open[-1]][0]
        return not direct or caller == "instance" or caller.startswith("cli.")

    def wrap(self, fn, name, counts=None, direct=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._records(direct):
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, n in (counts(result) if counts else {}).items():
                self.counts[key] = self.counts.get(key, 0) + n
            return result
        return traced


def install(tracer):
    """Wrap every function in WRAPPED, and each command as a `cli.NAME` span."""
    for owner, attr, name, counts, direct in WRAPPED:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, counts, direct))
    for command, handler in cli._HANDLERS.items():
        cli._HANDLERS[command] = tracer.wrap(handler, "cli." + command)
