"""Command-line front end: enumeration, refinement, audits and DOT export.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 cap exceeded.
All outputs are deterministic given the seed, which is recorded in every
artifact header.
"""

import argparse
import os
import sys

from . import io as tio
from .errors import (HypothesisFailure, NoTangles, NotACover, ParseError,
                     TangletreeError, TooLarge)
from .seps import MAX_SYSTEM, MAX_VERTICES, enumerate_separations
from .tangles import CoverFamily, f_tangles, profile_stand_in_family, regular_profiles

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _family(selector, G, k, S):
    if selector == "Tk":
        return CoverFamily(G, k)
    if selector == "Tkstars":
        return CoverFamily(G, k, stars_only=True)
    if selector == "profiles":
        return profile_stand_in_family(S)
    if selector.startswith("file:"):
        return tio.load_star_family(selector[len("file:"):], G)
    raise ParseError("unknown family selector %r" % (selector,))


def _setup(args):
    G = tio.load_graph(args.graph)
    S = enumerate_separations(G, args.k, max_vertices=args.max_vertices,
                              max_system=args.max_system)
    F = _family(args.family, G, args.k, S)
    return G, S, F


def _out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _tangles_of(S, F, selector):
    if selector == "profiles":
        return regular_profiles(S)
    return f_tangles(S, F)


def cmd_tangles(args):
    G, S, F = _setup(args)
    ts = _tangles_of(S, F, args.family)
    tio.save_system(S, _out(args, "system.json"), seed=args.seed)
    if len(ts) == 0:
        tio.save_report({"tangles": 0, "family": args.family, "k": args.k},
                        _out(args, "tangles.json"), seed=args.seed)
    else:
        tio.save_tangles(ts, _out(args, "tangles.json"), seed=args.seed)
    print("tangles: %d (k=%d, family=%s)" % (len(ts), args.k, args.family))
    return EXIT_OK


def _premise(S, tangles):
    """The distinguisher table of the tangles and the nested set N~ that
    distinguishes them; N~ is empty for fewer than two tangles."""
    from .distinguish import DistinguisherTable, build_efficient_nested_set
    from .trees import NestedSet
    ts = DistinguisherTable(tangles)
    if len(ts) < 2:
        return ts, NestedSet(S, [])
    return ts, build_efficient_nested_set(ts, S)


def cmd_tot(args):
    G, S, F = _setup(args)
    ts, Nt = _premise(S, _tangles_of(S, F, args.family))
    # build_efficient_nested_set certifies every member efficient
    notes = {s: ts.efficient_pair(s) for s in Nt}
    tio.save_nested_set(Nt, _out(args, "nested.json"), seed=args.seed,
                        annotations=notes)
    print("nested set: %d members distinguishing %d tangles" % (len(Nt), len(ts)))
    return EXIT_OK


def cmd_refine(args):
    from .refine import theorem_1_2
    G, S, F = _setup(args)
    ts, Nt = _premise(S, _tangles_of(S, F, args.family))
    N, TD = theorem_1_2(G, F, Nt, tangles=ts)
    tio.save_nested_set(N, _out(args, "refined.json"), seed=args.seed)
    tio.save_tree_decomposition(TD, _out(args, "td.json"), seed=args.seed)
    with open(_out(args, "td.dot"), "w") as f:
        f.write(tio.export_dot(TD))
    print("refined: %d separations, %d bags" % (len(N), len(TD.bags)))
    return EXIT_OK


def cmd_verify(args):
    from .blocks import verify_theorem_4_8
    G = tio.load_graph(args.graph)
    TD = tio.load_tree_decomposition(args.td)
    if TD.graph.edges != G.edges or TD.graph.n != G.n:
        raise ParseError("decomposition file belongs to a different graph")
    S = enumerate_separations(G, args.k, max_vertices=args.max_vertices,
                              max_system=args.max_system)
    ts = regular_profiles(S)
    ok, w = TD.is_valid()
    if not ok:
        tio.save_report({"valid": False, "witness": w},
                        _out(args, "verify.json"), seed=args.seed)
        print("verify: invalid decomposition: %r" % (w,))
        return EXIT_VERIFY
    report = verify_theorem_4_8(G, args.k, TD, ts)
    report["valid"] = True
    tio.save_report(report, _out(args, "verify.json"), seed=args.seed)
    passed = report["efficient"] and report["big_parts"] and report["blocks_are_parts"]
    print("verify: %s" % ("ok" if passed else "FAILED %r" % (report["witnesses"],)))
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_blocks(args):
    from .blocks import k_blocks
    G = tio.load_graph(args.graph)
    if G.n > args.max_vertices:
        raise TooLarge("|V|=%d exceeds cap %d" % (G.n, args.max_vertices))
    out = []
    for blk in k_blocks(G, args.k):
        out.append({"vertices": sorted(blk.vertices), "separable": blk.separable,
                    "star": sorted(map(repr, blk.star)) if blk.star else None})
    tio.save_report({"k": args.k, "blocks": out},
                    _out(args, "blocks.json"), seed=args.seed)
    print("blocks: %d (k=%d)" % (len(out), args.k))
    return EXIT_OK


def cmd_abstract(args):
    from .universe import require_lattice, t_tilde_star, theorem_1_3
    U = tio.load_universe(args.universe)
    try:
        require_lattice(U)
    except HypothesisFailure as e:
        raise ParseError(str(e))
    if args.system:
        S = tio.load_abstract_system(args.system, U)
    else:
        S = U.system()
    if args.family.startswith("file:"):
        F = tio.load_abstract_star_family(args.family[len("file:"):], U)
    else:
        F = t_tilde_star(S)
    ts, Nt = _premise(S, f_tangles(S, F))
    if len(ts) == 0:
        raise NoTangles("the universe has no tangles for this family")
    N = theorem_1_3(S, F, Nt, tangles=ts)
    tio.save_abstract_nested_set(N, _out(args, "refined.json"), seed=args.seed)
    print("abstract: %d tangles, %d separations" % (len(ts), len(N)))
    return EXIT_OK


def cmd_export_dot(args):
    TD = tio.load_tree_decomposition(args.td)
    if not TD._is_tree():
        raise ParseError("not-a-tree: edges %r do not form a tree on the %d bags"
                         % ([list(e) for e in TD.edges], len(TD.bags)))
    text = tio.export_dot(TD)
    if args.out:
        with open(_out(args, "td.dot"), "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parser():
    p = argparse.ArgumentParser(prog="tangletree")
    sub = p.add_subparsers(dest="command", required=True)

    options = {"--family": {"default": "Tk"},
               "--max-vertices": {"type": int, "default": MAX_VERTICES},
               "--max-system": {"type": int, "default": MAX_SYSTEM}}

    def common(sp, graph=True, reads=tuple(options)):
        """--graph and --k for a graph command, the `options` it reads, and
        --seed and --out."""
        if graph:
            sp.add_argument("--graph", required=True)
            sp.add_argument("--k", type=int, required=True)
        for name in reads:
            sp.add_argument(name, **options[name])
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".")

    common(sub.add_parser("tangles"))
    common(sub.add_parser("tot"))
    common(sub.add_parser("refine"))
    sp = sub.add_parser("verify")
    common(sp, reads=("--max-vertices", "--max-system"))
    sp.add_argument("--td", required=True)
    common(sub.add_parser("blocks"), reads=("--max-vertices",))
    sp = sub.add_parser("abstract")
    common(sp, graph=False, reads=("--family",))
    sp.add_argument("--universe", required=True)
    sp.add_argument("--system", default=None)
    sp = sub.add_parser("export-dot")
    sp.add_argument("--td", required=True)
    sp.add_argument("--out", default=None)
    return p


_PARSER = _parser()          # built once; parse_args leaves it unchanged
_HANDLERS = {
    "tangles": cmd_tangles,
    "tot": cmd_tot,
    "refine": cmd_refine,
    "verify": cmd_verify,
    "blocks": cmd_blocks,
    "abstract": cmd_abstract,
    "export-dot": cmd_export_dot,
}


def run(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "max_vertices", 1) <= 0 or getattr(args, "max_system", 1) <= 0:
            raise ParseError("caps must be positive")
        if getattr(args, "k", 1) < 1:
            raise ParseError("--k must be at least 1")
        return _HANDLERS[args.command](args)
    except TooLarge as e:
        print("cap exceeded: %s" % (e,), file=sys.stderr)
        return EXIT_CAP
    except (ParseError, NotACover, NoTangles, OSError, UnicodeDecodeError) as e:
        print("input error: %s" % (e,), file=sys.stderr)
        return EXIT_INPUT
    except TangletreeError as e:
        print("verification failure: %s" % (e,), file=sys.stderr)
        return EXIT_VERIFY


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
