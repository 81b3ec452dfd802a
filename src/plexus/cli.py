"""Command line interface.

Exit codes: 0 success, 1 a checked law failed (counterexample JSON on
stdout), 2 input or usage error (structured JSON on stderr). All randomness
flows through --seed, so output is byte-identical for identical inputs.
Each command imports only the modules it runs, when it runs.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .core import ETA_VARIANTS, LAW_SIZE_LIMIT, PlexusError, parse_count, trial_range

# sorted(checks.SUITES), stated here so that building the parser does not
# load the law checks
SUITE_NAMES = ("biunit", "flatfish", "heap", "heapoid", "isotropy", "semiheap", "units")


def _bind_by_label(ws, d):
    from .evaluator import default_binding
    arrays = {}
    for eid, e in d.edges.items():
        if e.label not in ws.arrays:
            raise PlexusError("BAD_REFERENCE", f"edge {eid} wants array {e.label!r}, not in workspace")
        arrays[eid] = ws.arrays[e.label]
    return default_binding(d, arrays)


def _sole(mapping, kind, name=None):
    if name is not None:
        if name not in mapping:
            raise PlexusError("BAD_REFERENCE", f"no {kind} named {name!r} in workspace")
        return mapping[name]
    if len(mapping) != 1:
        raise PlexusError(
            "BAD_REFERENCE",
            f"workspace holds {len(mapping)} {kind}s, pick one by name",
        )
    return next(iter(mapping.values()))


def _load_array_arg(token, loaded):
    """An array argument is a workspace file, or file:name to pick one of
    several arrays. `loaded` maps each path already read to its workspace."""
    from .workspace import load_workspace
    path, name = token, None
    if ":" in token and not os.path.exists(token):
        path, name = token.rsplit(":", 1)
    if path not in loaded:
        loaded[path] = load_workspace(path)
    return _sole(loaded[path].arrays, "array", name)


def _load_host(token, diagram_name):
    from .diagram import STANDARD_NAMES, standard_diagram
    from .workspace import load_workspace
    if os.path.exists(token):
        return _sole(load_workspace(token).diagrams, "diagram", diagram_name)
    if token in STANDARD_NAMES:
        return standard_diagram(token)
    if token.startswith("chain"):  # chain<N> or chain(<N>)
        n = parse_count(token[6:-1] if token.startswith("chain(") and token.endswith(")") else token[5:])
        if n is not None:
            return standard_diagram("chain", n=n)
    raise PlexusError("PARSE_ERROR", f"{token!r} is neither a file nor a standard diagram name")


def _cmd_eval(args):
    from .evaluator import default_binding, evaluate
    from .workspace import array_to_json, load_bindings, load_diagram, load_workspace
    if args.bindings:
        d, isets = load_diagram(args.file)
        _, named = load_bindings(args.bindings, isets)
        arrays = {}
        for eid, e in d.edges.items():
            key = eid if eid in named else e.label
            if key not in named:
                raise PlexusError("BAD_REFERENCE", f"no bound array for edge {eid!r}")
            arrays[eid] = named[key]
        binding = default_binding(d, arrays)
    else:
        ws = load_workspace(args.file)
        d = _sole(ws.diagrams, "diagram", args.diagram)
        binding = _bind_by_label(ws, d)
    order = args.order.split(",") if args.order else None
    result = evaluate(d, binding, order)
    print(json.dumps(array_to_json(result)))
    return 0


def _cmd_fish(args):
    from .ternary import fish
    from .workspace import array_to_json
    loaded = {}
    a, b, c = (_load_array_arg(t, loaded) for t in (args.a, args.b, args.c))
    result = fish(a, b, c, args.variant, args.twist)
    print(json.dumps(array_to_json(result)))
    return 0


def _cmd_rewrite(args):
    from .rewrite import Motif, check_concurrency, semantic_confluence
    from .semiring import parse_semiring
    host = _load_host(args.host, args.diagram)
    motif = Motif(_load_host(args.motif, None))
    trial_range(args.trials)  # refuse a bad count before the multiway walk
    report = check_concurrency(host, motif)
    code = 0
    if args.semantic:
        semiring = parse_semiring(args.semantic)
        sem = semantic_confluence(host, motif, semiring, args.trials, args.seed)
        report["semantic"] = {k: v for k, v in sem.items() if k in ("ok", "trials", "sequences", "trial")}
        if not sem["ok"]:
            code = 1
    if args.json:
        print(json.dumps(report))
    else:
        for k, v in report.items():
            print(f"{k}: {json.dumps(v)}")
    return code


def _cmd_enumerate(args):
    from .rewrite import enumerate_compositions
    reps, symmetric = enumerate_compositions(args.edges, args.order, args.free, args.variant)
    sym_ids = {id(d) for d in symmetric}
    classes = []
    for d in reps:
        edges = ["/".join(sorted(e.legs)) for e in d.edges.values()]
        marked = sorted(d.marked_vertices())
        classes.append({"edges": edges, "marked": marked, "symmetric": id(d) in sym_ids})
    if args.json:
        print(json.dumps({"classes": classes, "count": len(reps), "symmetric": len(symmetric)}))
        return 0
    for k, c in enumerate(classes):
        sym = " symmetric" if c["symmetric"] else ""
        print(f"class {k}: edges [{'; '.join(c['edges'])}] marked [{','.join(c['marked'])}]{sym}")
    print(f"count: {len(reps)}, symmetric: {len(symmetric)}")
    return 0


def _cmd_export_dot(args):
    from .diagram import to_dot
    d = _load_host(args.file, args.diagram)
    text = to_dot(d)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise PlexusError("WRITE_ERROR", f"cannot write {args.out!r}: {err.strerror or err}") from None
    else:
        print(text)
    return 0


def _fail_law(law, witness):
    print(json.dumps({"law": law, "counterexample": witness}))
    return 1


def _parse_sizes(text):
    sizes = tuple(map(parse_count, text.split(",")))
    if len(sizes) != 3 or not all(sizes):  # a malformed count is None
        raise PlexusError("PARSE_ERROR", f"bad --sizes {text!r}: needs three positive integers i,j,k")
    if max(sizes) > LAW_SIZE_LIMIT:
        raise PlexusError("BAD_REFERENCE", f"--sizes {max(sizes)} is above the limit {LAW_SIZE_LIMIT}")
    return sizes


def _number(text):
    """A whole-value option: a count by `core.parse_count`, or `-` before a
    nonzero count. Its range is checked where the value is used."""
    negative = text.startswith("-")
    n = parse_count(text[1:] if negative else text)
    if n is None or negative and n == 0:
        raise argparse.ArgumentTypeError(f"bad number {text!r}: needs ASCII digits with no sign, space, "
                                          "underscore or leading zero, or '-' before a nonzero count")
    return -n if negative else n


def _cmd_laws(args):
    from .checks import SUITES
    from .semiring import parse_semiring
    trial_range(args.trials)  # refuse a bad count before any suite runs
    semiring = parse_semiring(args.semiring)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    for name in suites:
        verdict, note = SUITES[name](semiring, args.sizes, args.trials, random.Random(args.seed),
                                     variant=args.variant, twist=args.twist)
        if not verdict:
            return _fail_law(verdict.law, verdict.witness)
        if not args.json:
            print(note)
    if args.json:
        print(json.dumps({"ok": True, "suites": suites}))
    return 0


def _cmd_selftest(args):
    from .checks import run_selftest
    ok, lines = run_selftest(args.seed)
    if args.json:
        print(json.dumps({"ok": ok, "lines": lines}))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is a PlexusError, reported as JSON like any other."""

    def error(self, message):
        raise PlexusError("PARSE_ERROR", message)


def build_parser():
    p = _Parser(prog="plexus", description="Semiring array algebra and diagram rewriting")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pe = sub.add_parser("eval", help="evaluate a diagram against bound arrays")
    pe.add_argument("file", help="workspace file, or a diagram file when --bindings is given")
    pe.add_argument("--bindings", default="", help="arrays file for a standalone diagram")
    pe.add_argument("--diagram", default=None, help="diagram name (default: the only one)")
    pe.add_argument("--order", default="", help="comma separated free vertex ids")
    pe.set_defaults(fn=_cmd_eval)

    pf = sub.add_parser("fish", help="ternary product of three arrays")
    pf.add_argument("a", help="workspace file (or file:name) holding the tail")
    pf.add_argument("b", help="workspace file (or file:name) holding the body")
    pf.add_argument("c", help="workspace file (or file:name) holding the head")
    pf.add_argument("--variant", default="IJK", choices=sorted(ETA_VARIANTS))
    pf.add_argument("--twist", action="store_true")
    pf.set_defaults(fn=_cmd_fish)

    pr = sub.add_parser("rewrite", help="multiway rewriting and concurrency report")
    pr.add_argument("host", help="workspace file or standard diagram name")
    pr.add_argument("--diagram", default=None, help="diagram name inside the workspace")
    pr.add_argument("--motif", default="vee", help="workspace file or standard diagram name")
    pr.add_argument("--semantic", default="", help="semiring for semantic confluence trials")
    pr.add_argument("--trials", type=_number, default=20)
    pr.add_argument("--seed", type=_number, default=0)
    pr.add_argument("--json", action="store_true", help="stable JSON report instead of text")
    pr.set_defaults(fn=_cmd_rewrite)

    pn = sub.add_parser("enumerate", help="census of edge compositions")
    pn.add_argument("--edges", type=_number, default=3)
    pn.add_argument("--order", type=_number, default=3)
    pn.add_argument("--free", type=_number, default=3)
    pn.add_argument("--variant", default="default")
    pn.add_argument("--json", action="store_true", help="stable JSON report instead of text")
    pn.set_defaults(fn=_cmd_enumerate)

    pd = sub.add_parser("export-dot", help="graphviz rendering of a diagram")
    pd.add_argument("file", help="workspace file or standard diagram name")
    pd.add_argument("--diagram", default=None)
    pd.add_argument("--out", default="")
    pd.set_defaults(fn=_cmd_export_dot)

    pl = sub.add_parser("laws", help="law suites with counterexample reporting")
    pl.add_argument("--suite", default="all", choices=[*SUITE_NAMES, "all"])
    pl.add_argument("--semiring", default="boolean")
    pl.add_argument("--sizes", type=_parse_sizes, default="2,2,2")
    pl.add_argument("--variant", default="IJK", choices=sorted(ETA_VARIANTS))
    pl.add_argument("--twist", action="store_true")
    pl.add_argument("--trials", type=_number, default=20)
    pl.add_argument("--seed", type=_number, default=0)
    pl.add_argument("--json", action="store_true", help="stable JSON report instead of text")
    pl.set_defaults(fn=_cmd_laws)

    ps = sub.add_parser("selftest", help="reduced mirror of the acceptance checks")
    ps.add_argument("--seed", type=_number, default=0)
    ps.add_argument("--json", action="store_true", help="stable JSON report instead of text")
    ps.set_defaults(fn=_cmd_selftest)
    return p


def run_command(argv):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except PlexusError as err:
        print(json.dumps({"error": err.code, "message": str(err)}), file=sys.stderr)
        return 2


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
