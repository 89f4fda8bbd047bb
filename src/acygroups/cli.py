"""Command-line driver.

Exit codes: 0 success / property holds; 1 property violated (witness
emitted); 2 resource cap; 3 invalid input (including a malformed command
line, -N below 2, --cap below 1, --gamma below 1, a negative biggs depth,
and --gamma with --over, and an input file that is missing, unreadable or
not UTF-8); 4 internal error (any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import serialize as ser
from .acyclicity import GammaFilter, find_coset_cycle, girth, validate_coset_cycle
from .constraint import find_i_coset_cycle, validate_i_coset_cycle
from .covering import (
    Hypergraph,
    check_n_acyclic_hypergraph,
    graph_cover,
    hypergraph_cover,
    verify_cover,
)
from .egraph import biggs_tree
from .errors import AcygroupsError, ResourceCap, SchemaError
from .groupoid import construct_n_acyclic_groupoid, pattern_igraph
from .groups import DEFAULT_ELEMENT_CAP, cayley_graph, sym
from .synthesis import SynthesisConfig, construct_n_acyclic, construct_n_acyclic_over

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_CAP = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


def _read_json(path, inputs=None):
    """The JSON document at path; its digest goes into inputs."""
    try:
        if path == "-":
            data = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read().decode()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}", "/") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not JSON: {exc}", "/") from None
    if inputs is not None and path != "-":
        inputs[path] = ser.digest(doc)
    return doc


def _digests(args):
    """The digest record of a run: a dict when it writes a manifest, else
    None, and then no digest is computed."""
    return {} if getattr(args, "manifest", None) else None


def _load(path, expected=None, inputs=None):
    """The object of an input document; its digest goes into inputs."""
    doc = _read_json(path, inputs)
    obj = ser.load_document(doc)
    if expected and doc.get("format") not in expected:
        raise SchemaError(f"expected one of {expected}", "/format")
    return obj


def _emit(doc, out, outputs=None):
    """Write doc's canonical bytes to out (stdout for None or '-'); their
    digest goes into outputs."""
    _write(ser.canonical_bytes(doc), out, outputs)


def _write(data, out, outputs=None):
    """Write the bytes data to out (stdout for None or '-'); their digest
    goes into outputs."""
    if out in (None, "-"):
        sys.stdout.write(data.decode())
        out = "stdout"
    else:
        with open(out, "wb") as fh:
            fh.write(data)
    if outputs is not None:
        outputs[out] = hashlib.sha256(data).hexdigest()


def _write_manifest(args, command, config, inputs, outputs, reports=None, timings=None):
    """Write the run manifest to --manifest, if given.  With --timings it
    holds the command's phase timings, or else the command's wall time."""
    if not args.manifest:
        return
    reports = None if reports is None else [r.to_json() for r in reports]
    if args.timings and timings is None:
        timings = {"command": time.monotonic() - args.started}
    doc = ser.manifest(command, config, inputs, outputs, reports=reports,
                       timings=timings if args.timings else None)
    with open(args.manifest, "wb") as fh:
        fh.write(ser.canonical_bytes(doc))


def cmd_biggs(args):
    graph = biggs_tree([c for c in args.colors.split(",") if c], args.depth)
    outputs = _digests(args)
    _emit(ser.egraph_to_json(graph), args.output, outputs)
    _write_manifest(args, ["biggs"], {"colors": args.colors, "depth": args.depth}, {}, outputs)
    return EXIT_OK


def cmd_symgroup(args):
    inputs = _digests(args)
    graph = _load(args.graph, {"egraph"}, inputs)
    group = sym(graph, attach_hypercube=not args.no_hypercube)
    outputs = _digests(args)
    _emit(ser.egroup_to_json(group), args.output, outputs)
    _write_manifest(args, ["symgroup"], {"no_hypercube": args.no_hypercube}, inputs, outputs)
    return EXIT_OK


def cmd_cayley(args):
    inputs = _digests(args)
    group = _load(args.group, {"egroup"}, inputs)
    outputs = _digests(args)
    _emit(ser.egraph_to_json(cayley_graph(group).graph), args.output, outputs)
    _write_manifest(args, ["cayley"], {}, inputs, outputs)
    return EXIT_OK


def cmd_girth(args):
    inputs = _digests(args)
    group = _load(args.group, {"egroup"}, inputs)
    value = girth(cayley_graph(group))
    outputs = _digests(args)
    doc = {"format": "girth", "girth": "infinite" if value == float("inf") else value}
    _emit(doc, args.output, outputs)
    _write_manifest(args, ["girth"], {}, inputs, outputs)
    return EXIT_OK


def cmd_check_acyclic(args):
    inputs = _digests(args)
    group = _load(args.group, {"egroup"}, inputs)
    gamma = GammaFilter.size(args.gamma) if args.gamma is not None else None
    outputs = _digests(args)
    t0 = time.monotonic()
    if args.over:
        template = _load(args.over, {"egraph"}, inputs)
        witness = find_i_coset_cycle(group, template, args.n)
        entries = witness
    else:
        cyc = find_coset_cycle(group, args.n, gamma=gamma)
        entries = cyc.entries if cyc else None
    timings = {"search": time.monotonic() - t0}
    config = {"N": args.n, "gamma": args.gamma, "over": bool(args.over)}
    if entries is None:
        _emit({"format": "check", "holds": True, "N": args.n}, args.output, outputs)
        _write_manifest(args, ["check-acyclic"], config, inputs, outputs, timings=timings)
        return EXIT_OK
    _emit(ser.cycle_to_json(group, entries), args.output, outputs)
    _write_manifest(args, ["check-acyclic"], config, inputs, outputs, timings=timings)
    return EXIT_VIOLATED


def cmd_verify_witness(args):
    inputs = _digests(args)
    group = _load(args.group, {"egroup"}, inputs)
    doc = _read_json(args.witness, inputs)
    if args.over:
        template = _load(args.over, {"egraph"}, inputs)
        entries = ser.cycle_from_json(doc, group, n_sites=template.n)
        ok = validate_i_coset_cycle(group, template, entries)
    else:
        ok = validate_coset_cycle(group, ser.cycle_from_json(doc, group))
    outputs = _digests(args)
    _emit({"format": "check", "witness_valid": ok}, args.output, outputs)
    _write_manifest(args, ["verify-witness"], {"over": bool(args.over)}, inputs, outputs)
    return EXIT_OK if ok else EXIT_VIOLATED


def _write_reports(args, command, config, inputs, outputs, reports, timings):
    """Stage reports to --reports, or to stderr without one; then the manifest."""
    if getattr(args, "reports", None):
        _emit(ser.reports_to_json(reports), args.reports, outputs)
    else:
        for rep in reports:
            sys.stderr.write(json.dumps(rep.to_json(), sort_keys=True) + "\n")
    _write_manifest(args, command, config, inputs, outputs, reports=reports, timings=timings)


def cmd_construct(args):
    inputs = _digests(args)
    group = _load(args.group, {"egroup"}, inputs)
    config = SynthesisConfig(
        n_acyclic=args.n,
        element_cap=args.cap,
        early_exit=args.early_exit,
    )
    template = _load(args.over, {"egraph"}, inputs) if args.over else None
    cfg_doc = {"N": args.n, "cap": args.cap, "early_exit": args.early_exit, "over": bool(args.over)}
    outputs = _digests(args)
    t0 = time.monotonic()
    try:
        if args.over:
            result, reports = construct_n_acyclic_over(group, template, config)
        else:
            result, reports = construct_n_acyclic(group, config)
    except ResourceCap as exc:
        # the finished stages explain the cap; no group is emitted
        _write_reports(args, ["construct"], cfg_doc, inputs, outputs, exc.stage_reports or [],
                       {"construct": time.monotonic() - t0})
        raise
    timings = {"construct": time.monotonic() - t0}
    _emit(ser.egroup_to_json(result), args.output, outputs)
    _write_reports(args, ["construct"], cfg_doc, inputs, outputs, reports, timings)
    final = reports[-1].final_checks if reports else None
    if final is not None and not all(final.values()):
        sys.stderr.write(f"final verification failed: {final}\n")
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_groupoid_construct(args):
    inputs = _digests(args)
    pattern = _load(args.pattern, {"pattern"}, inputs)
    if args.target:
        target = _load(args.target, {"igraph"}, inputs)
    else:
        target = pattern_igraph(pattern)
    config = SynthesisConfig(n_acyclic=args.n, element_cap=args.cap, early_exit=args.early_exit)
    cfg_doc = {"N": args.n, "cap": args.cap, "early_exit": args.early_exit}
    outputs = _digests(args)
    t0 = time.monotonic()
    try:
        res = construct_n_acyclic_groupoid(pattern, target, args.n, config)
    except ResourceCap as exc:
        # as for construct: the finished stages explain the cap
        _write_reports(args, ["groupoid-construct"], cfg_doc, inputs, outputs,
                       exc.stage_reports or [], {"construct": time.monotonic() - t0})
        raise
    timings = {"construct": time.monotonic() - t0}
    _emit(ser.igroupoid_to_json(res.groupoid), args.output, outputs)
    if args.group_output:
        _emit(ser.egroup_to_json(res.group), args.group_output, outputs)
    _write_manifest(args, ["groupoid-construct"], cfg_doc, inputs, outputs,
                    reports=res.stage_reports, timings=timings)
    if not all(res.checks.values()):
        sys.stderr.write(f"verification failed: {res.checks}\n")
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_cover_graph(args):
    inputs = _digests(args)
    edges = _load(args.graph, {"graph"}, inputs)
    group = _load(args.group, {"egroup"}, inputs)
    cov = graph_cover(edges, group)
    report = verify_cover(cov)
    outputs = _digests(args)
    _emit(ser.covering_to_json(cov), args.output, outputs)
    _write_manifest(args, ["cover-graph"], {}, inputs, outputs)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_cover_hypergraph(args):
    inputs = _digests(args)
    hg = _load(args.hypergraph, {"hypergraph"}, inputs)
    group = _load(args.group, {"egroup"}, inputs)
    cov = hypergraph_cover(hg, group)
    report = verify_cover(cov)
    outputs = _digests(args)
    _emit(ser.covering_to_json(cov), args.output, outputs)
    _write_manifest(args, ["cover-hypergraph"], {}, inputs, outputs)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def _cover_of(doc):
    """The cover hypergraph or edge-labelled graph of a covering document."""
    if ser._need(doc, "format", str, "") != "covering":
        raise SchemaError("expected a covering", "/format")
    inner = ser._need(doc, "cover", dict, "")
    if doc.get("kind") == "hypergraph":
        return ser.hypergraph_from_json(inner, "/cover")
    return ser.egraph_from_json(inner, "/cover")


def cmd_verify_cover(args):
    inputs = _digests(args)
    cover = _cover_of(_read_json(args.cover, inputs))
    if isinstance(cover, Hypergraph):
        ok, witness = check_n_acyclic_hypergraph(cover, args.n)
        out = {"format": "check", "N": args.n, "holds": ok}
        if witness:
            out["witness"] = {"kind": witness.kind, "vertices": list(witness.vertices)}
    else:
        value = girth(cover)
        ok = value > args.n
        out = {"format": "check", "N": args.n, "holds": ok,
               "girth": "infinite" if value == float("inf") else value}
    outputs = _digests(args)
    _emit(out, args.output, outputs)
    _write_manifest(args, ["verify-cover"], {"N": args.n}, inputs, outputs)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_export_dot(args):
    inputs = _digests(args)
    doc = _read_json(args.input, inputs)
    fmt = ser._need(doc, "format", str, "")
    if fmt == "covering":
        obj = _cover_of(doc)
    elif fmt == "graph":
        from .covering import graph_template

        obj = graph_template(ser.graph_from_json(doc))
    else:
        obj = ser.load_document(doc)
    outputs = _digests(args)
    _write(ser.object_to_dot(obj).encode(), args.output, outputs)
    _write_manifest(args, ["export-dot"], {}, inputs, outputs)
    return EXIT_OK


class UsageError(AcygroupsError):
    """A malformed or out-of-range command line."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit with its code 2, which
    here means a resource cap; subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="acygroups",
        description="Finite groups and groupoids with coset-acyclic Cayley "
        "graphs, and coverings built from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--manifest", help="write a run manifest here")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the manifest")

    p = sub.add_parser("biggs", help="tree of reduced words over a colour set")
    p.add_argument("-E", "--colors", required=True, help="comma-separated colours")
    p.add_argument("-n", "--depth", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_biggs)

    p = sub.add_parser("symgroup", help="group generated by a graph's matchings")
    p.add_argument("graph", help="egraph JSON ('-' for stdin)")
    p.add_argument("--no-hypercube", action="store_true")
    common(p)
    p.set_defaults(func=cmd_symgroup)

    p = sub.add_parser("cayley", help="Cayley graph of a group")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("girth", help="girth of a group's Cayley graph")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_girth)

    p = sub.add_parser("check-acyclic", help="search for coset cycles up to N")
    p.add_argument("group")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--gamma", type=int, help="restrict subsets to size < gamma")
    p.add_argument("--over", help="template egraph JSON")
    common(p)
    p.set_defaults(func=cmd_check_acyclic)

    p = sub.add_parser("verify-witness", help="revalidate a cycle witness")
    p.add_argument("witness")
    p.add_argument("group")
    p.add_argument("--over")
    common(p)
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser("construct", help="grow an N-acyclic extension")
    p.add_argument("group")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--over", help="template egraph JSON")
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--early-exit", action="store_true")
    p.add_argument("--reports", help="write stage reports here")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("groupoid-construct", help="N-acyclic groupoid pipeline")
    p.add_argument("pattern")
    p.add_argument("--target", help="complete pattern-graph JSON")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--early-exit", action="store_true")
    p.add_argument("--group-output", help="also write the backing group")
    common(p)
    p.set_defaults(func=cmd_groupoid_construct)

    p = sub.add_parser("cover-graph", help="unbranched covering of a simple graph")
    p.add_argument("graph")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_cover_graph)

    p = sub.add_parser("cover-hypergraph", help="branched covering of a hypergraph")
    p.add_argument("hypergraph")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_cover_hypergraph)

    p = sub.add_parser("verify-cover", help="acyclicity check of a covering")
    p.add_argument("cover")
    p.add_argument("-N", dest="n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify_cover)

    p = sub.add_parser("export-dot", help="DOT rendering of a JSON object")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def _parse_args(argv):
    args = build_parser().parse_args(argv)
    for flag, dest, least in (("-N", "n", 2), ("--cap", "cap", 1), ("--gamma", "gamma", 1),
                              ("-n", "depth", 0)):
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    if getattr(args, "over", None) and getattr(args, "gamma", None) is not None:
        # the template search always walks all proper subsets
        raise UsageError("--gamma cannot be combined with --over")
    return args


def main(argv=None):
    try:
        args = _parse_args(argv)
        args.started = time.monotonic()
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except ResourceCap as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_CAP
    except (AcygroupsError, OSError) as exc:  # SchemaError, a missing or unreadable file
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:  # a bug: one line and its own code, not a traceback
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
