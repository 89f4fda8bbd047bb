"""Command-line driver.

Each ``cmd_*`` function does its reading and writing through the
:class:`_Run` that :func:`main` hands it.  The run writes the --manifest
once: when the command returns 0 or 1, and when a capped ``construct`` or
``groupoid-construct`` has written the stages it finished (exit 2); never
on any other cap, nor on exit 3 or 4.

Exit codes: 0 success / property holds; 1 property violated (witness
emitted); 2 resource cap; 3 invalid input (including a malformed command
line, -N below 2, --cap below 1, --gamma below 1, a negative biggs depth,
and --gamma with --over, an ACYGROUPS_ELEMENT_CAP that is not a positive
integer, and an input file that is missing, unreadable or not UTF-8); 4
internal error (any other exception, reported in one line).

A command runs with the cyclic garbage collector paused.  The library
builds no reference cycles (the source tests check that every command
leaves none), so its collections would free nothing and only cost time.
The CLI owns the process, so only it touches that interpreter-wide state.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
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
from .groups import DEFAULT_ELEMENT_CAP, cayley_graph, default_cap, sym
from .synthesis import SynthesisConfig, construct_n_acyclic

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_CAP = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


class _Run:
    """The I/O of one command.  It reads and loads the inputs and writes the
    outputs; with --manifest it records their digests (and computes none
    without), and ``finish`` writes the manifest with the command's config,
    stage reports and timings."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.inputs = {} if args.manifest else None
        self.outputs = {} if args.manifest else None
        self.config = {}
        self.reports = None
        self.timings = None

    def read(self, path):
        """The JSON document at path ('-' for stdin)."""
        try:
            if path == "-":
                data = sys.stdin.read()
            else:
                with open(path, "rb") as fh:
                    data = fh.read().decode()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8: {exc}") from None
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not JSON: {exc}") from None
        if self.inputs is not None and path != "-":
            self.inputs[path] = ser.digest(doc)
        return doc

    def load(self, path, formats=None):
        """The object of the document at path.  With formats, an object
        document must have one of them, which is checked before it is
        parsed; any other document fails in the parse."""
        doc = self.read(path)
        if formats and isinstance(doc, dict):
            fmt = doc.get("format")
            if not isinstance(fmt, str) or fmt not in formats:
                raise SchemaError(f"expected one of {formats}", "/format")
        return ser.load_document(doc)

    def emit(self, doc, out):
        """Write doc's canonical bytes to out."""
        self.write(ser.canonical_bytes(doc), out)

    def write(self, data, out):
        """Write the bytes data to out, stdout for None or '-'."""
        if out in (None, "-"):
            sys.stdout.write(data.decode())
            out = "stdout"
        else:
            with open(out, "wb") as fh:
                fh.write(data)
        if self.outputs is not None:
            self.outputs[out] = hashlib.sha256(data).hexdigest()

    def stages(self, reports):
        """Stage reports, for the manifest and to --reports, or to stderr
        (one line each) where the command has no --reports."""
        self.reports = reports
        if getattr(self.args, "reports", None):
            self.emit(ser.reports_to_json(reports), self.args.reports)
        else:
            for rep in reports:
                sys.stderr.write(json.dumps(rep.to_json(), sort_keys=True) + "\n")

    @contextlib.contextmanager
    def construction(self):
        """Time a construction.  A cap inside it writes the stages finished
        before it and the manifest, and propagates: no result is written."""
        t0 = time.monotonic()
        try:
            yield
        except ResourceCap as exc:
            self.timings = {"construct": time.monotonic() - t0}
            self.stages(exc.stage_reports or [])
            self.finish()
            raise
        self.timings = {"construct": time.monotonic() - t0}

    def finish(self):
        """Write the manifest to --manifest, if given.  With --timings it
        holds the command's phase timings, or else its wall time."""
        args = self.args
        if not args.manifest:
            return
        timings = None
        if args.timings:
            timings = self.timings or {"command": time.monotonic() - self.started}
        reports = None if self.reports is None else [r.to_json() for r in self.reports]
        doc = ser.manifest([args.command], self.config, self.inputs, self.outputs,
                           reports=reports, timings=timings)
        with open(args.manifest, "wb") as fh:
            fh.write(ser.canonical_bytes(doc))


def _girth_json(value):
    return "infinite" if value == float("inf") else value


def cmd_biggs(args, run):
    run.config = {"colors": args.colors, "depth": args.depth}
    graph = biggs_tree([c for c in args.colors.split(",") if c], args.depth)
    run.emit(ser.egraph_to_json(graph), args.output)
    return EXIT_OK


def cmd_symgroup(args, run):
    run.config = {"no_hypercube": args.no_hypercube}
    group = sym(run.load(args.graph, {"egraph"}), attach_hypercube=not args.no_hypercube)
    run.emit(ser.egroup_to_json(group), args.output)
    return EXIT_OK


def cmd_cayley(args, run):
    group = run.load(args.group, {"egroup"})
    run.emit(ser.egraph_to_json(cayley_graph(group)), args.output)
    return EXIT_OK


def cmd_girth(args, run):
    value = girth(run.load(args.group, {"egroup"}))
    run.emit({"format": "girth", "girth": _girth_json(value)}, args.output)
    return EXIT_OK


def cmd_check_acyclic(args, run):
    run.config = {"N": args.n, "gamma": args.gamma, "over": bool(args.over)}
    group = run.load(args.group, {"egroup"})
    gamma = GammaFilter(args.gamma) if args.gamma is not None else None
    t0 = time.monotonic()
    if args.over:
        entries = find_i_coset_cycle(group, run.load(args.over, {"egraph"}), args.n)
    else:
        entries = find_coset_cycle(group, args.n, gamma=gamma)
    run.timings = {"search": time.monotonic() - t0}
    if entries is None:
        run.emit({"format": "check", "holds": True, "N": args.n}, args.output)
        return EXIT_OK
    run.emit(ser.cycle_to_json(group, entries), args.output)
    return EXIT_VIOLATED


def cmd_verify_witness(args, run):
    run.config = {"over": bool(args.over)}
    group = run.load(args.group, {"egroup"})
    doc = run.read(args.witness)
    if args.over:
        template = run.load(args.over, {"egraph"})
        entries = ser.cycle_from_json(doc, group, n_sites=template.n)
        ok = validate_i_coset_cycle(group, template, entries)
    else:
        ok = validate_coset_cycle(group, ser.cycle_from_json(doc, group))
    run.emit({"format": "check", "witness_valid": ok}, args.output)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_construct(args, run):
    run.config = {"N": args.n, "cap": args.cap, "early_exit": args.early_exit,
                  "over": bool(args.over)}
    group = run.load(args.group, {"egroup"})
    config = SynthesisConfig(n_acyclic=args.n, element_cap=args.cap, early_exit=args.early_exit)
    template = run.load(args.over, {"egraph"}) if args.over else None
    with run.construction():
        result, reports = construct_n_acyclic(group, config, template)
    run.emit(ser.egroup_to_json(result), args.output)
    run.stages(reports)
    final = reports[-1].final_checks if reports else None
    if final is not None and not all(final.values()):
        sys.stderr.write(f"final verification failed: {final}\n")
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_groupoid_construct(args, run):
    run.config = {"N": args.n, "cap": args.cap, "early_exit": args.early_exit}
    pattern = run.load(args.pattern, {"pattern"})
    target = run.load(args.target, {"igraph"}) if args.target else pattern_igraph(pattern)
    config = SynthesisConfig(n_acyclic=args.n, element_cap=args.cap, early_exit=args.early_exit)
    with run.construction():
        res = construct_n_acyclic_groupoid(pattern, target, config)
    run.emit(ser.igroupoid_to_json(res.groupoid), args.output)
    if args.group_output:
        run.emit(ser.egroup_to_json(res.group), args.group_output)
    run.stages(res.stage_reports)
    if not all(res.checks.values()):
        sys.stderr.write(f"verification failed: {res.checks}\n")
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_cover(args, run):
    """cover-graph and cover-hypergraph: the base's covering from a group."""
    base = run.load(args.base, {args.kind})
    group = run.load(args.group, {"egroup"})
    cov = (graph_cover if args.kind == "graph" else hypergraph_cover)(base, group)
    ok = verify_cover(cov).ok
    run.emit(ser.covering_to_json(cov), args.output)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_verify_cover(args, run):
    run.config = {"N": args.n}
    cover = run.load(args.cover, {"covering"})
    if isinstance(cover, Hypergraph):
        ok, witness = check_n_acyclic_hypergraph(cover, args.n)
        out = {"format": "check", "N": args.n, "holds": ok}
        if witness:
            out["witness"] = {"kind": witness.kind, "vertices": list(witness.vertices)}
    else:
        value = girth(cover)
        ok = value > args.n
        out = {"format": "check", "N": args.n, "holds": ok, "girth": _girth_json(value)}
    run.emit(out, args.output)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_export_dot(args, run):
    run.write(ser.object_to_dot(run.load(args.input)).encode(), args.output)
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

    def command(name, func, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    p = command("biggs", cmd_biggs, "tree of reduced words over a colour set")
    p.add_argument("-E", "--colors", required=True, help="comma-separated colours")
    p.add_argument("-n", "--depth", type=int, required=True)

    p = command("symgroup", cmd_symgroup, "group generated by a graph's matchings")
    p.add_argument("graph", help="egraph JSON ('-' for stdin)")
    p.add_argument("--no-hypercube", action="store_true")

    command("cayley", cmd_cayley, "Cayley graph of a group").add_argument("group")
    command("girth", cmd_girth, "girth of a group's Cayley graph").add_argument("group")

    p = command("check-acyclic", cmd_check_acyclic, "search for coset cycles up to N")
    p.add_argument("group")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--gamma", type=int, help="restrict subsets to size < gamma")
    p.add_argument("--over", help="template egraph JSON")

    p = command("verify-witness", cmd_verify_witness, "revalidate a cycle witness")
    p.add_argument("witness")
    p.add_argument("group")
    p.add_argument("--over")

    p = command("construct", cmd_construct, "grow an N-acyclic extension")
    p.add_argument("group")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--over", help="template egraph JSON")
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--early-exit", action="store_true")
    p.add_argument("--reports", help="write stage reports here")

    p = command("groupoid-construct", cmd_groupoid_construct, "N-acyclic groupoid pipeline")
    p.add_argument("pattern")
    p.add_argument("--target", help="complete pattern-graph JSON")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--early-exit", action="store_true")
    p.add_argument("--group-output", help="also write the backing group")

    for kind, text in (("graph", "unbranched covering of a simple graph"),
                       ("hypergraph", "branched covering of a hypergraph")):
        p = command(f"cover-{kind}", cmd_cover, text)
        p.add_argument("base", metavar=kind)
        p.add_argument("group")
        p.set_defaults(kind=kind)

    p = command("verify-cover", cmd_verify_cover, "acyclicity check of a covering")
    p.add_argument("cover")
    p.add_argument("-N", dest="n", type=int, required=True)

    command("export-dot", cmd_export_dot, "DOT rendering of a JSON object").add_argument("input")

    for p in sub.choices.values():
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--manifest", help="write a run manifest here")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the manifest")
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
    """Run one command and return its exit code, with the cyclic collector
    paused.  A collector the caller paused stays paused; one it ran runs
    again on return, after a full collection over an empty young heap (all
    objects frozen), since only a full collection clears CPython's free
    lists.  That trim is skipped while the caller holds frozen objects,
    which unfreezing would release."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if paused:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.collect()
                gc.unfreeze()
            gc.enable()


def _command(argv):
    try:
        default_cap()  # refuses an ACYGROUPS_ELEMENT_CAP that is not a positive integer
        args = _parse_args(argv)
        run = _Run(args)
        code = args.func(args, run)
        run.finish()
        return code
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
