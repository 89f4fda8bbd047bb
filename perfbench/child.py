"""One benchmark process: set-up, then closed-loop passes over the instances.

Started by ``run.py`` in a fresh interpreter for every measurement.  With
``--setup-only`` it stops after set-up (imports, input generation and
prerequisite groups) and reports how long that took.  Otherwise it runs
passes until the next one would overrun ``--seconds``; with ``--trace 1``
the passes alternate traced, untraced, traced, ... so that the tracing
overhead and the tracer's transparency are measured in the same process.
All times are given raw (``wall_s``) and at the reference speed (``s``,
see ``speed.py``).  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def _guards():
    """The measured program must run with its asserts and default caps."""
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: the searchers revalidate with assert")
    if "ACYGROUPS_ELEMENT_CAP" in os.environ:
        raise SystemExit("ACYGROUPS_ELEMENT_CAP must not be set for the benchmark")
    from acygroups import acyclicity, groups

    if (groups.DEFAULT_ELEMENT_CAP, acyclicity.DEFAULT_SEARCH_BUDGET) != (
            workloads.ELEMENT_CAP, workloads.SEARCH_BUDGET):
        raise SystemExit("the program's default element cap or search budget changed")


class Cli:
    """In-process ``acygroups`` CLI.  Time spent inside it, less the speed
    probe's handler, is the timed region."""

    def __init__(self, probe):
        from acygroups import cli

        self.cli = cli
        self.probe = probe
        self.elapsed = 0.0

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        probe = self.probe
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            spent = probe.spent
            probe.start()
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                raise workloads.OracleFailure(f"{argv[0]}: usage error {exc.code}") from None
            finally:
                t1 = time.perf_counter()
                probe.stop()
                self.elapsed += t1 - t0 - (probe.spent - spent)
        return code, out.getvalue(), err.getvalue()


def run_pass(instances, paths, out_dir, cli, tracer):
    """One pass over the instances; returns per-instance records."""
    records = []
    for index, (name, instance) in enumerate(instances):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.begin_instance(index)
        ctx = workloads.Context(paths, str(out_dir), cli,
                                tracer.closure_orders if tracer is not None else None)
        cli.elapsed = 0.0
        cli.probe.clear()
        record = {"name": name}
        try:
            record["verdict"] = instance(ctx)
        except Exception as exc:  # a crash or an oracle mismatch fails the instance
            record["error"] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, workloads.OracleFailure):
                traceback.print_exc(file=sys.stderr)
        record["wall_s"] = cli.elapsed
        record["s"] = cli.probe.normalise(cli.elapsed)
        record["digests"] = ctx.digests
        records.append(record)
    return records


def measure(args, work, cli, paths):
    instances = workloads.INSTANCES[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.reset()
            tracer.pass_id = len(passes)
            tracer.install()
        try:
            records = run_pass(instances, paths, work / "out", cli, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        p = {"traced": traced, "s": sum(r["s"] for r in records),
             "wall_s": sum(r["wall_s"] for r in records), "instances": records, "layers": None}
        if traced:
            # layer times at the reference speed too, scaled like the pass
            scale = p["s"] / p["wall_s"] if p["wall_s"] else 1.0
            p["layers"] = {k: v * scale if k.endswith((".s", "_s")) else v
                           for k, v in tracer.metrics().items()}
        passes.append(p)
        elapsed = time.perf_counter() - t0
        # a traced run needs two traced passes (counter repeat check) and an untraced one
        needed = 3 if tracer is not None else 1
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= needed and elapsed + typical > args.seconds:
            break
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    return {"passes": passes}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    # set-up is timed from here: the benchmark's own imports are not in it
    t_start = time.perf_counter()
    probe = SpeedProbe()
    probe.start()
    _guards()
    work = Path(args.work)
    cli = Cli(probe)
    paths = workloads.make_inputs(args.workload, args.seed, str(work), cli)
    probe.stop()
    setup_wall_s = time.perf_counter() - t_start - probe.spent
    result = {"setup_wall_s": setup_wall_s, "setup_s": probe.normalise(setup_wall_s)}
    if not args.setup_only:
        result.update(measure(args, work, cli, paths))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
