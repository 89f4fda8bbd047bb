"""acygroups benchmark: closed-loop passes over seeded instances.

Usage, from the repository root:

    python3 perfbench/run.py --workload tower_plain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
layer -> metric -> workload map is in ``perfbench/README.md``.  Each run
starts fresh child processes (``child.py``): a few that only set up, for
``setup_s``, then one that measures.  One client, one instance at a time,
no threads.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run (four set-up-only processes and the measuring one)
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("ACYGROUPS_ELEMENT_CAP", "PYTHONOPTIMIZE")}
    env.pop("PYTHONPATH", None)
    return env


def _child(args, mode_args, work, deadline, out_name):
    out = work / out_name
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--out", str(out), *mode_args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"child process exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _src_files():
    return sorted((ROOT / "src").rglob("*.py"))


def _metadata():
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
    }


def _src_digest():
    h = hashlib.sha256()
    for path in _src_files():
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _consistency(passes, problems):
    """Output digests must agree across passes, traced or not; a pass whose
    digests differ from the first pass fails that instance."""
    first = {}
    for p in passes:
        for rec in p["instances"]:
            if "error" in rec:
                continue
            ref = first.setdefault(rec["name"], rec["digests"])
            if rec["digests"] != ref:
                rec["error"] = "outputs differ from the first pass"
                problems.append(f"{rec['name']}: outputs differ between passes")
    return first


def _typical_pass(passes, key="s"):
    """A typical pass: the sum over instances of each instance's median
    time across the passes.  A slow moment then costs one instance one
    sample, not a whole pass."""
    times = {}
    for p in passes:
        for rec in p["instances"]:
            times.setdefault(rec["name"], []).append(rec[key])
    return sum(statistics.median(v) for v in times.values())


def _layer_values(traced, per_layer, problems):
    """Per-layer values: counts must repeat exactly across traced passes;
    times are medians over the traced passes."""
    values = {}
    for m in per_layer:
        name = m["name"]
        if name.startswith("run.") or name == "amalgam.chain_yield":
            continue
        seq = [p["layers"].get(name, 0) for p in traced]
        if m["unit"] == "count":
            if len(set(seq)) != 1:
                problems.append(f"counter {name} drifted across passes: {seq}")
            values[name] = seq[0]
        else:
            values[name] = statistics.median(seq)
    calls = values.get("amalgam.amalgam_chain.calls", 0)
    values["amalgam.chain_yield"] = values.get("amalgam.amalgam_chain.built", 0) / calls if calls else 0.0
    return values


def _check_state(args, digests, counters, problems):
    """Outputs and counters must also repeat between runs of one seed."""
    state_dir = ROOT / ".perfbench_out"
    state_dir.mkdir(exist_ok=True)
    path = state_dir / f"state-{args.workload}-seed{args.seed}.json"
    state = {"src": _src_digest(), "digests": digests, "counters": counters}
    if path.is_file():
        with open(path) as fh:
            old = json.load(fh)
        if old.get("src") == state["src"]:
            if old.get("digests") != digests:
                problems.append("outputs differ from an earlier run of this seed")
            if counters is not None and old.get("counters") not in (None, counters):
                problems.append("counters differ from an earlier run of this seed")
            if counters is None:
                state["counters"] = old.get("counters")
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(state, fh, sort_keys=True)
    os.replace(tmp, path)


def run_workload(args, spec):
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_runs = [_child(args, ["--setup-only"], work, deadline, f"setup{i}.json")
                      for i in range(SETUP_SAMPLES - 1)]
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        res = _child(args, ["--spans", str(spans)] if args.trace else [], work, deadline,
                     "result.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]

    problems = []
    passes = res["passes"]
    digests = _consistency(passes, problems)
    records = [r for p in passes for r in p["instances"]]
    attempted = len(records)
    failed = sum("error" in r for r in records)
    decided = sum(r.get("verdict") == "decided" for r in records)
    for r in records:
        if "error" in r:
            problems.append(f"{r['name']}: {r['error']}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    pass_s = _typical_pass(untraced)

    layers = None
    if traced:
        layers = _layer_values(traced, spec["per_layer"], problems)
        traced_s = _typical_pass(traced)
        layers.update({
            "run.decided_ratio": decided / attempted,
            "run.fail_ratio": failed / attempted,
            "run.passes": len(passes),
            "run.untraced_pass_s": pass_s,
            "run.pass_wall_s": _typical_pass(untraced, "wall_s"),
            "run.traced_pass_s": traced_s,
            "run.trace_overhead": traced_s / pass_s - 1,
        })
    counters = layers and {m["name"]: layers[m["name"]] for m in spec["per_layer"]
                           if m["unit"] == "count" and not m["name"].startswith("run.")}
    _check_state(args, digests, counters, problems)
    e2e = {
        "pass_s": pass_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {
        "attempted": attempted, "failed": failed, "decided": decided,
        "passes": len(passes), "untraced_passes": [p["s"] for p in untraced],
        "untraced_wall": [p["wall_s"] for p in untraced],
        "setups": setups, "setup_walls": [r["setup_wall_s"] for r in setup_runs],
        "e2e": e2e, "layers": layers, "problems": problems,
        "elapsed": time.monotonic() - started,
    }


def _report(args, spec, r):
    """Human-readable lines, then the result object as the last line."""
    print(f"# {args.workload} seed {args.seed}: {r['passes']} passes in {r['elapsed']:.1f} s, "
          f"pass_s samples {[round(s, 3) for s in r['untraced_passes']]}, "
          f"setup_s samples {[round(s, 3) for s in r['setups']]}")
    print(f"# {args.workload}: raw wall seconds: passes {[round(s, 3) for s in r['untraced_wall']]}, "
          f"set-ups {[round(s, 3) for s in r['setup_walls']]}")
    print(f"# {args.workload}: fail_ratio {r['failed']}/{r['attempted']}, "
          f"decided_ratio {r['decided']}/{r['attempted']} (caps are undecided, not failed)")
    for p in r["problems"]:
        print(f"# problem: {p}")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        source = r["layers"] if args.trace else r["e2e"]
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    if args.trace:
        for name, v in metrics.items():
            print(f"#   {name} = {v['value']:.6g} {v['unit']}")
    return {"correct": not r["problems"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under python -O: the searchers revalidate with assert")
        if not (ROOT / "src" / "acygroups" / "__init__.py").is_file():
            raise BenchError("the acygroups sources (src/acygroups) are missing")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        print(f"# meta {json.dumps(_metadata(), sort_keys=True)}")
        if args.workload == "all":
            return _run_all(args, spec)
        out = _report(args, spec, run_workload(args, spec))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


def _run_all(args, spec):
    """Every end-to-end metric of every workload, by name and unit."""
    rows = []
    for workload in WORKLOADS:
        args.workload = workload
        r = run_workload(args, spec)
        _report(args, spec, r)
        rows.append((workload, r))
    print("# workload        " + "  ".join(f"{m['name']} [{m['unit']}]" for m in spec["end_to_end"])
          + "  fail_ratio  decided_ratio")
    for workload, r in rows:
        cells = "  ".join(f"{r['e2e'][m['name']]:.4g}" for m in spec["end_to_end"])
        print(f"# {workload:15s} {cells}  {r['failed']}/{r['attempted']}  "
              f"{r['decided']}/{r['attempted']}")
    return 0 if all(not r["problems"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
