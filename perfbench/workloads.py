"""Workload inputs, instances and per-instance oracles.

Every input is generated here from the workload seed and handed to the
program as JSON files.  The seed only permutes colour names, renames
vertices and reorders listings, so group orders, stage orders, verdicts and
cover sizes (isomorphism invariants) are pinned exactly below.

An instance is one closed-loop request: a short pipeline of ``acygroups``
CLI commands run in-process through ``Context.cli``, which is the only
timed code.  The oracle checks run between and after those calls, so they
are outside the timed region.  An instance returns ``"decided"`` (a verified
verdict: the property holds, or a witness revalidates) or ``"undecided"``
(an honest resource cap), or raises ``OracleFailure``.
"""

from __future__ import annotations

import hashlib
import json
import random

# The program's defaults; the benchmark never lowers them.
ELEMENT_CAP = 1_000_000
SEARCH_BUDGET = 2_000_000

WORKLOADS = ("tower_plain", "cover_pipeline", "cap_probe")


class OracleFailure(Exception):
    """An instance gave an unexpected exit code or a wrong output."""


def expect(cond, message):
    if not cond:
        raise OracleFailure(message)


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _read(path):
    with open(path, "rb") as fh:
        return json.loads(fh.read())


# ---------------------------------------------------------------- inputs


def _relabel_egraph(doc, rng):
    """Permute the colour names, rename and reorder vertices and edges.

    The program sorts its colour registry, so permuting the names permutes
    the generator order.  The result is isomorphic to the input."""
    colors = list(doc["colors"])
    cmap = dict(zip(colors, rng.sample(colors, len(colors))))
    n = len(doc["vertices"])
    vmap = dict(zip(doc["vertices"], (f"v{i}" for i in rng.sample(range(n), n))))
    vertices = list(vmap.values())
    rng.shuffle(vertices)
    edges = [[cmap[c], vmap[u], vmap[v]] for c, u, v in doc["edges"]]
    rng.shuffle(edges)
    return {"format": "egraph", "vertices": vertices, "colors": colors, "edges": edges}


def _relabel_hypergraph(vertices, hyperedges, rng):
    """Rename vertices and reorder the hyperedges (hence the template colours)."""
    vmap = dict(zip(vertices, (f"x{i}" for i in rng.sample(range(len(vertices)), len(vertices)))))
    edges = [sorted(vmap[v] for v in he) for he in hyperedges]
    rng.shuffle(edges)
    listed = list(vmap.values())
    rng.shuffle(listed)
    return {"format": "hypergraph", "vertices": listed, "hyperedges": edges}


def _two_site_pattern(rng):
    """The pattern e: s -> t, f: t -> s with renamed sites and edge ids."""
    s, t = (f"p{i}" for i in rng.sample(range(10), 2))
    e, f = rng.sample(["e", "f"], 2)
    edges = [{"id": e, "src": s, "tgt": t, "inv": f}, {"id": f, "src": t, "tgt": s, "inv": e}]
    rng.shuffle(edges)
    sites = [s, t]
    rng.shuffle(sites)
    return {"format": "pattern", "sites": sites, "edges": edges}


TRIANGLE = ([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
THREE_EDGES = ([0, 1, 2, 3], [[0, 1, 2], [0, 3], [1, 3]])


def make_inputs(workload, seed, work, cli):
    """Write the workload's inputs into ``work`` and build prerequisite groups.

    ``cli(argv)`` runs one CLI command and returns (exit code, stdout,
    stderr).  Returns a dict of input paths keyed by role."""
    from acygroups import serialize as ser
    from acygroups.covering import intersection_graph
    from acygroups.egraph import biggs_tree, hypercube

    rng = random.Random(f"{workload}:{seed}")
    paths = {}

    def run(argv):
        code = cli(argv)[0]
        expect(code == 0, f"set-up command {argv[0]} exited {code}")

    def seed_group(key, graph):
        src = f"{work}/{key}_graph.json"
        _write(src, _relabel_egraph(ser.egraph_to_json(graph), rng))
        paths[key] = f"{work}/{key}.json"
        run(["symgroup", src, "--no-hypercube", "-o", paths[key]])

    def cover_inputs(key, base):
        hg = _relabel_hypergraph(*base, rng)
        paths[f"{key}_hg"] = f"{work}/{key}_hg.json"
        _write(paths[f"{key}_hg"], hg)
        template = intersection_graph(ser.hypergraph_from_json(hg))
        paths[f"{key}_template"] = f"{work}/{key}_template.json"
        _write(paths[f"{key}_template"], ser.egraph_to_json(template))
        paths[f"{key}_seed"] = f"{work}/{key}_seed.json"
        run(["symgroup", paths[f"{key}_template"], "-o", paths[f"{key}_seed"]])

    if workload == "tower_plain":
        seed_group("cube_2", hypercube(["a", "b"]))
    elif workload == "cover_pipeline":
        seed_group("biggs_3_1", biggs_tree(["a", "b", "c"], 1))
        cover_inputs("triangle", TRIANGLE)
        cover_inputs("three_edges", THREE_EDGES)
        paths["pattern"] = f"{work}/pattern.json"
        _write(paths["pattern"], _two_site_pattern(rng))
    elif workload == "cap_probe":
        seed_group("cube_3", hypercube(["a", "b", "c"]))
        seed_group("biggs_3_1", biggs_tree(["a", "b", "c"], 1))
        paths["g2592"] = f"{work}/g2592.json"
        run(["construct", paths["biggs_3_1"], "-N", "4", "--early-exit", "-o", paths["g2592"]])
        expect(_read(paths["g2592"])["order"] == 2592, "prerequisite group is not of order 2592")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths


# ------------------------------------------------------------- instances


class Context:
    """What an instance sees: inputs, an output directory, the timed CLI,
    and (in traced passes) the orders of the group closures it ran."""

    def __init__(self, paths, out, cli, closure_orders=None):
        self.paths = paths
        self.out = out
        self.cli = cli
        self.closure_orders = closure_orders
        self.digests = {}

    def digest(self, *files):
        """Record SHA-256 digests of canonical outputs for cross-pass checks."""
        for path in files:
            with open(path, "rb") as fh:
                self.digests[path.rsplit("/", 1)[-1]] = hashlib.sha256(fh.read()).hexdigest()


def _stages(path):
    stages = _read(path)["stages"]
    final = stages[-1]["final_checks"] if stages else None
    return [s["order"] for s in stages], bool(final) and all(final.values())


def _construct(ctx, key, group, n, extra=()):
    out = f"{ctx.out}/{key}"
    code, _, err = ctx.cli(["construct", group, "-N", str(n), *extra,
                            "-o", f"{out}.json", "--reports", f"{out}_reports.json"])
    return out, code, err


def _check_construct(ctx, key, out, code, stages):
    """A finished tower: exit 0, pinned stage orders, final checks true."""
    expect(code == 0, f"{key}: construct exited {code}")
    orders, final_ok = _stages(f"{out}_reports.json")
    expect(orders == stages, f"{key}: stage orders {orders}, expected {stages}")
    expect(_read(f"{out}.json")["order"] == stages[-1], f"{key}: wrong final order")
    expect(final_ok, f"{key}: final verification failed")
    ctx.digest(f"{out}.json", f"{out}_reports.json")


def tower_cube_2(ctx):
    out, code, _ = _construct(ctx, "tower", ctx.paths["cube_2"], 12)
    _check_construct(ctx, "tower", out, code, [4, 55440])
    return "decided"


def construct_biggs(ctx):
    out, code, _ = _construct(ctx, "biggs", ctx.paths["biggs_3_1"], 4, ["--early-exit"])
    _check_construct(ctx, "biggs", out, code, [24, 2592])
    return "decided"


def _cover(key, vertices, hyperedges):
    """Over-template construct, hypergraph cover, then the cover check."""

    def instance(ctx):
        p = ctx.paths
        out, code, _ = _construct(ctx, key, p[f"{key}_seed"], 4,
                                  ["--over", p[f"{key}_template"], "--early-exit"])
        _check_construct(ctx, key, out, code, [24, 2592])
        code, _, _ = ctx.cli(["cover-hypergraph", p[f"{key}_hg"], f"{out}.json",
                              "-o", f"{out}_cover.json"])
        expect(code == 0, f"{key}: cover-hypergraph exited {code}")
        cover = _read(f"{out}_cover.json")["cover"]
        expect(len(cover["vertices"]) == vertices, f"{key}: {len(cover['vertices'])} cover vertices")
        expect(len(cover["hyperedges"]) == hyperedges, f"{key}: {len(cover['hyperedges'])} hyperedges")
        code, _, _ = ctx.cli(["verify-cover", f"{out}_cover.json", "-N", "4",
                              "-o", f"{out}_check.json"])
        expect(code == 0 and _read(f"{out}_check.json")["holds"] is True,
               f"{key}: verify-cover exited {code}")
        ctx.digest(f"{out}_cover.json", f"{out}_check.json")
        return "decided"

    return instance


def groupoid_two_site(ctx):
    out = f"{ctx.out}/groupoid"
    code, _, _ = ctx.cli(["groupoid-construct", ctx.paths["pattern"], "-N", "4", "--early-exit",
                          "-o", f"{out}.json", "--group-output", f"{out}_group.json"])
    expect(code == 0, f"groupoid-construct exited {code}")
    expect(_read(f"{out}_group.json")["order"] == 31104, "groupoid: backing group order")
    expect(_read(f"{out}.json")["order"] == 4, "groupoid: groupoid order")
    ctx.digest(f"{out}.json", f"{out}_group.json")
    return "decided"


def _search(ctx, key, group, n):
    """check-acyclic; a witness it emits must revalidate through verify-witness.

    Returns (verdict or None for a cap, exit code, stderr, witness length)."""
    out = f"{ctx.out}/{key}"
    code, _, err = ctx.cli(["check-acyclic", group, "-N", str(n), "-o", f"{out}.json"])
    if code == 2:
        return None, code, err, None
    if code == 0:
        doc = _read(f"{out}.json")
        expect(doc.get("holds") is True and doc.get("N") == n, f"{key}: bad check output")
        ctx.digest(f"{out}.json")
        return "decided", code, err, None
    expect(code == 1, f"{key}: check-acyclic exited {code}")
    length = len(_read(f"{out}.json")["entries"])
    expect(2 <= length <= n, f"{key}: witness of length {length}")
    vcode, _, _ = ctx.cli(["verify-witness", f"{out}.json", group, "-o", f"{out}_valid.json"])
    expect(vcode == 0 and _read(f"{out}_valid.json")["witness_valid"] is True,
           f"{key}: witness did not revalidate")
    ctx.digest(f"{out}.json", f"{out}_valid.json")
    return "decided", code, err, length


def witness_biggs(ctx):
    verdict, code, _, length = _search(ctx, "witness", ctx.paths["biggs_3_1"], 6)
    expect(code == 1 and length == 4, f"witness: exit {code}, length {length}; expected a 4-cycle")
    return verdict


def cap_cube_3(ctx):
    """Exit 2 at the default element cap after stages [8, 216], or, once the
    program can decide it, a finished tower whose final checks hold."""
    out, code, err = _construct(ctx, "cube_3", ctx.paths["cube_3"], 4, ["--early-exit"])
    if code == 0:
        _, final_ok = _stages(f"{out}_reports.json")
        expect(final_ok, "cube_3: final verification failed")
        ctx.digest(f"{out}.json", f"{out}_reports.json")
        return "decided"
    expect(code == 2, f"cube_3: construct exited {code}")
    expect(f"element cap {ELEMENT_CAP} exceeded" in err, f"cube_3: unexpected cap {err!r}")
    if ctx.closure_orders is not None:
        expect(ctx.closure_orders == [8, 216], f"cube_3: closures {ctx.closure_orders}")
    return "undecided"


def cap_search_budget(ctx):
    """Exit 2 at the default 2M-node search budget, or a verified verdict."""
    verdict, code, err, _ = _search(ctx, "budget", ctx.paths["g2592"], 5)
    if verdict is None:
        expect(f"search budget {SEARCH_BUDGET} exceeded" in err, f"budget: unexpected cap {err!r}")
        return "undecided"
    return verdict


INSTANCES = {
    "tower_plain": [("cube_2_n12", tower_cube_2)],
    "cover_pipeline": [
        ("biggs_3_1_n4", construct_biggs),
        ("triangle_cover", _cover("triangle", 7776, 7776)),
        ("three_edge_cover", _cover("three_edges", 10368, 7776)),
        ("two_site_groupoid", groupoid_two_site),
        ("biggs_3_1_witness", witness_biggs),
    ],
    "cap_probe": [
        ("cube_3_element_cap", cap_cube_3),
        ("order_2592_search_budget", cap_search_budget),
    ],
}
