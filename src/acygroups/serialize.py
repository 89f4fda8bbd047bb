"""JSON and DOT forms for every public object, plus digests and manifests.

All JSON output is canonical: sorted keys, compact separators, a trailing
newline.  Digests are SHA-256 of those bytes, so equal objects serialise to
equal files bit for bit.
"""

from __future__ import annotations

import hashlib
import json

from .covering import Covering, Hypergraph
from .egraph import EGraph, new_egraph
from .errors import SchemaError
from .groupoid import ConstraintPattern, IGraph, IGroupoid
from .groups import EGroup
from .traverse import NO_EDGE, bfs_parents

TOOL_VERSION = "0.1.0"
COMPOSITION_DUMP_LIMIT = 200


def canonical_bytes(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def digest(doc):
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def _need(doc, key, types, pointer):
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", pointer)
    if key not in doc:
        raise SchemaError(f"missing key {key!r}", f"{pointer}/{key}")
    val = doc[key]
    if types is not None and not isinstance(val, types):
        raise SchemaError(f"wrong type for {key!r}", f"{pointer}/{key}")
    return val


def _indices(doc, key, low, high, pointer):
    """doc[key]: a list of ints in low..high-1, checked entry by entry."""
    row = _need(doc, key, list, pointer)
    for i, x in enumerate(row):
        if not (isinstance(x, int) and low <= x < high):
            raise SchemaError(f"entry out of range {low}..{high - 1}", f"{pointer}/{key}/{i}")
    return row


def _names(doc, key, pointer):
    """doc[key]: a list of vertex, colour or site names, all strings."""
    row = _need(doc, key, list, pointer)
    for i, x in enumerate(row):
        if not isinstance(x, str):
            raise SchemaError("a name must be a string", f"{pointer}/{key}/{i}")
    return row


def _known(x, known, what, pointer):
    """x, when it is one of the known names."""
    if not isinstance(x, str) or x not in known:
        raise SchemaError(f"unknown {what} {x!r}", pointer)
    return x


def egraph_to_json(g, role=None):
    doc = {
        "format": "egraph",
        "vertices": [str(v) for v in g.vertex_names],
        "colors": list(g.colors),
        "edges": [[g.colors[c], str(g.vertex_names[u]), str(g.vertex_names[v])]
                  for c, u, v in g.all_edges()],
    }
    if role:
        doc["role"] = role
    return doc


def egraph_from_json(doc, pointer=""):
    vertices = _names(doc, "vertices", pointer)
    colors = _names(doc, "colors", pointer)
    edges = _need(doc, "edges", list, pointer)
    known_v = set(vertices)
    known_c = set(colors)
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise SchemaError("edge must be [color,u,v]", f"{pointer}/edges/{i}")
        _known(e[0], known_c, "colour", f"{pointer}/edges/{i}/0")
        _known(e[1], known_v, "vertex", f"{pointer}/edges/{i}/u")
        _known(e[2], known_v, "vertex", f"{pointer}/edges/{i}/v")
    return new_egraph(vertices, colors, [tuple(e) for e in edges])


def egroup_to_json(group):
    return {
        "format": "egroup",
        "colors": list(group.colors),
        "order": group.order,
        "action": {group.colors[c]: list(row) for c, row in enumerate(group.gen_action)},
    }


def egroup_from_json(doc, pointer=""):
    colors = _names(doc, "colors", pointer)
    order = _need(doc, "order", int, pointer)
    if order < 1:
        raise SchemaError("a group has at least one element", f"{pointer}/order")
    action_doc = _need(doc, "action", dict, pointer)
    action = []
    for c in colors:
        if c not in action_doc:
            raise SchemaError(f"missing action for colour {c!r}", f"{pointer}/action/{c}")
        row = action_doc[c]
        if (not isinstance(row, list) or len(row) != order
                or not all(isinstance(x, int) for x in row) or sorted(row) != list(range(order))):
            raise SchemaError("action row is not a permutation", f"{pointer}/action/{c}")
        action.append(row)
    # rebuild witness links by breadth-first closure from the identity
    reached, parents = bfs_parents(action, order, [0])
    if len(reached) != order:
        raise SchemaError("action tables do not generate all elements", f"{pointer}/action")
    return EGroup(colors, action, parents)


def pattern_to_json(pattern):
    return {
        "format": "pattern",
        "sites": list(pattern.sites),
        "edges": [
            {
                "id": pattern.edge_ids[e],
                "src": pattern.sites[pattern.src[e]],
                "tgt": pattern.sites[pattern.tgt[e]],
                "inv": pattern.edge_ids[pattern.inv[e]],
            }
            for e in range(pattern.n_edges)
        ],
    }


def pattern_from_json(doc, pointer=""):
    sites = _names(doc, "sites", pointer)
    edges_doc = _need(doc, "edges", list, pointer)
    edges = []
    for i, e in enumerate(edges_doc):
        p = f"{pointer}/edges/{i}"
        edges.append((_need(e, "id", str, p), _need(e, "src", str, p),
                      _need(e, "tgt", str, p), _need(e, "inv", str, p)))
    return ConstraintPattern(sites, edges)


def igraph_to_json(ig):
    return {
        "format": "igraph",
        "pattern": pattern_to_json(ig.pattern),
        "vertices": [str(v) for v in ig.vertex_names],
        "site_of": [ig.pattern.sites[s] for s in ig.site_of],
        "edges": {
            ig.pattern.edge_ids[e]: [[str(ig.vertex_names[u]), str(ig.vertex_names[v])]
                                     for u, v in ig.edges[e]]
            for e in range(ig.pattern.n_edges)
        },
    }


def igraph_from_json(doc, pointer=""):
    pattern = pattern_from_json(_need(doc, "pattern", dict, pointer), f"{pointer}/pattern")
    vertices = _names(doc, "vertices", pointer)
    site_names = _need(doc, "site_of", list, pointer)
    vidx = {v: i for i, v in enumerate(vertices)}
    try:
        site_of = [pattern.sites.index(s) for s in site_names]
    except ValueError:
        raise SchemaError("unknown site name", f"{pointer}/site_of") from None
    edges_doc = _need(doc, "edges", dict, pointer)
    edges = []
    for e in range(pattern.n_edges):
        eid = pattern.edge_ids[e]
        rows = edges_doc.get(eid, [])
        if not isinstance(rows, list):
            raise SchemaError("an edge class must be a list", f"{pointer}/edges/{eid}")
        pairs = []
        for i, pair in enumerate(rows):
            p = f"{pointer}/edges/{eid}/{i}"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError("edge must be [u,v]", p)
            pairs.append((vidx[_known(pair[0], vidx, "vertex", f"{p}/0")],
                          vidx[_known(pair[1], vidx, "vertex", f"{p}/1")]))
        edges.append(pairs)
    return IGraph(pattern, vertices, site_of, edges)


def igroupoid_to_json(gpd):
    doc = {
        "format": "igroupoid",
        "pattern": pattern_to_json(gpd.pattern),
        "order": gpd.order,
        "sorts": [[gpd.pattern.sites[s], gpd.pattern.sites[t]] for s, t in gpd.sorts],
        "neutrals": list(gpd.neutral),
        "generators": {gpd.pattern.edge_ids[e]: gpd.gen_elem[e]
                       for e in range(gpd.pattern.n_edges)},
        "rmul": {gpd.pattern.edge_ids[e]: list(gpd.rmul[e])
                 for e in range(gpd.pattern.n_edges)},
    }
    if gpd.order <= COMPOSITION_DUMP_LIMIT:
        table = []
        for a in range(gpd.order):
            for b in range(gpd.order):
                if gpd.target(a) == gpd.source(b):
                    table.append([a, b, gpd.compose(a, b)])
        doc["composition"] = table
    return doc


def igroupoid_from_json(doc, pointer=""):
    pattern = pattern_from_json(_need(doc, "pattern", dict, pointer), f"{pointer}/pattern")
    order = _need(doc, "order", int, pointer)
    sorts_doc = _need(doc, "sorts", list, pointer)
    if len(sorts_doc) != order:
        raise SchemaError("one sort per element expected", f"{pointer}/sorts")
    sorts = []
    for i, st in enumerate(sorts_doc):
        if not (isinstance(st, list) and len(st) == 2 and all(s in pattern.sites for s in st)):
            raise SchemaError("sort must be [site,site]", f"{pointer}/sorts/{i}")
        sorts.append(tuple(pattern.sites.index(s) for s in st))
    neutral = _indices(doc, "neutrals", 0, order, pointer)
    if len(neutral) != pattern.n_sites:
        raise SchemaError("one neutral element per site expected", f"{pointer}/neutrals")
    gen_doc = _need(doc, "generators", dict, pointer)
    rmul_doc = _need(doc, "rmul", dict, pointer)
    rmul = []
    gen_elem = []
    for e in range(pattern.n_edges):
        eid = pattern.edge_ids[e]
        row = _indices(rmul_doc, eid, NO_EDGE, order, f"{pointer}/rmul")
        if len(row) != order:
            raise SchemaError("rmul row has wrong length", f"{pointer}/rmul/{eid}")
        rmul.append(row)
        gen = _need(gen_doc, eid, int, f"{pointer}/generators")
        if not 0 <= gen < order:
            raise SchemaError("generator out of range", f"{pointer}/generators/{eid}")
        gen_elem.append(gen)
    reached, parents = bfs_parents(rmul, order, neutral)
    if len(reached) != order:
        raise SchemaError("tables do not generate all elements", f"{pointer}/rmul")
    return IGroupoid(pattern, sorts, neutral, gen_elem, rmul, parents)


def hypergraph_to_json(hg):
    return {
        "format": "hypergraph",
        "vertices": [str(v) for v in hg.vertex_names],
        "hyperedges": [sorted(str(hg.vertex_names[v]) for v in he) for he in hg.hyperedges],
    }


def hypergraph_from_json(doc, pointer=""):
    vertices = _names(doc, "vertices", pointer)
    hyperedges = _need(doc, "hyperedges", list, pointer)
    known = set(vertices)
    for i, he in enumerate(hyperedges):
        if not isinstance(he, list):
            raise SchemaError("a hyperedge must be a list", f"{pointer}/hyperedges/{i}")
        for j, v in enumerate(he):
            _known(v, known, "vertex", f"{pointer}/hyperedges/{i}/{j}")
    return Hypergraph(vertices, hyperedges)


def graph_to_json(edges):
    vertices = sorted({str(x) for e in edges for x in e})
    return {
        "format": "graph",
        "vertices": vertices,
        "edges": [sorted([str(u), str(v)]) for u, v in sorted(map(sorted, edges))],
    }


def graph_from_json(doc, pointer=""):
    vertices = _names(doc, "vertices", pointer)
    edges = _need(doc, "edges", list, pointer)
    known = set(vertices)
    out = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError("edge must be [u,v]", f"{pointer}/edges/{i}")
        out.append((_known(e[0], known, "vertex", f"{pointer}/edges/{i}/u"),
                     _known(e[1], known, "vertex", f"{pointer}/edges/{i}/v")))
    return out


def covering_to_json(cov):
    doc = {
        "format": "covering",
        "kind": cov.kind,
        "projection": list(cov.projection),
        "group_digest": digest(egroup_to_json(cov.group)),
    }
    if cov.kind == "graph":
        doc["base"] = egraph_to_json(cov.base)
        doc["cover"] = egraph_to_json(cov.cover)
        doc["provenance"] = {"anchor": list(cov.provenance["anchor"])}
    else:
        doc["base"] = hypergraph_to_json(cov.base)
        doc["cover"] = hypergraph_to_json(cov.cover)
        doc["provenance"] = {
            "classes": [[list(t) for t in m] for m in cov.provenance["classes"]],
            "copy_tags": [list(t) for t in cov.provenance["copy_tags"]],
        }
    return doc


def cycle_to_json(group, entries):
    out = []
    for entry in entries:
        if len(entry) == 2:
            a, g = entry
            out.append({"alpha": sorted(group.colors[c] for c in a), "g": g})
        else:
            a, s, g = entry
            out.append({"alpha": sorted(group.colors[c] for c in a), "site": s, "g": g})
    return {"format": "coset_cycle", "entries": out}


def cycle_from_json(doc, group, pointer="", n_sites=None):
    """(alpha, g) entries, or (alpha, site, g) when n_sites (the template's
    vertex count) is given; elements and sites are range-checked."""
    entries = _need(doc, "entries", list, pointer)
    out = []
    for i, e in enumerate(entries):
        p = f"{pointer}/entries/{i}"
        alpha = frozenset(group.color_index(c) for c in _need(e, "alpha", list, p))
        g = _need(e, "g", int, p)
        if not 0 <= g < group.order:
            raise SchemaError(f"element out of range 0..{group.order - 1}", f"{p}/g")
        if n_sites is None:
            out.append((alpha, g))
            continue
        s = _need(e, "site", int, p)
        if not 0 <= s < n_sites:
            raise SchemaError(f"site out of range 0..{n_sites - 1}", f"{p}/site")
        out.append((alpha, s, g))
    return out


def reports_to_json(reports):
    return {"format": "stage_reports", "stages": [r.to_json() for r in reports]}


def manifest(command, config, inputs, outputs, reports=None, timings=None):
    """Reproducible run record; timings are only attached when asked for,
    keeping default manifests byte-identical across runs."""
    doc = {
        "format": "manifest",
        "tool": "acygroups",
        "version": TOOL_VERSION,
        "command": list(command),
        "config": config,
        "inputs": {k: v for k, v in sorted(inputs.items())},
        "outputs": {k: v for k, v in sorted(outputs.items())},
    }
    if reports is not None:
        doc["reports"] = reports
    if timings is not None:
        doc["timings"] = timings
    return doc


FORMATS = {
    "egraph": egraph_from_json,
    "egroup": egroup_from_json,
    "pattern": pattern_from_json,
    "igraph": igraph_from_json,
    "igroupoid": igroupoid_from_json,
    "hypergraph": hypergraph_from_json,
    "graph": graph_from_json,
}


def load_document(doc):
    fmt = _need(doc, "format", str, "")
    if fmt not in FORMATS:
        raise SchemaError(f"unknown format {fmt!r}", "/format")
    return FORMATS[fmt](doc)


_DOT_STYLES = ["solid", "dashed", "dotted", "bold"]
_DOT_COLORS = ["black", "red", "blue", "forestgreen", "orange", "purple", "brown", "cyan4"]


def _style(c):
    return (
        f'color="{_DOT_COLORS[c % len(_DOT_COLORS)]}",'
        f'style="{_DOT_STYLES[(c // len(_DOT_COLORS)) % len(_DOT_STYLES)]}"'
    )


def egraph_to_dot(g, tooltips=None):
    lines = ["graph {"]
    for v, name in enumerate(g.vertex_names):
        tip = f',tooltip="{tooltips[v]}"' if tooltips else ""
        lines.append(f'  v{v} [label="{name}"{tip}];')
    for c, u, v in g.all_edges():
        lines.append(f'  v{u} -- v{v} [label="{g.colors[c]}",{_style(c)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def amalgam_to_dot(am):
    tips = [";".join(f"{i}:{x}" for i, x in sorted(prov)) for prov in am.provenance]
    return egraph_to_dot(am.graph, tooltips=tips)


def igraph_to_dot(ig):
    lines = ["digraph {"]
    for v, name in enumerate(ig.vertex_names):
        site = ig.pattern.sites[ig.site_of[v]]
        lines.append(f'  v{v} [label="{name}@{site}"];')
    for e, einv in ig.pattern.pairs():
        for u, v in ig.edges[e]:
            lines.append(
                f'  v{u} -> v{v} [label="{ig.pattern.edge_ids[e]}",{_style(e)},dir=both,arrowtail=none];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def hypergraph_to_dot(hg):
    # Gaifman view with hyperedges as labelled cliques
    lines = ["graph {"]
    for v, name in enumerate(hg.vertex_names):
        lines.append(f'  v{v} [label="{name}"];')
    for i, he in enumerate(hg.hyperedges):
        members = sorted(he)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                lines.append(f'  v{members[a]} -- v{members[b]} [label="h{i}",{_style(i)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def object_to_dot(obj):
    if isinstance(obj, EGraph):
        return egraph_to_dot(obj)
    if isinstance(obj, Hypergraph):
        return hypergraph_to_dot(obj)
    if isinstance(obj, IGraph):
        return igraph_to_dot(obj)
    if isinstance(obj, Covering):
        return object_to_dot(obj.cover)
    raise SchemaError("object has no DOT form", "/")
