"""JSON and DOT forms for every public object, plus digests and manifests.

All JSON output is canonical: sorted keys, compact separators, a trailing
newline.  Digests are SHA-256 of those bytes, so equal objects serialise to
equal files bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

from .covering import Hypergraph, graph_template
from .egraph import EGraph, new_egraph
from .errors import DegenerateGenerators, MatchingViolation, SchemaError
from .groupoid import (
    ConstraintPattern,
    IGraph,
    IGroupoid,
    groupoid_fault,
    igraph_fault,
    pattern_fault,
)
from .groups import EGroup
from .traverse import NO_EDGE, Cosets

TOOL_VERSION = "0.1.0"
COMPOSITION_DUMP_LIMIT = 200


def canonical_bytes(doc):
    # the documents built here are trees, so the encoder's circular-reference
    # bookkeeping (one marker per list and object) has nothing to find
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"),
                       check_circular=False) + "\n").encode()


def digest(doc):
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def _at(pointer, *keys):
    """The JSON pointer (RFC 6901) to keys below pointer: array members are
    indices, and each name escapes ~ as ~0 and / as ~1."""
    return pointer + "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in keys)


def _need(doc, key, types, pointer):
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", pointer)
    if key not in doc:
        raise SchemaError(f"missing key {key!r}", _at(pointer, key))
    val = doc[key]
    # JSON true and false are not integers, though Python's bool is an int
    if types is not None and (not isinstance(val, types) or isinstance(val, bool)):
        raise SchemaError(f"wrong type for {key!r}", _at(pointer, key))
    return val


def _indices(doc, key, low, high, pointer):
    """doc[key]: a list of ints in low..high-1, checked entry by entry."""
    row = _need(doc, key, list, pointer)
    for i, x in enumerate(row):
        if not (type(x) is int and low <= x < high):
            raise SchemaError(f"entry out of range {low}..{high - 1}", _at(pointer, key, i))
    return row


def _names(doc, key, pointer):
    """doc[key]: a list of distinct vertex, colour or site names, all strings."""
    row = _need(doc, key, list, pointer)
    seen = set()
    for i, x in enumerate(row):
        if not isinstance(x, str):
            raise SchemaError("a name must be a string", _at(pointer, key, i))
        if x in seen:
            raise SchemaError(f"duplicate name {x!r}", _at(pointer, key, i))
        seen.add(x)
    return row


def _known(x, known, what, pointer):
    """x, when it is one of the known names."""
    if not isinstance(x, str) or x not in known:
        raise SchemaError(f"unknown {what} {x!r}", pointer)
    return x


def _keyed(doc, key, names, what, pointer):
    """doc[key]: an object whose keys are all among names."""
    obj = _need(doc, key, dict, pointer)
    for k in obj:
        _known(k, names, what, _at(pointer, key, k))
    return obj


def _rows(rows, kinds, shape, pointer):
    """The edge rows of a list, as tuples: each row must be a list of one
    member per (names, what) entry of kinds, each member one of its names
    (SchemaError at pointer/i or pointer/i/j otherwise)."""
    out = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == len(kinds)):
            raise SchemaError(f"edge must be {shape}", _at(pointer, i))
        out.append(tuple(_known(x, names, what, _at(pointer, i, j))
                         for j, (x, (names, what)) in enumerate(zip(row, kinds))))
    return out


def egraph_to_json(g):
    return {
        "format": "egraph",
        "vertices": [str(v) for v in g.vertex_names],
        "colors": list(g.colors),
        "edges": [[g.colors[c], str(g.vertex_names[u]), str(g.vertex_names[v])]
                  for c, u, v in g.all_edges()],
    }


def egraph_from_json(doc, pointer=""):
    vertices = _names(doc, "vertices", pointer)
    colors = _names(doc, "colors", pointer)
    known_v = (set(vertices), "vertex")
    edges = _rows(_need(doc, "edges", list, pointer), [(set(colors), "colour"), known_v, known_v],
                  "[color,u,v]", _at(pointer, "edges"))
    try:
        return new_egraph(vertices, colors, edges)
    except MatchingViolation as exc:
        raise SchemaError(str(exc), _at(pointer, "edges", exc.index)) from None


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
        raise SchemaError("a group has at least one element", _at(pointer, "order"))
    action_doc = _keyed(doc, "action", colors, "colour", pointer)
    action = []
    identity = []  # built once, for the first row of the right length
    for c in colors:
        if c not in action_doc:
            raise SchemaError(f"missing action for colour {c!r}", _at(pointer, "action", c))
        row = action_doc[c]
        if not identity and isinstance(row, list) and len(row) == order:
            identity = list(range(order))
        if (not isinstance(row, list) or len(row) != order
                or not all(type(x) is int for x in row) or sorted(row) != identity):
            raise SchemaError("action row is not a permutation", _at(pointer, "action", c))
        action.append(row)
    # no row backs a colourless group's order, so it is refused before the
    # walk sizes a list by it
    if (not colors and order != 1) or len(Cosets(order, action).block(0)) != order:
        raise SchemaError("action tables do not generate all elements", _at(pointer, "action"))
    try:
        return EGroup(colors, action, order)
    except DegenerateGenerators as exc:
        raise SchemaError(str(exc), _at(pointer, "action", colors[exc.index])) from None


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
    ids = [_need(e, "id", str, _at(pointer, "edges", i)) for i, e in enumerate(edges_doc)]
    sidx, eidx = {s: i for i, s in enumerate(sites)}, {}
    for i, eid in enumerate(ids):
        if eidx.setdefault(eid, i) != i:
            raise SchemaError("duplicate edge ids", _at(pointer, "edges", i, "id"))
    edges = []
    for i, (eid, e) in enumerate(zip(ids, edges_doc)):
        p = _at(pointer, "edges", i)
        edges.append((eid, _known(_need(e, "src", str, p), sidx, "site", _at(p, "src")),
                      _known(_need(e, "tgt", str, p), sidx, "site", _at(p, "tgt")),
                      _known(_need(e, "inv", str, p), eidx, "edge", _at(p, "inv"))))
    fault = pattern_fault(len(sites), [sidx[e[1]] for e in edges], [sidx[e[2]] for e in edges],
                          [eidx[e[3]] for e in edges])
    if fault is not None:
        message, kind, i = fault
        raise SchemaError(message, _at(pointer, "edges", i, "inv") if kind == "edge"
                          else _at(pointer, "sites", i))
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
    pattern = pattern_from_json(_need(doc, "pattern", dict, pointer), _at(pointer, "pattern"))
    vertices = _names(doc, "vertices", pointer)
    site_names = _need(doc, "site_of", list, pointer)
    if len(site_names) != len(vertices):
        raise SchemaError("one site per vertex expected", _at(pointer, "site_of"))
    vidx = {v: i for i, v in enumerate(vertices)}
    sidx = {s: i for i, s in enumerate(pattern.sites)}
    site_of = [sidx[_known(s, sidx, "site", _at(pointer, "site_of", i))]
               for i, s in enumerate(site_names)]
    edges_doc = _keyed(doc, "edges", pattern.edge_ids, "edge", pointer)
    edges = []
    for e in range(pattern.n_edges):
        eid = pattern.edge_ids[e]
        rows = edges_doc.get(eid, [])
        if not isinstance(rows, list):
            raise SchemaError("an edge class must be a list", _at(pointer, "edges", eid))
        pairs = _rows(rows, [(vidx, "vertex")] * 2, "[u,v]", _at(pointer, "edges", eid))
        edges.append([(vidx[u], vidx[v]) for u, v in pairs])
    fault = igraph_fault(pattern, site_of, edges)
    if fault is not None:
        message, e, i = fault
        if e is None:
            raise SchemaError(message, _at(pointer, "site_of"))
        at = _at(pointer, "edges", pattern.edge_ids[e])
        raise SchemaError(message, at if i is None else _at(at, i))
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
    pattern = pattern_from_json(_need(doc, "pattern", dict, pointer), _at(pointer, "pattern"))
    order = _need(doc, "order", int, pointer)
    sorts_doc = _need(doc, "sorts", list, pointer)
    if len(sorts_doc) != order:
        raise SchemaError("one sort per element expected", _at(pointer, "sorts"))
    sorts = []
    for i, st in enumerate(sorts_doc):
        if not (isinstance(st, list) and len(st) == 2 and all(s in pattern.sites for s in st)):
            raise SchemaError("sort must be [site,site]", _at(pointer, "sorts", i))
        sorts.append(tuple(pattern.sites.index(s) for s in st))
    neutral = _indices(doc, "neutrals", 0, order, pointer)
    if len(neutral) != pattern.n_sites:
        raise SchemaError("one neutral element per site expected", _at(pointer, "neutrals"))
    gen_doc = _keyed(doc, "generators", pattern.edge_ids, "edge", pointer)
    rmul_doc = _keyed(doc, "rmul", pattern.edge_ids, "edge", pointer)
    rmul = []
    gen_elem = []
    for e in range(pattern.n_edges):
        eid = pattern.edge_ids[e]
        row = _indices(rmul_doc, eid, NO_EDGE, order, _at(pointer, "rmul"))
        if len(row) != order:
            raise SchemaError("rmul row has wrong length", _at(pointer, "rmul", eid))
        rmul.append(row)
        gen = _need(gen_doc, eid, int, _at(pointer, "generators"))
        if not 0 <= gen < order:
            raise SchemaError("generator out of range", _at(pointer, "generators", eid))
        gen_elem.append(gen)
    reach = Cosets(order, rmul)
    if len(set().union(*map(reach.block, neutral))) != order:
        raise SchemaError("tables do not generate all elements", _at(pointer, "rmul"))
    fault = groupoid_fault(pattern, sorts, neutral, gen_elem)
    if fault is not None:
        _, message, key, i = fault
        raise SchemaError(message, _at(pointer, key, i if key == "sorts" else pattern.edge_ids[i]))
    return IGroupoid(pattern, sorts, neutral, gen_elem, rmul)


def hypergraph_to_json(hg):
    names = [str(v) for v in hg.vertex_names]
    return {
        "format": "hypergraph",
        "vertices": names,
        "hyperedges": [sorted(map(names.__getitem__, he)) for he in hg.hyperedges],
    }


def hypergraph_from_json(doc, pointer=""):
    """The hypergraph of doc; its names are mapped to indices by one dict,
    and a hyperedge's names are walked one by one only to point at a name
    that fails."""
    vertices = _names(doc, "vertices", pointer)
    hyperedges = _need(doc, "hyperedges", list, pointer)
    vidx = {v: i for i, v in enumerate(vertices)}
    index_sets = []
    for i, he in enumerate(hyperedges):
        if not isinstance(he, list):
            raise SchemaError("a hyperedge must be a list", _at(pointer, "hyperedges", i))
        if not he:
            raise SchemaError("a hyperedge must be nonempty", _at(pointer, "hyperedges", i))
        try:
            index_sets.append(frozenset(map(vidx.__getitem__, he)))
        except (KeyError, TypeError):
            for j, v in enumerate(he):
                _known(v, vidx, "vertex", _at(pointer, "hyperedges", i, j))
            raise
    return Hypergraph(vertices, index_sets)


def graph_to_json(edges):
    vertices = sorted({str(x) for e in edges for x in e})
    return {
        "format": "graph",
        "vertices": vertices,
        "edges": [sorted([str(u), str(v)]) for u, v in sorted(map(sorted, edges))],
    }


def graph_from_json(doc, pointer=""):
    known = set(_names(doc, "vertices", pointer))
    return _rows(_need(doc, "edges", list, pointer), [(known, "vertex")] * 2, "[u,v]",
                 _at(pointer, "edges"))


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
        # tuples encode as JSON arrays: the provenance is written as it is
        doc["provenance"] = {
            "classes": cov.provenance["classes"],
            "copy_tags": cov.provenance["copy_tags"],
        }
    return doc


def covering_from_json(doc, pointer=""):
    """The cover of a covering document: a hypergraph, or an edge-labelled
    graph."""
    kind = _need(doc, "kind", str, pointer)
    if kind not in ("graph", "hypergraph"):
        raise SchemaError(f"unknown covering kind {kind!r}", _at(pointer, "kind"))
    inner = _need(doc, "cover", dict, pointer)
    if kind == "hypergraph":
        return hypergraph_from_json(inner, _at(pointer, "cover"))
    return egraph_from_json(inner, _at(pointer, "cover"))


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
    vertex count) is given; colours are looked up and elements and sites
    range-checked, each with a pointer."""
    entries = _need(doc, "entries", list, pointer)
    colors = {c: i for i, c in enumerate(group.colors)}
    out = []
    for i, e in enumerate(entries):
        p = _at(pointer, "entries", i)
        alpha = frozenset(colors[_known(c, colors, "colour", _at(p, "alpha", j))]
                          for j, c in enumerate(_need(e, "alpha", list, p)))
        g = _need(e, "g", int, p)
        if not 0 <= g < group.order:
            raise SchemaError(f"element out of range 0..{group.order - 1}", _at(p, "g"))
        if n_sites is None:
            out.append((alpha, g))
            continue
        s = _need(e, "site", int, p)
        if not 0 <= s < n_sites:
            raise SchemaError(f"site out of range 0..{n_sites - 1}", _at(p, "site"))
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
    "covering": covering_from_json,
}


def load_document(doc):
    fmt = _need(doc, "format", str, "")
    if fmt not in FORMATS:
        raise SchemaError(f"unknown format {fmt!r}", "/format")
    return FORMATS[fmt](doc)


_DOT_STYLES = ["solid", "dashed", "dotted", "bold"]
_DOT_COLORS = ["black", "red", "blue", "forestgreen", "orange", "purple", "brown", "cyan4"]


def _dot(kind, labels, edges):
    """DOT text of a "graph" or "digraph": one node per label, and one line
    per (u, v, label, style number, extra attributes) edge, coloured and
    styled by the style number."""
    arrow = "->" if kind == "digraph" else "--"
    lines = [f"{kind} {{"]
    lines += [f'  v{v} [label="{name}"];' for v, name in enumerate(labels)]
    for u, v, label, c, extra in edges:
        color = _DOT_COLORS[c % len(_DOT_COLORS)]
        style = _DOT_STYLES[(c // len(_DOT_COLORS)) % len(_DOT_STYLES)]
        lines.append(
            f'  v{u} {arrow} v{v} [label="{label}",color="{color}",style="{style}"{extra}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def object_to_dot(obj):
    """DOT form of a loaded document; a simple graph's edge list is drawn
    as its edge-labelled template."""
    if isinstance(obj, list):
        obj = graph_template(obj)
    if isinstance(obj, EGraph):
        return _dot("graph", obj.vertex_names,
                    ((u, v, obj.colors[c], c, "") for c, u, v in obj.all_edges()))
    if isinstance(obj, Hypergraph):
        # Gaifman view with hyperedges as labelled cliques
        return _dot("graph", obj.vertex_names,
                    ((u, v, f"h{i}", i, "") for i, he in enumerate(obj.hyperedges)
                     for u, v in combinations(sorted(he), 2)))
    if isinstance(obj, IGraph):
        sites = obj.pattern.sites
        labels = [f"{name}@{sites[s]}" for name, s in zip(obj.vertex_names, obj.site_of)]
        return _dot("digraph", labels,
                    ((u, v, obj.pattern.edge_ids[e], e, ",dir=both,arrowtail=none")
                     for e, _ in obj.pattern.pairs() for u, v in obj.edges[e]))
    raise SchemaError("object has no DOT form")
