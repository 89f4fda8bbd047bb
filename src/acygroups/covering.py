"""Finite graph and hypergraph coverings built from acyclic groups.

Graph coverings are connected components of the product of the
edge-labelled base graph with a compatible group's Cayley graph.  Hypergraph
coverings are quotients of group-tagged hyperedge copies; the projection
unravels short cycles when the group is acyclic over the intersection graph
of the base.
"""

from __future__ import annotations

from typing import NamedTuple

from .acyclicity import DEFAULT_SEARCH_BUDGET
from .constraint import IContext
from .egraph import NO_EDGE, new_egraph
from .errors import CompatibilityRequired, PreconditionFailed, ResourceCap, UnknownName
from .groups import is_compatible


class Hypergraph:
    """Vertex set with a family of nonempty hyperedges."""

    __slots__ = ("vertex_names", "hyperedges", "_vidx")

    def __init__(self, vertex_names, hyperedges):
        self.vertex_names = tuple(vertex_names)
        self._vidx = {nm: i for i, nm in enumerate(self.vertex_names)}
        if len(self._vidx) != len(self.vertex_names):
            raise UnknownName("duplicate vertex names")
        out = []
        for he in hyperedges:
            idx = frozenset(self._vidx[v] if v in self._vidx else self._bad(v) for v in he)
            if not idx:
                raise PreconditionFailed("hyperedges must be nonempty")
            out.append(idx)
        self.hyperedges = tuple(out)

    def _bad(self, v):
        raise UnknownName(f"unknown vertex {v!r}")

    @property
    def n(self):
        return len(self.vertex_names)

    def gaifman(self):
        """Adjacency sets of the Gaifman graph (shared-hyperedge relation)."""
        adj = [set() for _ in range(self.n)]
        for he in self.hyperedges:
            for u in he:
                adj[u] |= he - {u}
        return adj

    def __repr__(self):
        return f"Hypergraph({self.n} vertices, {len(self.hyperedges)} hyperedges)"


class Covering(NamedTuple):
    """A covering together with its audit data.

    kind is "graph" or "hypergraph"; projection maps cover vertices to base
    vertices; provenance carries the construction's class representatives.
    """

    kind: str
    base: object
    cover: object
    projection: tuple
    group: object
    template: object
    provenance: dict


def graph_template(base):
    """Edge-labelled template of a simple graph: one colour per edge, each a
    single edge."""
    colors = []
    edges = []
    for u, v in base:
        if u == v:
            raise PreconditionFailed("base graph must be simple")
        name = f"{u}~{v}"
        colors.append(name)
        edges.append((name, u, v))
    vertices = sorted({x for e in base for x in e})
    return new_egraph(vertices, colors, edges)


def graph_cover(base_edges, group, component_of=None):
    """Unbranched covering of a simple graph from a compatible group.

    base_edges is a list of vertex pairs.  The cover is the connected
    component of (v0, 1) in the product of the edge-labelled base with the
    Cayley graph (v0 defaults to the smallest base vertex), projected on the
    first coordinate.
    """
    template = graph_template(base_edges)
    if tuple(template.colors) != group.colors:
        raise CompatibilityRequired("group must use one generator per base edge")
    if not is_compatible(group, template):
        raise CompatibilityRequired("group is not compatible with the base graph")
    ctx = IContext(group, template, check=False)
    v0 = component_of if component_of is not None else 0
    skel = ctx.skeleton(range(len(group.colors)), v0)
    pairs = tuple(map(ctx.pair, skel.hom, skel.elements))
    return Covering(
        "graph", template, skel.graph, skel.hom, group, template,
        {"anchor": (v0, 0), "pairs": pairs},
    )


def intersection_graph(hg):
    """Template on the hyperedges: one colour per intersecting pair."""
    colors = []
    edges = []
    for i in range(len(hg.hyperedges)):
        for j in range(i + 1, len(hg.hyperedges)):
            if hg.hyperedges[i] & hg.hyperedges[j]:
                name = f"e{i}~{j}"
                colors.append(name)
                edges.append((name, f"h{i}", f"h{j}"))
    return new_egraph([f"h{i}" for i in range(len(hg.hyperedges))], colors, edges)


def _vertex_colour_sets(hg, template):
    """Per base vertex: the template colours of hyperedge pairs sharing it."""
    out = [set() for _ in range(hg.n)]
    for c, name in enumerate(template.colors):
        i, j = name[1:].split("~")
        shared = hg.hyperedges[int(i)] & hg.hyperedges[int(j)]
        for v in shared:
            out[v].add(c)
    return out


def hypergraph_cover(hg, group):
    """Branched covering: quotient of group-tagged hyperedge copies.

    The union runs over triples (hyperedge, vertex in it, group element).
    The instance of a shared vertex v in the g-tagged copy of hyperedge s is
    identified with its instance in the g*e-tagged copy of s', where e is the
    colour of the pair {s, s'}.  The quotient is computed by union-find
    seeded with that generator rule only; the walk characterisation of the
    classes is kept as an independent oracle for the tests.
    """
    template = intersection_graph(hg)
    if tuple(template.colors) != group.colors:
        raise CompatibilityRequired("group must use one generator per hyperedge pair")
    if len(template.colors) and not is_compatible(group, template):
        raise CompatibilityRequired("group is not compatible with the intersection graph")
    ng = group.order
    triples = []
    pos = {}
    for hi, he in enumerate(hg.hyperedges):
        for v in sorted(he):
            for g in range(ng):
                pos[(hi, v, g)] = len(triples)
                triples.append((hi, v, g))

    from .amalgam import _UnionFind

    uf = _UnionFind(len(triples))
    for c, name in enumerate(template.colors):
        i, j = (int(x) for x in name[1:].split("~"))
        grow = group.gen_action[c]
        for v in hg.hyperedges[i] & hg.hyperedges[j]:
            for g in range(ng):
                uf.union(pos[(i, v, g)], pos[(j, v, grow[g])])
    classes = {}
    for t, triple in enumerate(triples):
        classes.setdefault(uf.find(t), []).append(triple)
    class_list = sorted(classes.values(), key=min)
    class_of = {}
    for i, members in enumerate(class_list):
        for m in members:
            class_of[m] = i
    cover_edges = {}
    copies = []
    copy_tags = []
    for hi, he in enumerate(hg.hyperedges):
        for g in range(ng):
            key = frozenset(class_of[(hi, v, g)] for v in he)
            cover_edges.setdefault(key, (hi, g))
            copies.append(tuple(sorted(key)))
            copy_tags.append((hi, g))
    names = []
    for members in class_list:
        hi, v, g = min(members)
        names.append(f"{hg.vertex_names[v]}|{hi}.{g}")
    edge_list = sorted(cover_edges, key=sorted)
    cover = Hypergraph(names, [[names[v] for v in sorted(he)] for he in edge_list])
    projection = tuple(min(m)[1] for m in class_list)
    provenance = {
        "classes": tuple(tuple(sorted(m)) for m in class_list),
        "hyperedge_tags": {tuple(sorted(k)): cover_edges[k] for k in cover_edges},
        "copies": tuple(copies),
        "copy_tags": tuple(copy_tags),
    }
    return Covering("hypergraph", hg, cover, projection, group, template, provenance)


def class_oracle_agrees(cov):
    """Independent characterisation of the classes through template walks.

    (s, v, g) and (s', v', g') fall together exactly when v = v' and g' is
    reachable from g along walks labelled by colours of pairs sharing v that
    run from site s to site s' in the intersection graph.
    """
    hg = cov.base
    group = cov.group
    template = cov.template
    if not len(template.colors):
        return all(len(m) == 1 for m in cov.provenance["classes"])
    ctx = IContext(group, template, check=False)
    vcolors = _vertex_colour_sets(hg, template)
    for members in cov.provenance["classes"]:
        hi0, v0, g0 = members[0]
        alpha = frozenset(vcolors[v0])
        ids, mem = ctx.comp_tables(alpha)
        block = set(mem[ids[ctx.pair(hi0, g0)]])
        expected = set()
        for x in block:
            s, g = ctx.unpair(x)
            if v0 in hg.hyperedges[s]:
                expected.add((s, v0, g))
        if set(members) != expected:
            return False
    return True


class CoverReport(NamedTuple):
    ok: bool
    issues: tuple
    stats: dict


def verify_cover(cov):
    """Audit the covering invariants; returns a report, never raises."""
    issues = []
    stats = {}
    if cov.kind == "graph":
        base = cov.base
        cover = cov.cover
        proj = cov.projection
        stats["cover_vertices"] = cover.n
        if set(proj) != set(range(base.n)):
            issues.append("projection is not surjective onto the base")
        for c in range(len(cover.colors)):
            for u, w in cover.edges(c):
                if base.partner[c][proj[u]] != proj[w]:
                    issues.append(f"edge colour {cover.colors[c]} maps off its base edge")
        for v in range(cover.n):
            for c in range(len(cover.colors)):
                if base.partner[c][proj[v]] != NO_EDGE:
                    if cover.partner[c][v] == NO_EDGE:
                        issues.append(f"missing lift of colour {cover.colors[c]} at {v}")
        fibers = {}
        for v in range(cover.n):
            fibers[proj[v]] = fibers.get(proj[v], 0) + 1
        stats["fiber_sizes"] = sorted(set(fibers.values()))
        if len(set(fibers.values())) != 1:
            issues.append("fiber sizes are not constant")
    else:
        hg = cov.base
        cover = cov.cover
        proj = cov.projection
        stats["cover_vertices"] = cover.n
        stats["cover_hyperedges"] = len(cover.hyperedges)
        if set(proj) != {v for he in hg.hyperedges for v in he}:
            issues.append("projection misses covered base vertices")
        for copy, (hi, _) in zip(cov.provenance["copies"], cov.provenance["copy_tags"]):
            if len(set(copy)) != len(hg.hyperedges[hi]):
                issues.append(f"hyperedge copy of h{hi} collapsed")
            if {proj[v] for v in copy} != set(hg.hyperedges[hi]):
                issues.append(f"hyperedge copy of h{hi} projects wrongly")
        if not class_oracle_agrees(cov):
            issues.append("class structure disagrees with the subgroup rule")
    return CoverReport(not issues, tuple(issues), stats)


class AcyclicityWitness(NamedTuple):
    kind: str  # "chordless_cycle" | "nonconformal_clique"
    vertices: tuple


def _chordless_cycles(adj, length):
    """Chordless cycles of exactly the given length, canonical start vertex."""
    for v0 in range(len(adj)):
        yield from _chordless_paths(adj, length, [v0], {v0})


def _chordless_paths(adj, length, path, in_path):
    """The cycles of _chordless_cycles that continue path."""
    v0, last = path[0], path[-1]
    if len(path) == length:
        if v0 in adj[last]:
            yield tuple(path)
        return
    for w in sorted(adj[last]):
        if w <= v0 or w in in_path:
            continue
        # chordlessness: w may only touch the previous vertex (and v0
        # when closing)
        bad = False
        for p in path[:-1]:
            if w in adj[p] and not (p == v0 and len(path) == length - 1):
                bad = True
                break
        if bad:
            continue
        path.append(w)
        in_path.add(w)
        yield from _chordless_paths(adj, length, path, in_path)
        path.pop()
        in_path.remove(w)


def _cliques_up_to(adj, max_size, budget):
    """All cliques of sizes 2..max_size in degeneracy-ish order."""
    order = sorted(range(len(adj)), key=lambda v: len(adj[v]))
    rank = {v: i for i, v in enumerate(order)}
    count = [0]
    for v in order:
        cands = [w for w in adj[v] if rank[w] > rank[v]]
        yield from _clique_tree(adj, rank, max_size, [v], cands, budget, count)


def _clique_tree(adj, rank, max_size, clique, cands, budget, count):
    """The cliques of _cliques_up_to that contain clique; count[0] is the
    number of cliques grown so far, checked against the budget."""
    yield tuple(clique)
    if len(clique) == max_size:
        return
    for w in sorted(cands, key=rank.__getitem__):
        count[0] += 1
        if count[0] > budget:
            raise ResourceCap(f"clique search budget {budget} exceeded")
        clique.append(w)
        grown = [x for x in cands if x in adj[w] and rank[x] > rank[w]]
        yield from _clique_tree(adj, rank, max_size, clique, grown, budget, count)
        clique.pop()


def check_n_acyclic_hypergraph(hg, n_max, budget=DEFAULT_SEARCH_BUDGET):
    """Chordality plus conformality of the Gaifman graph up to level n_max.

    Returns (ok, witness).  Fails on a chordless cycle of length 4..n_max or
    a clique of size <= n_max not inside any hyperedge; the witness reports
    the smallest offender, so every proper sub-configuration is clean.
    Every 2-clique is a Gaifman edge and so inside a hyperedge: the search
    starts at size 3, and the budget check of the size-2 round, which grows
    one clique per edge, is made up front.
    """
    adj = hg.gaifman()
    vertex_edges = [set() for _ in range(hg.n)]
    for i, he in enumerate(hg.hyperedges):
        for v in he:
            vertex_edges[v].add(i)
    if n_max >= 2 and sum(map(len, adj)) // 2 > budget:
        raise ResourceCap(f"clique search budget {budget} exceeded")
    for size in range(3, n_max + 1):
        for clique in _cliques_up_to(adj, size, budget):
            if len(clique) != size:
                continue
            common = set.intersection(*[vertex_edges[v] for v in clique])
            if not common:
                return False, AcyclicityWitness("nonconformal_clique", clique)
    for length in range(4, n_max + 1):
        for cyc in _chordless_cycles(adj, length):
            return False, AcyclicityWitness("chordless_cycle", cyc)
    return True, None


def _copy_members(cov):
    out = {}
    for copy, tag in zip(cov.provenance["copies"], cov.provenance["copy_tags"]):
        out[tag] = frozenset(copy)
    return out


def _alpha_of_base_vertex(cov, v):
    return frozenset(_vertex_colour_sets(cov.base, cov.template)[v])


def translate_chordless_cycle(cov, cycle):
    """Template coset cycle induced by a chordless cycle of the cover.

    For consecutive cover vertices a shared hyperedge copy is chosen; the
    cycle of the copies' tags, with the subsets of the pivot vertices,
    validates as a template coset cycle in the covering group.
    """
    copies = _copy_members(cov)
    n = len(cycle)
    chosen = []
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        cands = sorted(tag for tag, mem in copies.items() if a in mem and b in mem)
        if not cands:
            raise PreconditionFailed("not a Gaifman cycle: consecutive pair unshared")
        chosen.append(cands[0])
    entries = []
    for i in range(n):
        s_i, g_i = chosen[i - 1]  # the copy shared by the i-1 and i vertices
        v_i = cov.projection[cycle[i]]
        alpha_i = _alpha_of_base_vertex(cov, v_i)
        entries.append((alpha_i, cov.template.vertex_index(f"h{s_i}"), g_i))
    return tuple(entries)


def translate_nonconformal_clique(cov, clique):
    """Template coset cycle induced by a minimal non-conformal clique."""
    copies = _copy_members(cov)
    m = sorted(clique)
    n = len(m)
    chosen = []
    for i in range(n):
        rest = frozenset(x for j, x in enumerate(m) if j != (i - 1) % n)
        cands = sorted(tag for tag, mem in copies.items() if rest <= mem)
        if not cands:
            raise PreconditionFailed("clique is not a minimal conformality violation")
        chosen.append(cands[0])
    alphas = [_alpha_of_base_vertex(cov, cov.projection[x]) for x in m]
    entries = []
    for i in range(n):
        beta_i = frozenset.intersection(*[alphas[j] for j in range(n) if j != (i - 1) % n])
        s_i, g_i = chosen[i]
        entries.append((beta_i, cov.template.vertex_index(f"h{s_i}"), g_i))
    return tuple(entries)
