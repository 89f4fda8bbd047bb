"""Finite graph and hypergraph coverings built from acyclic groups.

Graph coverings are connected components of the product of the
edge-labelled base graph with a compatible group's Cayley graph.  Hypergraph
coverings are quotients of group-tagged hyperedge copies; the projection
unravels short cycles when the group is acyclic over the intersection graph
of the base.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .acyclicity import DEFAULT_SEARCH_BUDGET
from .amalgam import _UnionFind
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
    seeded with that generator rule only; class_oracle_agrees checks the
    classes against their subgroup characterisation independently.

    Triple (hi, v, g) is the integer base[hi] + r * |G| + g, with r the rank
    of v in the sorted hyperedge hi, so integer order is the lexicographic
    order of the triples.  The union-find links every triple to a smaller
    one, so one ascending scan numbers the classes by least member, each
    with its members in order.
    """
    template = intersection_graph(hg)
    if tuple(template.colors) != group.colors:
        raise CompatibilityRequired("group must use one generator per hyperedge pair")
    if len(template.colors) and not is_compatible(group, template):
        raise CompatibilityRequired("group is not compatible with the intersection graph")
    ng = group.order
    hes = [sorted(he) for he in hg.hyperedges]
    base = list(accumulate((len(he) * ng for he in hes), initial=0))
    uf = _UnionFind(base[-1])
    for c, name in enumerate(template.colors):
        i, j = (int(x) for x in name[1:].split("~"))
        grow = group.gen_action[c]
        for v in hg.hyperedges[i] & hg.hyperedges[j]:
            a = base[i] + hes[i].index(v) * ng
            b = base[j] + hes[j].index(v) * ng
            for g in range(ng):
                uf.union(a + g, b + grow[g])
    parent = uf.parent
    class_of = [0] * len(parent)
    classes = []
    t = 0
    for hi, he in enumerate(hes):
        for v in he:
            for g in range(ng):
                p = parent[t]
                if p == t:
                    class_of[t] = len(classes)
                    classes.append([(hi, v, g)])
                else:
                    class_of[t] = k = class_of[p]
                    classes[k].append((hi, v, g))
                t += 1
    cover_edges = {}
    copies = []
    copy_tags = []
    for hi in range(len(hes)):
        rows = range(base[hi], base[hi + 1], ng)
        for g in range(ng):
            copy = tuple(sorted({class_of[r + g] for r in rows}))
            cover_edges.setdefault(copy, (hi, g))
            copies.append(copy)
            copy_tags.append((hi, g))
    leasts = [members[0] for members in classes]
    names = [f"{hg.vertex_names[v]}|{hi}.{g}" for hi, v, g in leasts]
    cover = Hypergraph(names, [[names[x] for x in he] for he in sorted(cover_edges)])
    projection = tuple(v for _, v, _ in leasts)
    provenance = {
        "classes": tuple(map(tuple, classes)),
        "hyperedge_tags": cover_edges,
        "copies": tuple(copies),
        "copy_tags": tuple(copy_tags),
    }
    return Covering("hypergraph", hg, cover, projection, group, template, provenance)


def class_oracle_agrees(cov):
    """Independent characterisation of the classes through template walks.

    (s, v, g) and (s', v', g') fall together exactly when v = v' and g' is
    reachable from g along walks labelled by colours of pairs sharing v that
    run from site s to site s' in the intersection graph, i.e. when (s, g)
    and (s', g') lie in one component of comp_tables(alpha_v), alpha_v the
    colours of the pairs sharing v.  So the classes must be the partition of
    the triples by the key (v, that component's id): the members of a class
    share its key, no two classes share a key, and every triple lies in
    exactly one class.
    """
    hg = cov.base
    n_edges, ng = len(hg.hyperedges), cov.group.order
    ctx = IContext(cov.group, cov.template, check=False)
    vcolors = _vertex_colour_sets(hg, cov.template)
    tables = {}
    keys = set()
    members_seen = set()
    n_members = 0
    for members in cov.provenance["classes"]:
        if not members:
            return False
        v = members[0][1]
        for s, u, g in members:
            if u != v or not (0 <= s < n_edges and 0 <= g < ng):
                return False
            if v not in hg.hyperedges[s]:
                return False
        find = tables.get(v)
        if find is None:
            find = tables[v] = ctx.comp_tables(vcolors[v]).find
        cids = {find(s * ng + g) for s, _, g in members}
        key = (v, cids.pop())
        if cids or key in keys:
            return False
        keys.add(key)
        members_seen.update(members)
        n_members += len(members)
    n_triples = sum(map(len, hg.hyperedges)) * ng
    return n_members == len(members_seen) == n_triples


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


def _grown_cliques(fwd, edges, limit):
    """Every clique of at least two vertices, in pre-order, of a graph on
    the ranks 0..n-1.

    fwd[r] is the set of neighbours of r ranked above it and edges[r] the
    set of hyperedges at r.  A clique grows by its common forward
    neighbours in ascending order.  Yields (clique, its common hyperedges)
    for each clique grown; the clique list is reused, so copy it to keep
    it.  A clique is grown further only while it has fewer than limit[0]
    vertices; the consumer may lower limit[0] between yields.
    """
    clique = []
    for r, cands in enumerate(fwd):
        clique.append(r)
        stack = [(iter(sorted(cands)), cands, edges[r])]
        while stack:
            it, pool, common = stack[-1]
            w = next(it, None) if len(clique) < limit[0] else None
            if w is None:
                stack.pop()
                clique.pop()
                continue
            clique.append(w)
            common_w = common & edges[w]
            yield clique, common_w
            grown = pool & fwd[w]
            if grown and len(clique) < limit[0]:
                stack.append((iter(sorted(grown)), grown, common_w))
            else:
                clique.pop()


def _nonconformal_clique(hg, adj, n_max, budget):
    """The clique rounds 3..n_max of check_n_acyclic_hypergraph.

    Round k walks the cliques of sizes 2..k from every vertex in ascending
    degree, counting the grown cliques against the budget, and ends at its
    first k-clique inside no hyperedge or past the budget.  The result is
    that of the smallest round that ends.  One walk serves every round:
    round k sees the cliques of size <= k in the same pre-order, so its
    count is the number of grown cliques of sizes 2..k so far, and once it
    ends, cliques of k or more vertices are no longer grown.
    """
    order = sorted(range(hg.n), key=lambda v: len(adj[v]))
    rank = [0] * hg.n
    for r, v in enumerate(order):
        rank[v] = r
    fwd = [{rank[w] for w in adj[v] if rank[w] > r} for r, v in enumerate(order)]
    edges = [set() for _ in range(hg.n)]
    for i, he in enumerate(hg.hyperedges):
        for v in he:
            edges[rank[v]].add(i)
    limit = [min(n_max, hg.n)]  # the largest round still open, shared with the walk
    if limit[0] < 3:
        return None
    grown = [0] * (limit[0] + 1)  # grown cliques per size
    count = 0  # the count of round limit[0]
    found = None
    for clique, common in _grown_cliques(fwd, edges, limit):
        size = len(clique)
        grown[size] += 1
        count += 1
        while count > budget:
            found = ResourceCap(f"clique search budget {budget} exceeded")
            count -= grown[limit[0]]
            limit[0] -= 1
        if not common and 3 <= size <= limit[0]:
            found = AcyclicityWitness("nonconformal_clique", tuple(order[r] for r in clique))
            limit[0] = size - 1
            count = sum(grown[:size])
        if limit[0] < 3:
            break
    if isinstance(found, ResourceCap):
        raise found
    return found


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
    if n_max >= 2 and sum(map(len, adj)) // 2 > budget:
        raise ResourceCap(f"clique search budget {budget} exceeded")
    witness = _nonconformal_clique(hg, adj, n_max, budget)
    if witness:
        return False, witness
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
