"""Finite graph and hypergraph coverings built from acyclic groups.

Graph coverings are connected components of the product of the
edge-labelled base graph with a compatible group's Cayley graph.  Hypergraph
coverings are quotients of group-tagged hyperedge copies; the projection
unravels short cycles when the group is acyclic over the intersection graph
of the base.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, product, repeat
from operator import itemgetter
from typing import NamedTuple

from .acyclicity import DEFAULT_SEARCH_BUDGET
from .constraint import IContext
from .egraph import NO_EDGE, new_egraph
from .errors import CompatibilityRequired, PreconditionFailed, ResourceCap, UnknownName
from .groups import is_compatible
from .traverse import UnionFind


class Hypergraph:
    """Vertex set with a family of nonempty hyperedges, each a set of
    indices into vertex_names; the indices are not range-checked."""

    __slots__ = ("vertex_names", "hyperedges")

    def __init__(self, vertex_names, index_sets):
        self.vertex_names = tuple(vertex_names)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise UnknownName("duplicate vertex names")
        self.hyperedges = tuple(map(frozenset, index_sets))
        if not all(self.hyperedges):
            raise PreconditionFailed("hyperedges must be nonempty")

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


def graph_cover(base_edges, group):
    """Unbranched covering of a simple graph from a compatible group.

    base_edges is a list of vertex pairs.  The cover is the connected
    component of (v0, 1) in the product of the edge-labelled base with the
    Cayley graph, v0 the smallest base vertex, projected on the first
    coordinate.
    """
    if not base_edges:
        raise PreconditionFailed("base graph must have at least one edge")
    template = graph_template(base_edges)
    if tuple(template.colors) != group.colors:
        raise CompatibilityRequired("group must use one generator per base edge")
    if not is_compatible(group, template):
        raise CompatibilityRequired("group is not compatible with the base graph")
    ctx = IContext(group, template)
    skel = ctx.skeleton(range(len(group.colors)), 0)
    return Covering("graph", template, skel.graph, skel.hom, group, template, {"anchor": (0, 0)})


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
    for c in range(len(template.colors)):
        i, j = template.edges(c)[0]  # colour c's one edge: hyperedges i < j
        for v in hg.hyperedges[i] & hg.hyperedges[j]:
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
    order of the triples and UnionFind.classes numbers the classes by
    least member, each with its members in order.
    """
    template = intersection_graph(hg)
    if tuple(template.colors) != group.colors:
        raise CompatibilityRequired("group must use one generator per hyperedge pair")
    if len(template.colors) and not is_compatible(group, template):
        raise CompatibilityRequired("group is not compatible with the intersection graph")
    ng = group.order
    hes = [sorted(he) for he in hg.hyperedges]
    base = list(accumulate((len(he) * ng for he in hes), initial=0))
    uf = UnionFind(base[-1])
    for c, grow in enumerate(group.gen_action):
        i, j = template.edges(c)[0]  # colour c's one edge: hyperedges i < j
        for v in hg.hyperedges[i] & hg.hyperedges[j]:
            a = base[i] + hes[i].index(v) * ng
            b = base[j] + hes[j].index(v) * ng
            for g in range(ng):
                uf.union(a + g, b + grow[g])
    class_of, classes = uf.classes()
    triples = []
    for hi, he in enumerate(hes):
        triples += product((hi,), he, range(ng))
    # each class's members, read off as triples
    classes = tuple(map(tuple, map(map, repeat(triples.__getitem__), classes)))
    copies = []
    copy_tags = []
    for hi, start in enumerate(base[:-1]):
        # copy (hi, g) is column g of the hyperedge's rows of class numbers;
        # a class holds one base vertex, so a copy repeats no class
        rows = [class_of[a:a + ng] for a in range(start, base[hi + 1], ng)]
        copies += map(tuple, map(sorted, zip(*rows)))
        copy_tags += zip(repeat(hi), range(ng))
    leasts = [members[0] for members in classes]
    names = [f"{hg.vertex_names[v]}|{hi}.{g}" for hi, v, g in leasts]
    cover = Hypergraph(names, sorted(set(copies)))
    projection = tuple(map(itemgetter(1), leasts))
    provenance = {
        "classes": classes,
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

    Each base vertex reads the component ids of all its pairs at once.  A
    triple (s, v, g) is counted at its own offset of a flat mark per triple,
    with v's position in hyperedge s (in the hyperedge's own iteration
    order), and a class key is the integer id * n + v.
    """
    hg = cov.base
    hes, n_edges, ng = hg.hyperedges, len(hg.hyperedges), cov.group.order
    ctx = IContext(cov.group, cov.template)
    by_alpha = {}
    ids = [None] * hg.n  # per base vertex: the component id of every pair
    for v, alpha in enumerate(_vertex_colour_sets(hg, cov.template)):
        alpha = frozenset(alpha)
        if alpha not in by_alpha:
            by_alpha[alpha] = ctx.comp_tables(alpha).id_list()
        ids[v] = by_alpha[alpha]
    position = [{v: r for r, v in enumerate(he)} for he in hes]
    offset = list(accumulate((len(he) * ng for he in hes), initial=0))
    met = bytearray(offset[-1])
    keys = set()
    n_members = 0
    for members in cov.provenance["classes"]:
        if not members:
            return False
        s, v, g = members[0]
        if not (0 <= s < n_edges and 0 <= g < ng and v in hes[s]):
            return False
        table = ids[v]
        cid = table[s * ng + g]
        for s, u, g in members:
            if u != v or not (0 <= s < n_edges and 0 <= g < ng):
                return False
            r = position[s].get(v)
            if r is None or table[s * ng + g] != cid:
                return False
            t = offset[s] + r * ng + g
            if met[t]:
                return False
            met[t] = 1
        key = cid * hg.n + v
        if key in keys:
            return False
        keys.add(key)
        n_members += len(members)
    return n_members == len(met)


class CoverReport(NamedTuple):
    ok: bool
    issues: tuple


def verify_cover(cov):
    """Audit the covering invariants; returns a report, never raises."""
    issues = []
    cover, proj = cov.cover, cov.projection
    if cov.kind == "graph":
        base = cov.base
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
        if len(set(Counter(proj).values())) != 1:
            issues.append("fiber sizes are not constant")
    else:
        hg = cov.base
        if set(proj) != {v for he in hg.hyperedges for v in he}:
            issues.append("projection misses covered base vertices")
        for copy, (hi, _) in zip(cov.provenance["copies"], cov.provenance["copy_tags"]):
            if len(set(copy)) != len(hg.hyperedges[hi]):
                issues.append(f"hyperedge copy of h{hi} collapsed")
            if {proj[v] for v in copy} != set(hg.hyperedges[hi]):
                issues.append(f"hyperedge copy of h{hi} projects wrongly")
        if not class_oracle_agrees(cov):
            issues.append("class structure disagrees with the subgroup rule")
    return CoverReport(not issues, tuple(issues))


class AcyclicityWitness(NamedTuple):
    kind: str  # "chordless_cycle" | "nonconformal_clique"
    vertices: tuple


def _chordless_cycle(adj, n_max):
    """The shortest chordless cycle of length 4..n_max, from its least
    vertex, the first of its length in lexicographic order; or None.

    One depth-first walk, neighbours ascending, meets the cycles of each
    length in that order.  Once a cycle is found, a path is only extended
    while it can close a shorter one.  A path one short of the limit can
    only close, through its least valid neighbour among v0's neighbours,
    so that closing level is checked in place rather than walked.
    """
    nbrs = [sorted(a) for a in adj]
    best, limit = None, n_max  # limit: the longest cycle still wanted
    for v0 in range(len(adj)):
        if limit < 4:
            break
        if len(nbrs[v0]) < 2 or nbrs[v0][-2] < v0:
            continue  # v0 is the least vertex of no cycle
        ends = adj[v0]  # a level holds its neighbours left and the inner vertices' ones
        path, stack = [v0], [(iter(nbrs[v0]), set())]
        while stack:
            it, inner = stack[-1]
            w = next(it, None) if len(path) < limit else None
            if w is None:
                stack.pop()
                path.pop()
                continue
            # chordlessness: w may touch the last vertex, and v0 only to close
            if w <= v0 or w in inner or w in path:
                continue
            if len(path) > 1 and w in ends:
                if len(path) >= 3:
                    best, limit = (*path, w), len(path)
                continue
            if len(path) + 2 < limit:
                inner = inner | adj[path[-1]] if len(path) > 1 else inner
                path.append(w)
                stack.append((iter(nbrs[w]), inner))
            elif len(path) + 2 == limit and len(path) > 1:
                # the path through w is one short of the limit: it can only
                # close, through the least neighbour of w and v0 that
                # touches no inner vertex
                last = adj[path[-1]]
                for x in sorted(adj[w] & ends):
                    if x > v0 and x not in inner and x not in last and x not in path:
                        best, limit = (*path, w, x), len(path) + 1
                        break
    return best


def _nonconformal_clique(hg, adj, n_max, budget):
    """The clique rounds 3..n_max of check_n_acyclic_hypergraph.

    Round k walks the cliques of sizes 2..k from every vertex in ascending
    degree, counting the grown cliques against the budget, and ends at its
    first k-clique inside no hyperedge or past the budget.  The result is
    that of the smallest round that ends.  One walk serves every round:
    round k sees the cliques of size <= k in the same pre-order, so its
    count is the number of grown cliques of sizes 2..k so far, and once it
    ends, cliques of k or more vertices are no longer grown.

    A clique grows by its common forward neighbours in ascending order.
    A 2-clique is inside a hyperedge, so it is never a witness: a run of
    2-cliques that grow no triangle is counted at once, before the next
    growing 2-clique or the end of its vertex; a count that crosses the
    budget within the run closes the same rounds either way.
    """
    order = sorted(range(hg.n), key=lambda v: len(adj[v]))
    rank = [0] * hg.n
    for r, v in enumerate(order):
        rank[v] = r
    fwd = [{rank[w] for w in adj[v] if rank[w] > r} for r, v in enumerate(order)]
    edges = None  # per rank, the hyperedges at it: built when a first 2-clique grows
    limit = min(n_max, hg.n)  # the largest round still open
    if limit < 3:
        return None
    grown = [0] * (limit + 1)  # grown cliques per size
    count = 0  # the count of round limit
    found = None
    for r, cands in enumerate(fwd):
        run = 0  # 2-cliques {r, w} not yet counted
        for w in chain(sorted(cands), [None]):  # None counts the last run
            if w is not None and cands.isdisjoint(fwd[w]):
                run += 1
                continue
            run += w is not None  # a growing 2-clique is counted before its triangles
            grown[2] += run
            count += run
            run = 0
            while count > budget:
                found = ResourceCap(f"clique search budget {budget} exceeded")
                count -= grown[limit]
                limit -= 1
            if w is None or limit < 3:
                break
            if edges is None:
                edges = [set() for _ in range(hg.n)]
                for i, he in enumerate(hg.hyperedges):
                    for v in he:
                        edges[rank[v]].add(i)
            clique, pool = [r, w], cands & fwd[w]
            stack = [(iter(sorted(pool)), pool, edges[r] & edges[w])]
            while stack and limit >= 3:
                it, pool, common = stack[-1]
                x = next(it, None) if len(clique) < limit else None
                if x is None:
                    stack.pop()
                    clique.pop()
                    continue
                clique.append(x)
                size = len(clique)
                grown[size] += 1
                count += 1
                while count > budget:
                    found = ResourceCap(f"clique search budget {budget} exceeded")
                    count -= grown[limit]
                    limit -= 1
                if size <= limit and common.isdisjoint(edges[x]):
                    found = AcyclicityWitness("nonconformal_clique", tuple(order[c] for c in clique))
                    limit = size - 1
                    count = sum(grown[:size])
                if size < limit and not pool.isdisjoint(fwd[x]):
                    more = pool & fwd[x]
                    stack.append((iter(sorted(more)), more, common & edges[x]))
                else:
                    clique.pop()
            if limit < 3:
                break
        if limit < 3:
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
    cycle = _chordless_cycle(adj, n_max)
    if cycle:
        return False, AcyclicityWitness("chordless_cycle", cycle)
    return True, None
