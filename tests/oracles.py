"""Reference implementations that tests compare the library against.

``search_coset_cycle`` is the coset-cycle kernel before it was restricted to
rotation-minimal cycles: after any start, every entry may take every
subset, and ``separated(p, a, q, b)`` receives the two subsets.  The
``reference_*`` searchers feed it as the library's adapters feed theirs,
so on every query both must return the same witness or the same ``None``.

``pairwise_search_coset_cycle`` is the rotation-minimal kernel before its
separation test became a set membership: it asks ``separated(p, ta, q, tb)``
of every candidate entry and checks the closing entry in a call of its own.
The ``pairwise_*`` searchers feed it as the library's adapters feed theirs
and return the witness with the node count, which the library must match.

``reference_hypergraph_cover`` and ``reference_class_oracle_agrees`` are the
cover construction on tuple-keyed triples and the class check that compared
each class with the template component of its first member; the library's
cover must equal the first, and its class check must reject whatever the
second rejects.  ``reference_check_n_acyclic_hypergraph`` restarts its own
clique walk (``_cliques_up_to``) for every clique size.

``partition`` is the eager partition of the whole point set that
``traverse.Cosets`` replaced, and ``Table`` the partition whose ids are all
known, read through ``ids``, ``find`` and ``block`` as the kernel reads its
tables.  ``reference_cosets`` relabels ``partition`` to least-element ids;
``reference_group_tables`` and ``reference_groupoid_tables`` serve it as
the kernels' ``table(alpha)``, and ``walked_table`` walks a lazy table
into a ``Table``.

``reference_close`` is the closure that walks the states first and then
recomputes every image in a second pass to build its tables;
``reference_diagonal_closure`` runs it over every part of a stage, with no
part dropped, and ``groups.sym_components`` must give the same group.
"""

import functools
import time
from operator import getitem
from typing import NamedTuple, Sequence

from acygroups.acyclicity import DEFAULT_SEARCH_BUDGET, canonical_cycle, proper_subsets
from acygroups.constraint import IContext, Skeleton
from acygroups.amalgam import _UnionFind
from acygroups.covering import (
    AcyclicityWitness,
    Covering,
    Hypergraph,
    _chordless_cycles,
    _vertex_colour_sets,
    intersection_graph,
)
from acygroups.egraph import EGraph
from acygroups.errors import CompatibilityRequired, ResourceCap, SearchTimeout
from acygroups.groupoid import inverse_closed_proper_subsets
from acygroups.groups import graph_generator_perms, is_compatible
from acygroups.traverse import NO_EDGE


def partition(n, rows):
    """(ids, members): the components of 0..n-1 under the rows.

    Blocks are numbered in order of their least index; each block lists its
    members in breadth-first order from that index.
    """
    ids = [-1] * n
    members = []
    for x0 in range(n):
        if ids[x0] == -1:
            label = len(members)
            ids[x0] = label
            block = [x0]
            for x in block:
                for row in rows:
                    y = row[x]
                    if y != NO_EDGE and ids[y] == -1:
                        ids[y] = label
                        block.append(y)
            members.append(tuple(block))
    return tuple(ids), tuple(members)


class Table(NamedTuple):
    """A partition whose ids are all known, read as a kernel table is."""

    ids: Sequence
    members: Sequence

    def find(self, x):
        return self.ids[x]

    def block(self, x):
        return self.members[self.ids[x]]


def walked_table(table, n):
    """The Table of a lazy table over 0..n-1, every component walked."""
    ids = [table.find(x) for x in range(n)]
    return Table(ids, {cid: table.block(x) for x, cid in enumerate(ids)})


def reference_cosets(n, rows):
    """The components of 0..n-1 under the rows, all partitioned at once:
    a Table whose ids[x] is the least member of x's component and whose
    members maps that id to the component in ascending order."""
    ids, members = partition(n, rows)
    blocks = {min(block): tuple(sorted(block)) for block in members}
    return Table([min(members[cid]) for cid in ids], blocks)


def reference_group_tables(group):
    """table(alpha) of the eager alpha-coset partitions of a group."""
    return functools.cache(
        lambda alpha: reference_cosets(group.order, [group.gen_action[c] for c in sorted(alpha)]))


def reference_groupoid_tables(gpd):
    """table(alpha) of the eager alpha-coset partitions of a groupoid."""
    return functools.cache(
        lambda alpha: reference_cosets(gpd.order, [gpd.rmul[e] for e in sorted(alpha)]))


def search_coset_cycle(alphas, anchors, n_max, table, separated, budget=None):
    budget = budget or DEFAULT_SEARCH_BUDGET
    nodes = 0

    def extend(seq, target):
        nonlocal nodes
        m = len(seq) - 1
        a_m, p = seq[m]
        ids, members = table(a_m)
        if m == target - 1:
            (a_0, p_0), (a_1, p_1) = seq[0], seq[1]
            if ids[p] != ids[p_0]:
                return None
            if not separated(p, a_m & seq[m - 1][0], p_0, a_m & a_0):
                return None
            if not separated(p_0, a_0 & a_m, p_1, a_0 & a_1):
                return None
            return seq
        if m:
            a_mid = a_m & seq[m - 1][0]
            mid_ids, _ = table(a_mid)
        for q in members[ids[p]]:
            if q == p:
                continue
            if m and mid_ids[q] == mid_ids[p]:
                continue
            for a_next in alphas:
                nodes += 1
                if nodes > budget:
                    raise ResourceCap(f"coset-cycle search budget {budget} exceeded")
                if m and not separated(p, a_mid, q, a_m & a_next):
                    continue
                found = extend(seq + [(a_next, q)], target)
                if found is not None:
                    return found
        return None

    for target in range(2, n_max + 1):
        for a_0 in alphas:
            for p_0 in anchors:
                found = extend([(a_0, p_0)], target)
                if found is not None:
                    return found
    return None


def separated_by_ids(table):
    def separated(p, a, q, b):
        ids, _ = table(b)
        qid = ids[q]
        ids_a, members_a = table(a)
        return all(ids[x] != qid for x in members_a[ids_a[p]])

    return separated


def reference_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None):
    n_colors = len(group.colors)
    if gamma is None:
        alphas = proper_subsets(n_colors)
    else:
        alphas = gamma.subsets(n_colors, allow_full=allow_full)
    table = reference_group_tables(group)
    found = search_coset_cycle(alphas, (0,), n_max, table, separated_by_ids(table), budget)
    return None if found is None else canonical_cycle(group, found)


def reference_i_coset_cycle(group, igraph, n_max, budget=None):
    ctx = IContext(group, igraph)
    ng = group.order
    views = {}

    def table(alpha):
        view = views.get(alpha)
        if view is None:
            ids, members = walked_table(ctx.comp_tables(alpha), igraph.n * ng)
            view = views[alpha] = (ids, {cid: tuple(sorted(members[cid])) for cid in set(ids)})
        return view

    def elements(alpha, x):
        return {y % ng for y in ctx.comp_tables(alpha).block(x)}

    def separated(p, a, q, b):
        return elements(a, p).isdisjoint(elements(b, q))

    anchors = [ctx.pair(s, 0) for s in range(igraph.n)]
    alphas = proper_subsets(len(group.colors))
    found = search_coset_cycle(alphas, anchors, n_max, table, separated, budget)
    return None if found is None else tuple((a, *ctx.unpair(x)) for a, x in found)


def reference_groupoid_coset_cycle(gpd, n_max, budget=None):
    alphas = inverse_closed_proper_subsets(gpd.pattern)
    table = reference_groupoid_tables(gpd)
    found = search_coset_cycle(
        alphas, gpd.neutral, n_max, table, separated_by_ids(table), budget
    )
    return None if found is None else tuple(found)


def pairwise_search_coset_cycle(alphas, anchors, n_max, table, separated, budget=None,
                                deadline=None):
    """(cycle or None, nodes) of the rotation-minimal pairwise kernel."""
    walk = _PairwiseWalk(alphas, table, separated, budget or DEFAULT_SEARCH_BUDGET, deadline)
    for target in range(2, n_max + 1):
        walk.target = target
        for start in range(len(alphas)):
            walk.nexts = range(start, len(alphas))
            for p_0 in anchors:
                walk.seq = [(start, p_0)]
                if _pairwise_extend(walk, 0):
                    return [(alphas[i], p) for i, p in walk.seq], walk.nodes
    return None, walk.nodes


class _PairwiseWalk:
    __slots__ = ("alphas", "table", "tables", "meets", "separated", "budget", "deadline",
                 "nodes", "target", "nexts", "seq")

    def __init__(self, alphas, table, separated, budget, deadline):
        self.alphas = alphas
        self.table = table
        self.tables = [table(a) for a in alphas]
        self.meets = [[None] * len(alphas) for _ in alphas]
        self.separated = separated
        self.budget = budget
        self.deadline = deadline
        self.nodes = 0

    def meet(self, i, j):
        t = self.meets[i][j]
        if t is None:
            t = self.meets[i][j] = self.meets[j][i] = self.table(self.alphas[i] & self.alphas[j])
        return t

    def count(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceCap(f"coset-cycle search budget {self.budget} exceeded")
        if not self.nodes & 4095 and self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(f"coset-cycle search timed out after {self.nodes} nodes")


def _pairwise_extend(w, m):
    seq = w.seq
    i_m, p = seq[m]
    ids, members = w.tables[i_m]
    separated, meet = w.separated, w.meet
    if m == w.target - 1:
        (i_0, p_0), (i_1, p_1) = seq[0], seq[1]
        return (
            ids[p] == ids[p_0]
            and separated(p, meet(i_m, seq[m - 1][0]), p_0, meet(i_m, i_0))
            and separated(p_0, meet(i_0, i_m), p_1, meet(i_0, i_1))
        )
    if m:
        t_mid = meet(i_m, seq[m - 1][0])
        mid_ids = t_mid[0]
        p_mid = mid_ids[p]
        row = w.meets[i_m]
    for q in members[ids[p]]:
        if q == p:
            continue
        if m and mid_ids[q] == p_mid:
            continue
        for j in w.nexts:
            w.count()
            if m and not separated(p, t_mid, q, row[j] or meet(i_m, j)):
                continue
            seq.append((j, q))
            if _pairwise_extend(w, m + 1):
                return True
            seq.pop()
    return False


def pairwise_separated_by_ids(p, ta, q, tb):
    """Groups and groupoids: the component of p in ta meets no point of the
    component of q in tb."""
    ids_a, members_a = ta
    ids_b = tb[0]
    return ids_b[q] not in map(ids_b.__getitem__, members_a[ids_a[p]])


def pairwise_template_separated(ng):
    """Templates: the element sets of the two components are disjoint."""
    def separated(p, ta, q, tb):
        (ids_a, members_a), (ids_b, members_b) = ta, tb
        return {y % ng for y in members_a[ids_a[p]]}.isdisjoint(
            y % ng for y in members_b[ids_b[q]]
        )

    return separated


def template_search_tables(ctx):
    """table(alpha) as the template searcher hands it to the kernel, every
    component walked: its blocks in ascending (site, element) order."""
    n = ctx.igraph.n * ctx.group.order
    return functools.cache(lambda alpha: walked_table(ctx.comp_tables(alpha), n))


def pairwise_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None):
    n_colors = len(group.colors)
    if gamma is None:
        alphas = proper_subsets(n_colors)
    else:
        alphas = gamma.subsets(n_colors, allow_full=allow_full)
    found, nodes = pairwise_search_coset_cycle(
        alphas, (0,), n_max, reference_group_tables(group), pairwise_separated_by_ids, budget
    )
    return (None if found is None else canonical_cycle(group, found)), nodes


def pairwise_i_coset_cycle(group, igraph, n_max, budget=None):
    ctx = IContext(group, igraph)
    anchors = [ctx.pair(s, 0) for s in range(igraph.n)]
    alphas = proper_subsets(len(group.colors))
    found, nodes = pairwise_search_coset_cycle(
        alphas, anchors, n_max, template_search_tables(ctx),
        pairwise_template_separated(group.order), budget
    )
    return (None if found is None else tuple((a, *ctx.unpair(x)) for a, x in found)), nodes


def pairwise_groupoid_coset_cycle(gpd, n_max, budget=None):
    alphas = inverse_closed_proper_subsets(gpd.pattern)
    found, nodes = pairwise_search_coset_cycle(
        alphas, gpd.neutral, n_max, reference_groupoid_tables(gpd), pairwise_separated_by_ids,
        budget
    )
    return (None if found is None else tuple(found)), nodes


def brute_force_isomorphic(g1, g2):
    """Backtracking isomorphism search; test oracle for small graphs."""
    if g1.colors != g2.colors or g1.n != g2.n:
        return False
    profiles2 = {}
    for v in range(g2.n):
        profiles2.setdefault(g2.degree_profile(v), []).append(v)
    mapping = {}
    used = set()

    def edges_ok(u, mu):
        for c in range(len(g1.colors)):
            w = g1.partner[c][u]
            mw = g2.partner[c][mu]
            if w == NO_EDGE:
                if mw != NO_EDGE:
                    return False
            elif w == u:
                if mw != mu:
                    return False
            elif w in mapping:
                if mw != mapping[w]:
                    return False
            elif mw == NO_EDGE or mw == mu or mw in used:
                return False
        return True

    def extend(u):
        if u == g1.n:
            return True
        for mu in profiles2.get(g1.degree_profile(u), []):
            if mu in used or not edges_ok(u, mu):
                continue
            mapping[u] = mu
            used.add(mu)
            if extend(u + 1):
                return True
            del mapping[u]
            used.remove(mu)
        return False

    return extend(0)


def word_kernel_compatible(group, h, max_len):
    """Oracle: compare word kernels over all reduced words up to max_len."""
    perms = graph_generator_perms(h)
    ident = tuple(range(h.n))
    n_colors = len(group.colors)
    stack = [((), 0, ident)]
    while stack:
        word, g, act = stack.pop()
        if g == 0 and act != ident:
            return False
        if len(word) == max_len:
            continue
        for c in range(n_colors):
            if word and word[-1] == c:
                continue
            stack.append(
                (word + (c,), group.gen_action[c][g], tuple(perms[c][x] for x in act))
            )
    return True


def reference_comp_tables(group, igraph, alpha):
    """(ids, members) of the alpha-components of the whole product, every
    n_sites x |G| pair partitioned under the product's successor rows, with
    those rows: IContext.comp_tables before it served tables by translation."""
    ns, ng = igraph.n, group.order
    rows = {}
    for c in sorted(alpha):
        row = [NO_EDGE] * (ns * ng)
        for s, t in enumerate(igraph.partner[c]):
            if t != NO_EDGE:
                row[s * ng:(s + 1) * ng] = [t * ng + h for h in group.gen_action[c]]
        rows[c] = row
    return partition(ns * ng, list(rows.values())), rows


def reference_skeleton(group, igraph, alpha, s, g=0):
    """The skeleton of (s, g) read off the global partition and its rows."""
    (ids, members), prows = reference_comp_tables(group, igraph, alpha)
    ng = group.order
    block = members[ids[s * ng + g]]
    local = {x: i for i, x in enumerate(block)}
    rows = [[NO_EDGE] * len(block) for _ in group.colors]
    for c, prow in prows.items():
        for i, x in enumerate(block):
            if prow[x] != NO_EDGE:
                rows[c][i] = local[prow[x]]
    names = [f"{igraph.vertex_names[x // ng]}|{x % ng}" for x in block]
    return Skeleton(EGraph(names, group.colors, rows), tuple(x // ng for x in block),
                    frozenset(alpha), s, tuple(x % ng for x in block))


def reference_check_n_acyclic_hypergraph(hg, n_max, budget=DEFAULT_SEARCH_BUDGET):
    """covering.check_n_acyclic_hypergraph before it skipped the size-2
    clique round and walked the cliques once: every clique size 2..n_max is
    searched in turn, each by a walk of its own."""
    adj = hg.gaifman()
    vertex_edges = [set() for _ in range(hg.n)]
    for i, he in enumerate(hg.hyperedges):
        for v in he:
            vertex_edges[v].add(i)
    for size in range(2, n_max + 1):
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


def reference_hypergraph_cover(hg, group):
    """covering.hypergraph_cover before it ran on flat triple indices: the
    union-find runs on positions in a tuple-keyed dict, and the classes are
    sorted by least member.

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


def reference_class_oracle_agrees(cov):
    """covering.class_oracle_agrees before it compared partitions: each
    class is checked against the template component of its first member.
    It never checks that the classes cover every triple.

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
        block = set(ctx.comp_tables(alpha).block(ctx.pair(hi0, g0)))
        expected = set()
        for x in block:
            s, g = ctx.unpair(x)
            if v0 in hg.hyperedges[s]:
                expected.add((s, v0, g))
        if set(members) != expected:
            return False
    return True


def reference_close(start, rows, cap):
    index = {start: 0}
    states = [start]
    parents = [None]
    for k, g in enumerate(states):
        for c, row in enumerate(rows):
            h = tuple(map(getitem, row, g))
            if h not in index:
                if len(states) >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                index[h] = len(states)
                states.append(h)
                parents.append((k, c))
    action = [[index[tuple(map(getitem, row, g))] for g in states] for row in rows]
    return action, parents


def reference_diagonal_closure(n_colors, parts, cap):
    """(action, parents) of the diagonal group of all parts."""
    tables = []
    for kind, data in parts:
        if kind == "tables":
            tables.append(data)
        else:
            n = len(data[0])
            tables.append(reference_close(tuple(range(n)), [(p,) * n for p in data], cap)[0])
    rows = [tuple(table[c] for table in tables) for c in range(n_colors)]
    return reference_close((0,) * len(tables), rows, cap)
