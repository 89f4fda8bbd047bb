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
``unpruned_coset_cycle`` is ``find_coset_cycle`` before it skipped the
branches a colour symmetry maps to earlier ones: the library kernel, given
no symmetries.  Its node counts are the pairwise kernel's, and the pruned
search must find its witness in no more nodes.

``reference_hypergraph_cover`` and ``reference_class_oracle_agrees`` are the
cover construction on tuple-keyed triples and the class check that compared
each class with the template component of its first member; the library's
cover must equal the first, and its class check must reject whatever the
second rejects.  ``reference_check_n_acyclic_hypergraph`` restarts its own
clique walk (``_cliques_up_to``) for every clique size, and its chordless
cycle walk (``reference_chordless_cycles``) for every cycle length.

``partition`` is the eager partition of the whole point set that
``traverse.Cosets`` replaced, and ``Table`` the partition whose ids are all
known, read through ``ids``, ``find`` and ``block`` as the kernel reads its
tables.  ``reference_cosets`` relabels ``partition`` to least-element ids;
``reference_group_tables`` and ``reference_groupoid_tables`` serve it as
the kernels' ``table(alpha)``, and ``walked_table`` walks a lazy table
into a ``Table``.

``reference_hat_igraph`` and ``reference_inverse_closed_subsets`` are the
path-building loop and the mask loop that ``groupoid.hat_translation`` and
``groupoid.inverse_closed_proper_subsets`` ran before they called
``groupoid.translate_igraph`` and ``acyclicity.proper_subsets``; the
library must give the same partner rows and colours, and the same subsets
in the same order.  The reference groupoid searchers take their subsets
from the second.  ``reference_all_subsets`` is the mask loop and sort that
``acyclicity.all_subsets`` ran before it took each size's combinations in
turn; both must give the same subsets in the same order.

``reference_is_free_skeleton`` and ``reference_freeness_violation`` are
the freeness check that walked the skeleton's graph, and tested every
ordered pair of proper subsets against sorted element tuples rebuilt per
pair; the library's check must return the same verdicts and the same first
violation.

``reference_cluster_transitive`` and ``reference_sim_transitive`` are the
transitivity checks of clusters and of small coset amalgams before both
called ``amalgam.one_step_classes``: the first scanned the overlap
subgroup's elements for every two members of a class, the second compared
the copy vertices of a class pair by pair.  ``one_step_classes`` must
refuse exactly the classes they refuse.

``reference_validate_coset_cycle``, ``reference_validate_i_coset_cycle``
and ``reference_validate_groupoid_coset_cycle`` are the three validators
that ``acyclicity.validate_cycle`` replaced, each reading its own cosets;
the library's validators must give the same verdicts on every list of
entries.  ``component_elements`` reads the elements of a template component
from ``IContext.comp_tables(alpha).block``; the library compares pairs
instead.

``reference_propagate`` is ``traverse.propagate`` before it read per-colour
target tables: a callback ``step(colour, value)`` forces each value, and
may refuse one by returning None.  ``reference_is_group_symmetry`` forces
a renaming through it, and ``reference_colour_symmetries`` forces every
renaming so, with no composition; ``acyclicity._colour_symmetries`` must
give the same maps and index maps in the same order.
``reference_is_compatible`` and ``reference_is_compatible_groupoid`` force
the action on the whole template, one tuple per element, where the library
forces each point on its own; both must give the same verdicts.

``reference_girth`` is the girth as the shortest detour around an edge:
for each edge, one plus the distance between its ends without it.

``reference_canonical_component`` builds the full traversal code from
every start of a component before it compares them, as
``canon.canonical_component`` did before it dropped a start at its first
entry above the least code so far; both must give the same code.  Its
labelling is what ``find_isomorphism`` maps vertices by.

``subgroup`` builds a generated subgroup as an ``EGroup`` of its own, with
its own tables: ``acyclicity.is_two_acyclic(group, alpha)``, which reads
the parent's tables, must agree with it taken over all its colours.

``reference_close`` is the closure that walks the states first and then
recomputes every image in a second pass to build its tables;
``reference_diagonal_closure`` runs it over every part of a stage, with no
part dropped, and ``groups.sym_components`` must give the same group.

``reference_order_bound`` is the order bound that sized a stage's whole
list of parts at once, after its stage graph was built; sized one part at
a time by ``groups.OrderBound`` and then together by
``groups._check_together``, the same parts must give the same orders or
the same refusal.

The graph helpers at the end (``walk_target``, ``alpha_component``,
``induced_subgraph``, ``find_isomorphism``, ``is_symmetry``,
``rebuild_renamed``) are what the tests read graphs with; no pipeline
needs them.
"""

import functools
import math
import time
from itertools import accumulate, islice, permutations
from operator import getitem
from typing import NamedTuple, Sequence

from acygroups import acyclicity
from acygroups.acyclicity import (
    DEFAULT_SEARCH_BUDGET,
    all_subsets,
    canonical_cycle,
    proper_subsets,
)
from acygroups.constraint import IContext, Skeleton
from acygroups.covering import (
    AcyclicityWitness,
    Covering,
    Hypergraph,
    _vertex_colour_sets,
    intersection_graph,
)
from acygroups.amalgam import amalgam_chain, amalgam_cluster
from acygroups.canon import canonical_form, connected_components
from acygroups.egraph import EGraph, new_egraph
from acygroups.errors import CompatibilityRequired, IncompleteGraph, ResourceCap
from acygroups.groups import EGroup, graph_generator_perms, is_compatible
from acygroups.permgroup import group_order
from acygroups.traverse import NO_EDGE, UnionFind, bfs_parents

from conftest import rename


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


def group_family(group, gamma, allow_full, alphas):
    """alphas, or else the family that find_coset_cycle searches for gamma
    and allow_full."""
    if alphas is None:
        n_colors = len(group.colors)
        alphas = proper_subsets(n_colors) if gamma is None else gamma.subsets(n_colors, allow_full)
    return alphas


def reference_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, alphas=None):
    alphas = group_family(group, gamma, allow_full, alphas)
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


def reference_hat_igraph(pattern):
    """The encoded template of a pattern, each edge pair a three-edge path
    through two fresh vertices between its sites."""
    vertices = [f"s:{s}" for s in pattern.sites]
    colors = []
    edges = []
    for e, einv in pattern.pairs():
        ce = f"[{pattern.edge_ids[e]}]"
        cm = f"[{pattern.edge_ids[e]}|{pattern.edge_ids[einv]}]"
        ci = f"[{pattern.edge_ids[einv]}]"
        colors.extend([ce, cm, ci])
        me = f"m:{pattern.edge_ids[e]}"
        mi = f"m:{pattern.edge_ids[einv]}"
        vertices.extend([me, mi])
        edges.append((ce, vertices[pattern.src[e]], me))
        edges.append((cm, me, mi))
        edges.append((ci, mi, vertices[pattern.tgt[e]]))
    return new_egraph(vertices, colors, edges)


def reference_inverse_closed_subsets(pattern):
    """Inverse-closed proper subsets of the edge set, smallest first."""
    pairs = pattern.pairs()
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(chosen) == len(pairs):
            continue
        out.append(frozenset(e for p in chosen for e in p))
    return sorted(out, key=lambda a: (len(a), sorted(a)))


def reference_all_subsets(n_colors, max_size=None):
    """The subsets of at most max_size colours, one frozenset per mask,
    sorted by size and then by sorted members."""
    if max_size is None:
        max_size = n_colors
    out = []
    for mask in range(1 << n_colors):
        a = frozenset(i for i in range(n_colors) if mask >> i & 1)
        if len(a) <= max_size:
            out.append(a)
    return sorted(out, key=lambda a: (len(a), sorted(a)))


def reference_groupoid_coset_cycle(gpd, n_max, budget=None):
    alphas = reference_inverse_closed_subsets(gpd.pattern)
    table = reference_groupoid_tables(gpd)
    found = search_coset_cycle(
        alphas, gpd.neutral, n_max, table, separated_by_ids(table), budget
    )
    return None if found is None else tuple(found)


def reference_validate_coset_cycle(group, entries):
    n = len(entries)
    if n < 2:
        return False
    for i in range(n):
        a_i, g_i = entries[i]
        a_next, g_next = entries[(i + 1) % n]
        a_prev = entries[(i - 1) % n][0]
        table = group.coset_table(a_i)
        if table.find(g_i) != table.find(g_next):
            return False
        right = set(group.coset(g_next, a_i & a_next))
        if not right.isdisjoint(group.coset(g_i, a_i & a_prev)):
            return False
    return True


def component_elements(ctx, alpha, s, g):
    """The elements of the alpha-component of site s and element g, read
    from the template's component table."""
    ng = ctx.group.order
    return {x % ng for x in ctx.comp_tables(alpha).block(ctx.pair(s, g))}


def reference_validate_i_coset_cycle(group, igraph, entries, ctx=None):
    ctx = ctx or IContext(group, igraph)
    n = len(entries)
    if n < 2:
        return False
    for i in range(n):
        a_i, s_i, g_i = entries[i]
        a_n, s_n, g_n = entries[(i + 1) % n]
        a_p = entries[(i - 1) % n][0]
        table = ctx.comp_tables(a_i)
        if table.find(ctx.pair(s_i, g_i)) != table.find(ctx.pair(s_n, g_n)):
            return False
        left = component_elements(ctx, a_i & a_p, s_i, g_i)
        right = component_elements(ctx, a_i & a_n, s_n, g_n)
        if left & right:
            return False
    return True


def reference_validate_groupoid_coset_cycle(gpd, entries):
    n = len(entries)
    if n < 2:
        return False
    for i in range(n):
        a_i, g_i = entries[i]
        a_n, g_n = entries[(i + 1) % n]
        a_p = entries[(i - 1) % n][0]
        table = gpd.subset_closures(a_i)
        if table.find(g_i) != table.find(g_n):
            return False
        left = set(gpd.subset_closures(a_i & a_p).block(g_i))
        right = set(gpd.subset_closures(a_i & a_n).block(g_n))
        if left & right:
            return False
    return True


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
            raise ResourceCap(f"coset-cycle search timed out after {self.nodes} nodes")


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


def pairwise_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, alphas=None):
    alphas = group_family(group, gamma, allow_full, alphas)
    found, nodes = pairwise_search_coset_cycle(
        alphas, (0,), n_max, reference_group_tables(group), pairwise_separated_by_ids, budget
    )
    return (None if found is None else canonical_cycle(group, found)), nodes


def unpruned_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, alphas=None):
    alphas = group_family(group, gamma, allow_full, alphas)
    found = acyclicity.search_coset_cycle(alphas, (0,), n_max, group.coset_table, budget)
    return None if found is None else canonical_cycle(group, found)


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
    alphas = reference_inverse_closed_subsets(gpd.pattern)
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
        profiles2.setdefault(_degree_profile(g2, v), []).append(v)
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
        for mu in profiles2.get(_degree_profile(g1, u), []):
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


def _degree_profile(g, v):
    """Per colour: 0 unmatched, 1 loop, 2 proper edge.  Iso-invariant."""
    return tuple(0 if w == NO_EDGE else (1 if w == v else 2) for w in (row[v] for row in g.partner))


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


def reference_is_free_skeleton(ctx, alpha, s, g=0):
    alpha = frozenset(alpha)
    group = ctx.group
    skel = ctx.skeleton(alpha, s, g)
    gammas = [frozenset(a) for a in all_subsets(len(group.colors)) if frozenset(a) < alpha]
    # per proper subset: skeleton vertices grouped by their product component
    comp_reps = {}
    for a in gammas:
        reps = {}
        for v in range(skel.graph.n):
            elem = skel.elements[v]
            site = skel.hom[v]
            cid = ctx.comp_tables(a).find(ctx.pair(site, elem))
            reps.setdefault(cid, (site, elem))
        comp_reps[a] = reps
    for a1 in gammas:
        find1 = group.coset_table(a1).find
        for a2 in gammas:
            # ambient-coset pairs that actually meet, found via shared elements
            plain1 = {}
            for cid, (site, elem) in comp_reps[a1].items():
                plain1.setdefault(find1(elem), []).append(cid)
            for site2, elem2 in comp_reps[a2].values():
                proj2 = component_elements(ctx, a2, site2, elem2)
                for cid1 in _cids_meeting(group, find1, plain1, elem2, a2):
                    site1, elem1 = comp_reps[a1][cid1]
                    if not (component_elements(ctx, a1, site1, elem1) & proj2):
                        return False
    return True


def _cids_meeting(group, find1, plain1, elem2, a2):
    seen = set()
    for x in group.coset(elem2, a2):
        for cid in plain1.get(find1(x), ()):
            if cid not in seen:
                seen.add(cid)
                yield cid


def reference_freeness_violation(group, igraph, alphas=None, ctx=None):
    ctx = ctx or IContext(group, igraph)
    if alphas is None:
        alphas = all_subsets(len(group.colors))
    for alpha in alphas:
        for s in range(igraph.n):
            if not reference_is_free_skeleton(ctx, alpha, s):
                return frozenset(alpha), s
    return None


def reference_cluster_transitive(group, alphas, provenance):
    """The check amalgam_cluster made of its classes: any two members
    (i, gi) and (j, gj) of a class are one element of G[alpha_i & alpha_j]."""
    for members in provenance:
        pairs = sorted(members)
        for i, gi in pairs:
            for j, gj in pairs:
                if gi != gj or gi not in group.subgroup_elements(alphas[i] & alphas[j]):
                    return False
    return True


def reference_sim_transitive(class_list, sim_pairs, n_host):
    """The check small_coset_amalgam made of its classes: any two copy
    vertices (those from n_host on) of a class form one of the sim_pairs,
    each a (p, q) with p <= q."""
    for members in class_list:
        tagged = [m for m in members if m >= n_host]
        for i, p in enumerate(tagged):
            for q in tagged[i + 1 :]:
                key = (p, q) if p <= q else (q, p)
                if p != q and key not in sim_pairs:
                    return False
    return True


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
        for cyc in reference_chordless_cycles(adj, length):
            return False, AcyclicityWitness("chordless_cycle", cyc)
    return True, None


def reference_chordless_cycles(adj, length):
    """Chordless cycles of exactly the given length, canonical start vertex,
    each length walked from every vertex anew."""
    for v0 in range(len(adj)):
        yield from _chordless_paths(adj, length, [v0], {v0})


def _chordless_paths(adj, length, path, in_path):
    """The cycles of reference_chordless_cycles that continue path."""
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

    uf = UnionFind(len(triples))
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
    cover = Hypergraph(names, edge_list)
    projection = tuple(min(m)[1] for m in class_list)
    provenance = {
        "classes": tuple(tuple(sorted(m)) for m in class_list),
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
    ctx = IContext(group, template)
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


def reference_order_bound(parts, cap):
    """The orders of the parts' groups; ResourceCap when the lcm of the
    orders of the parts' groups, or of those and of the group of all perms
    parts together, passes cap."""
    sized = [(kind, data, f"part {i}") for i, (kind, data) in enumerate(parts)]
    perms = [data for kind, data in parts if kind == "perms" and data]
    if len(perms) >= 2:
        offsets = list(accumulate((len(data[0]) for data in perms), initial=0))
        union = [
            tuple(off + x for data, off in zip(perms, offsets) for x in data[c])
            for c in range(len(perms[0]))
        ]
        sized.append(("perms", union, f"{len(perms)} components together"))
    bound, orders = 1, []
    for i, (kind, data, what) in enumerate(sized):
        n = len(data[0]) if data else 1
        order = n if kind == "tables" or not data else group_order(data, n, limit=cap)
        orders.append(order)
        bound = order if order > cap else math.lcm(bound, order)
        if bound > cap:
            known = "at least " if order > cap else ""
            detail = f", order {known}{order}" if i < len(parts) else ""
            raise ResourceCap(
                f"element cap {cap} exceeded: the group has order at least {bound} "
                f"({what}: {n} points{detail})"
            )
    return orders[:len(parts)]


def reference_girth(graph):
    """Shortest cycle length of an edge-coloured graph, or math.inf."""
    best = math.inf
    for c, u, v in graph.all_edges():
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for c2, row in enumerate(graph.partner):
                y = row[x]
                if y == NO_EDGE or y in dist or (c2 == c and {x, y} == {u, v}):
                    continue
                dist[y] = dist[x] + 1
                queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def reference_canonical_component(g, members):
    """(code, labelling) from the full breadth-first code of every start:
    the least code, labelled by the first start in members that gives it."""
    best = None
    for start in members:
        disc = {start: 0}
        order = [start]
        code = [len(members)]
        for u in order:
            for row in g.partner:
                w = row[u]
                if w == NO_EDGE:
                    code.append(-2)
                elif w == u:
                    code.append(-1)
                else:
                    if w not in disc:
                        disc[w] = len(order)
                        order.append(w)
                    code.append(disc[w])
        assert len(order) == len(members)
        if best is None or tuple(code) < best[0]:
            best = tuple(code), {v: i for i, v in enumerate(order)}
    return best


def subgroup(group, alpha):
    """Generated subgroup as its own EGroup, its elements numbered in the
    ascending order of their indices in the parent."""
    alpha = sorted(set(alpha))
    elements = group.subgroup_elements(alpha)  # sorted, so identity is index 0
    local = {g: i for i, g in enumerate(elements)}
    action = [[local[group.gen_action[c][g]] for g in elements] for c in alpha]
    colors = tuple(group.colors[c] for c in alpha)
    return EGroup(colors, action, len(elements))


def walk_target(g, v, word):
    """Endpoint of the walk labelled by word from v; needs a complete graph."""
    if not g.complete:
        raise IncompleteGraph("walk_target needs a complete graph; complete it first")
    for ci in word:
        v = g.partner[ci][v]
    return v


def induced_subgraph(graph, vertices, beta):
    """Beta-reduct induced on a vertex subset, keeping the colour registry."""
    local = {v: i for i, v in enumerate(vertices)}
    rows = [[NO_EDGE] * len(vertices) for _ in graph.colors]
    for c in sorted(set(beta)):
        for v in vertices:
            w = graph.partner[c][v]
            if w != NO_EDGE and w in local:
                rows[c][local[v]] = local[w]
    return EGraph([graph.vertex_names[v] for v in vertices], graph.colors, rows)


def alpha_component(g, alpha, v):
    """Weak subgraph on the alpha-reachable vertices of v, with an embedding.

    Returns (component, embedding) where embedding[i] is the parent index of
    the component's vertex i.  The component keeps the full colour registry;
    colours outside alpha have no edges.
    """
    alpha = sorted(set(alpha))
    reach, _ = bfs_parents([g.partner[ci] for ci in alpha], g.n, [v])
    return induced_subgraph(g, reach, alpha), tuple(reach)


def find_isomorphism(g1, g2):
    """A colour-preserving isomorphism g1 -> g2 as a vertex map, or None."""
    if g1.colors != g2.colors or g1.n != g2.n:
        return None
    comps1 = connected_components(g1)
    comps2 = connected_components(g2)
    if sorted(map(len, comps1)) != sorted(map(len, comps2)):
        return None
    coded1 = sorted((reference_canonical_component(g1, c) for c in comps1), key=lambda t: t[0])
    coded2 = sorted((reference_canonical_component(g2, c) for c in comps2), key=lambda t: t[0])
    mapping = [None] * g1.n
    for (code1, lab1), (code2, lab2) in zip(coded1, coded2):
        if code1 != code2:
            return None
        inv2 = {i: v for v, i in lab2.items()}
        for v, i in lab1.items():
            mapping[v] = inv2[i]
    return mapping


def is_symmetry(g, rho):
    """True when renaming by rho yields a graph isomorphic to g."""
    return canonical_form(g) == canonical_form(rename(g, rho))


def rebuild_renamed(am, rho):
    """Rebuild a cluster, or a chain pointed at the identity, on its
    constituents' colour sets renamed along rho; used to test isomorphism
    invariance."""
    group = am.group
    rho_idx = {group.color_index(e): group.color_index(t) for e, t in rho.items()}
    alphas = [frozenset(rho_idx[c] for c in a) for a, _ in am.constituents]
    if am.kind == "cluster":
        return amalgam_cluster(group, alphas)
    if am.kind == "chain" and not any(am.anchors):
        return amalgam_chain(group, [(a, 0) for a in alphas])
    raise ValueError("rebuild_renamed supports clusters and chains pointed at the identity")


def reference_propagate(n, rows, seeds, step):
    """Values on 0..n-1 forced along the (colour, row) pairs from the
    (index, value) seeds: a value v at x forces step(colour, v) at row[x].
    None when step returns None or an index is forced to two values."""
    values = [None] * n
    queue = []
    for x, v in seeds:
        values[x] = v
        queue.append(x)
    for x in queue:
        v = values[x]
        for c, row in rows:
            y = row[x]
            if y == NO_EDGE:
                continue
            w = step(c, v)
            if w is None:
                return None
            if values[y] is None:
                values[y] = w
                queue.append(y)
            elif values[y] != w:
                return None
    return values


def reference_is_group_symmetry(group, rho):
    """Each element's image under the automorphism renaming generators along
    the name map rho, or None."""
    renamed = {group.color_index(e): group.gen_action[group.color_index(t)] for e, t in rho.items()}
    rows = list(enumerate(group.gen_action))
    return reference_propagate(group.order, rows, [(0, 0)], lambda c, g: renamed[c][g])


def reference_colour_symmetries(group, alphas):
    """(element map, index map on alphas) of every renaming but the identity
    that extends to an automorphism, each forced on its own."""
    index = {a: i for i, a in enumerate(alphas)}
    colors = group.colors
    out = []
    for rho in islice(permutations(range(len(colors))), 1, None):
        perm = reference_is_group_symmetry(group, {colors[c]: colors[rho[c]] for c in range(len(colors))})
        if perm is not None:
            out.append((perm, [index[frozenset(rho[c] for c in a)] for a in alphas]))
    return out


def reference_is_compatible(group, h):
    """is_compatible with the action on all of h forced as one tuple per
    element and no verdict kept."""
    perms = graph_generator_perms(h)
    actions = reference_propagate(
        group.order, list(enumerate(group.gen_action)), [(0, tuple(range(h.n)))],
        lambda c, act: tuple(perms[c][v] for v in act))
    return actions is not None


def reference_is_compatible_groupoid(gpd, igraph):
    """is_compatible_groupoid with each site's vertices forced as one tuple
    per element."""
    bijections = [dict(pairs) for pairs in igraph.edges]
    seeds = [(x, tuple(igraph.vertices_of_site(s))) for s, x in enumerate(gpd.neutral)]
    actions = reference_propagate(
        gpd.order, list(enumerate(gpd.rmul)), seeds,
        lambda e, act: tuple(bijections[e][v] for v in act))
    return actions is not None


def reference_generation_parents(gpd):
    """The parent links of gpd as a breadth-first generation records them:
    elements are visited in index order, the neutral elements first, edges
    in order, and each element not yet found is linked to the (element,
    edge) that first reaches it.  Raises ValueError when an element is
    first reached out of its index order, which such a generation never
    numbers."""
    parents = [None] * gpd.order
    found = len(gpd.neutral)
    if tuple(gpd.neutral) != tuple(range(found)):
        raise ValueError("the neutral elements do not come first")
    for pos in range(gpd.order):
        for e, row in enumerate(gpd.rmul):
            j = row[pos]
            if j == NO_EDGE or j < found:
                continue
            if j != found:
                raise ValueError(f"element {j} found before element {found}")
            parents[j] = (pos, e)
            found += 1
    return tuple(parents)
