"""Reachability templates: template-restricted cosets, skeletons, freeness,
and small coset amalgams.

A constraint graph is an ordinary edge-coloured matching graph I over a site
set S.  It restricts reachability in a Cayley graph: only walks whose label
sequences also label walks from a given site of I count.  Restricted
reachability is never computed through word languages (they are infinite)
but through the direct product of I with the Cayley graph, whose
alpha-components are exactly the template-restricted cosets.
"""

from __future__ import annotations

import time
from array import array
from itertools import chain, repeat
from operator import add
from typing import NamedTuple

from .acyclicity import all_subsets, met_by_ids, proper_subsets, search_coset_cycle, validate_cycle
from .amalgam import one_step_classes, quotient_graph
from .canon import connected_components
from .egraph import NO_EDGE, EGraph
from .errors import (
    CompatibilityRequired,
    PreconditionFailed,
    ResourceCap,
    StrictnessViolation,
    UnknownName,
)
from .groups import is_compatible
from .traverse import Cosets, UnionFind, bfs_parents


class Skeleton(NamedTuple):
    """Host graph with a site homomorphism onto a template component.

    hom[v] is the site of vertex v; elements[v] is the group element when the
    skeleton is embedded in a Cayley graph (None for abstract hosts).
    """

    graph: EGraph
    hom: tuple
    alpha: frozenset
    site: int
    elements: tuple


class IContext:
    """Cached template-restricted reachability data for one (group, template).

    Sites and elements are packed as s * order + g.  Left multiplication by
    any element is an automorphism of the product, so the alpha-component
    of (s, r*h), h in G[alpha], is the alpha-component of (s, h) translated
    by r: per generator subset only the n_sites x |G[alpha]| pairs over the
    subgroup are partitioned, and a coset's translation is walked when a
    point of it is first asked for (:class:`TranslatedCosets`).  Single
    components, and so skeletons, are walked on their own.
    """

    def __init__(self, group, igraph):
        if tuple(igraph.colors) != group.colors:
            raise CompatibilityRequired("template and group must share a colour registry")
        if not is_compatible(group, igraph):
            raise CompatibilityRequired("group is not compatible with the template graph")
        self.group = group
        self.igraph = igraph
        self._comp = {}

    def pair(self, s, g):
        if not (0 <= g < self.group.order and 0 <= s < self.igraph.n):
            raise UnknownName(f"no site/element pair ({s}, {g})")
        return s * self.group.order + g

    def unpair(self, x):
        return divmod(x, self.group.order)

    def component(self, alpha, p):
        """Packed pairs of the alpha-component of pair p, breadth first from
        its least pair: the block a partition of the whole product gives."""
        block = self._walk(alpha, p)
        least = min(block)
        return tuple(block if least == p else self._walk(alpha, least))

    def _walk(self, alpha, x0):
        ng = self.group.order
        steps = [(self.igraph.partner[c], self.group.gen_action[c]) for c in sorted(alpha)]
        block = [x0]
        seen = {x0}
        for x in block:
            s, g = divmod(x, ng)
            for irow, grow in steps:
                t = irow[s]
                if t != NO_EDGE:
                    y = t * ng + grow[g]
                    if y not in seen:
                        seen.add(y)
                        block.append(y)
        return block

    def comp_tables(self, alpha):
        """The alpha-components of the site/element pairs, a
        :class:`TranslatedCosets`."""
        alpha = frozenset(alpha)
        table = self._comp.get(alpha)
        if table is None:
            table = self._comp[alpha] = TranslatedCosets(self.group, self.igraph, alpha)
        return table

    def skeleton(self, alpha, s, g=0):
        """Embedded skeleton: the alpha-component of (s, g) in the product."""
        alpha = frozenset(alpha)
        ng = self.group.order
        block = self.component(alpha, self.pair(s, g))
        local = {x: i for i, x in enumerate(block)}
        rows = [[NO_EDGE] * len(block) for _ in self.group.colors]
        for c in sorted(alpha):
            irow, grow = self.igraph.partner[c], self.group.gen_action[c]
            for i, x in enumerate(block):
                t, h = divmod(x, ng)
                if irow[t] != NO_EDGE:
                    rows[c][i] = local[irow[t] * ng + grow[h]]
        names = [f"{self.igraph.vertex_names[x // ng]}|{x % ng}" for x in block]
        graph = EGraph(names, self.group.colors, rows)
        hom = tuple(x // ng for x in block)
        elements = tuple(x % ng for x in block)
        return Skeleton(graph, hom, alpha, s, elements)


class TranslatedCosets:
    """The alpha-components of the site/element pairs of a template product,
    read as :class:`~acygroups.traverse.Cosets` is: ``ids`` is the table
    itself, ``table[p]`` and ``find(p)`` are the id of p's component, and
    ``block(p)`` is that component, ascending.

    The n_sites x |G[alpha]| pairs over the subgroup are partitioned at
    once, as ``local`` over the local indices s * m + i, with sub[i] the
    i-th element of G[alpha] and m = |G[alpha]|.  With K = n_sites * m, the
    id of (s, g) is r * K plus the least local index of the component of
    (s, r^-1 * g), r the least element of g's alpha-coset.  The translation
    of a coset, r * h for every h in G[alpha], is walked along the
    breadth-first tree of G[alpha] when a point of the coset is first asked
    for, and a block when it is first asked for; nothing is tabulated per
    pair but by ``id_list``, which reads every id at once.
    """

    __slots__ = ("ng", "m", "k", "local", "cosets", "tree", "rel", "trans", "blocks")

    def __init__(self, group, igraph, alpha):
        colors = sorted(alpha)
        sub = group.subgroup_elements(alpha)
        pos = {h: i for i, h in enumerate(sub)}
        sub_rows = [[pos[group.gen_action[c][h]] for h in sub] for c in colors]
        m = len(sub)
        self.ng, self.m, self.k = group.order, m, igraph.n * m
        local_rows = []
        for c, srow in zip(colors, sub_rows):
            row = [NO_EDGE] * self.k
            for s, t in enumerate(igraph.partner[c]):
                if t != NO_EDGE:
                    row[s * m:(s + 1) * m] = [t * m + i for i in srow]
            local_rows.append(row)
        self.local = Cosets(self.k, local_rows)
        for x in range(self.k):
            self.local.find(x)
        self.cosets = group.coset_table(alpha)
        reached, parents = bfs_parents(sub_rows, m, [0])
        self.tree = [
            (i, parents[i][0], group.gen_action[colors[parents[i][1]]]) for i in reached[1:]
        ]
        self.rel = array("l", [-1]) * self.ng  # rel[g] once g's coset is walked
        self.trans = {}  # trans[r][i] = r * sub[i]
        self.blocks = {}

    @property
    def ids(self):
        return self

    def __getitem__(self, p):
        s, g = divmod(p, self.ng)
        i = self.rel[g]
        if i == -1:
            i = self._translate(g)
        return self.cosets.ids[g] * self.k + self.local.ids[s * self.m + i]

    find = __getitem__

    def _translate(self, g):
        """Walk the translation of g's coset; g's index in it."""
        r = self.cosets.find(g)
        trans = self.trans[r] = [r] * self.m
        for i, prev, grow in self.tree:
            trans[i] = grow[trans[prev]]
        rel = self.rel
        for i, x in enumerate(trans):
            rel[x] = i
        return rel[g]

    def id_list(self):
        """``[table[p] for p in range(n_sites * order)]``, read in one pass
        over the cosets: the id of (s, g) is g's coset id times K plus the
        local id of (s, g's index in its coset).  Over a trivial subgroup
        every g is its own coset, with id g and index 0, and nothing is
        walked."""
        rel, m = self.rel, self.m
        if m == 1:
            coset_bases, rel = range(0, self.ng * self.k, self.k), bytes(self.ng)
        else:
            for g in range(self.ng):
                if rel[g] == -1:
                    self._translate(g)
            coset_bases = [c * self.k for c in self.cosets.ids]
        ids = array("l")
        for s in range(0, self.k, m):
            ids.extend(map(add, coset_bases, map(self.local.ids[s:s + m].__getitem__, rel)))
        return ids

    def block(self, p):
        """p's component, ascending: its local block moved to its coset."""
        cid = self[p]
        block = self.blocks.get(cid)
        if block is None:
            r, lid = divmod(cid, self.k)
            trans, m, ng = self.trans[r], self.m, self.ng
            block = self.blocks[cid] = tuple(sorted(
                s * ng + trans[i] for s, i in map(divmod, self.local.block(lid), repeat(m))))
        return block


def is_free_skeleton(ctx, alpha, s, g=0):
    """Freeness of the embedded skeleton anchored at (s, g).

    Any two proper-subset components of the skeleton whose ambient cosets
    meet must already share an element.  Both lie in the skeleton's block,
    where sharing an element is sharing a pair (the lemma of
    :func:`validate_i_coset_cycle`), so each component is read as the set
    of its pairs, once per subset.  The condition is symmetric, so each
    unordered pair of subsets is visited once.  Per subset the components
    are indexed by their ambient coset, the quotient of their id by K (see
    :class:`TranslatedCosets`), and the cosets of the later subset that
    meet one of the earlier are found by ``met_by_ids``.
    """
    alpha = frozenset(alpha)
    group = ctx.group
    block = ctx.component(alpha, ctx.pair(s, g))
    gammas = [a for a in all_subsets(len(group.colors)) if a < alpha]
    indexes = []  # per subset: ambient coset id -> pair sets of its components
    for a in gammas:
        table, comps, index = ctx.comp_tables(a), {}, {}
        for p in block:
            comps.setdefault(table[p], []).append(p)
        for cid, pairs in comps.items():
            index.setdefault(cid // table.k, []).append(frozenset(pairs))
        indexes.append(index)
    for i, (a1, index1) in enumerate(zip(gammas, indexes)):
        cosets1 = group.coset_table(a1)
        for a2, index2 in zip(gammas[i:], indexes[i:]):
            cosets2 = group.coset_table(a2)
            for r1, sets1 in index1.items():
                for r2 in met_by_ids(cosets1.block(r1), cosets2):
                    for set2 in index2.get(r2, ()):
                        if any(set1.isdisjoint(set2) for set1 in sets1):
                            return False
    return True


def find_freeness_violation(group, igraph, alphas=None, ctx=None, deadline=None):
    """First (alpha, site) whose anchored skeleton is not free, or None.

    Left translation moves any skeleton onto one anchored at the identity,
    so those anchors exhaust all skeletons up to translation.  Past
    ``deadline`` (a ``time.monotonic()`` value), read once per skeleton,
    raises ResourceCap.
    """
    ctx = ctx or IContext(group, igraph)
    if alphas is None:
        alphas = all_subsets(len(group.colors))
    for alpha in alphas:
        for s in range(igraph.n):
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceCap(f"freeness check timed out at subset {sorted(alpha)}, site {s}")
            if not is_free_skeleton(ctx, alpha, s):
                return frozenset(alpha), s
    return None


def is_free_over(group, igraph, alphas=None, ctx=None, deadline=None):
    """Freeness of every embedded skeleton, anchored per site at the identity."""
    return find_freeness_violation(group, igraph, alphas, ctx, deadline) is None


def validate_i_coset_cycle(group, igraph, entries, ctx=None):
    """Recheck template connectivity and separation for a candidate cycle.

    Entries are (alpha, site, element) triples in cyclic order.  Separation
    asks the element sets of the two components pivoting at an entry to be
    disjoint; their packed pairs are compared instead, with the same
    verdict, by this lemma, on which every template separation test rests
    (the search kernel's through ``met_by_ids``, and :func:`is_free_skeleton`):

    Under compatibility, which the context checks (CompatibilityRequired
    otherwise), the map from pairs to elements is injective on every
    component of the product.  Two pairs (s, g) and (t, g) of one component
    are joined by a walk whose label word is trivial in the group; that
    word then acts trivially on the template, so it leads s to s, and
    t = s.  Two components inside one component therefore share an element
    exactly when they share a pair.

    Both pivoting components lie in the alpha_i-component of the entry,
    which the connectivity check has just established.
    """
    ctx = ctx or IContext(group, igraph)
    if len(entries) < 2:
        return False
    points = [(a, ctx.pair(s, g)) for a, s, g in entries]
    return validate_cycle(ctx.comp_tables, points)


def find_i_coset_cycle(group, igraph, n_max, ctx=None, budget=None, deadline=None):
    """Shortest template coset cycle up to n_max, or None.

    Entries are (alpha, site, element) with the first element at the
    identity; connectivity requires the next pair to lie in the
    alpha-component of the current pair in the product graph, which fixes
    the next site.  Separation asks the element sets of components to be
    disjoint; the kernel compares their pairs, which decides the same by
    the lemma of :func:`validate_i_coset_cycle`.
    """
    ctx = ctx or IContext(group, igraph)
    anchors = [ctx.pair(s, 0) for s in range(igraph.n)]
    alphas = proper_subsets(len(group.colors))
    found = search_coset_cycle(alphas, anchors, n_max, ctx.comp_tables, budget, deadline)
    if found is None:
        return None
    cyc = tuple((a, *ctx.unpair(x)) for a, x in found)
    if not validate_i_coset_cycle(group, igraph, cyc, ctx=ctx):
        raise RuntimeError("template coset-cycle search returned a cycle its validator rejects")
    return cyc


class SmallCosetAmalgam(NamedTuple):
    """Quotient extension of a skeleton by tagged proper-subset Cayley copies.

    provenance[v] lists the (element, host vertex, alpha) tags identified into
    v; host_image[u] is the extension vertex of host vertex u.
    """

    graph: EGraph
    skeleton: Skeleton
    group: object
    alpha: frozenset
    provenance: tuple
    host_image: tuple
    copies: tuple  # (alpha', host component tuple, vertex tuple) per constituent


def small_coset_amalgam(skel, group):
    """Free extension of a skeleton by proper-subset Cayley-graph copies.

    A copy of the alpha'-subgroup Cayley graph is attached at every host
    vertex for every alpha' properly inside alpha = skel.alpha; copies are
    glued where a shared host vertex forces equal group elements, shifted
    through the common subgroup.  From v, a host vertex u of its
    alpha'-component sits at elements[v]^-1 * elements[u]: the skeleton's
    elements are read once they are checked to follow the host's edges
    (PreconditionFailed otherwise, and for a skeleton without elements).
    The one-step relation is provably transitive under the preconditions
    (proper subgroups 2-acyclic and free over the template, host components
    isomorphic to embedded skeletons).  They are not checked here:
    transitivity is recomputed and checked instead, and the result is
    validated as a strict graph and as a free extension of the host.
    """
    alpha, host, elements = skel.alpha, skel.graph, skel.elements
    if elements is None or any(
        group.gen_action[c][elements[u]] != elements[w] for c, u, w in host.all_edges()
    ):
        raise PreconditionFailed("skeleton elements do not follow the host's edges")
    gammas = [a for a in all_subsets(len(group.colors)) if a < alpha]
    comps = {a: connected_components(host, a) for a in gammas}
    comp_of = {(a, v): comp for a in gammas for comp in comps[a] for v in comp}
    inverses = [group.inverse(g) for g in elements]

    tags = [(v, a) for v in range(host.n) for a in gammas]
    sub_elems = {a: group.subgroup_elements(a) for a in gammas}
    # host vertices come first, then the (g, v, a) vertices of the copies
    origin = [None] * host.n + [(g, v, a) for v, a in tags for g in sub_elems[a]]
    index = {o: t for t, o in enumerate(origin) if o is not None}
    uf = UnionFind(len(origin))
    sim_pairs = set()

    for v, a in tags:
        uf.union(v, index[0, v, a])
    for i1, (v1, a1) in enumerate(tags):
        comp1 = comp_of[(a1, v1)]
        for v2, a2 in tags[i1:]:
            shared = set(comp1) & set(comp_of[(a2, v2)])
            if not shared:
                continue
            a0 = a1 & a2
            for u in shared:
                x1 = group.product(inverses[v1], elements[u])
                x2 = group.product(inverses[v2], elements[u])
                for h in sub_elems[a0]:
                    g1 = group.product(x1, h)
                    g2 = group.product(x2, h)
                    p = index[g1, v1, a1]
                    q = index[g2, v2, a2]
                    uf.union(p, q)
                    sim_pairs.add((p, q) if p <= q else (q, p))

    vert_of, class_list = uf.classes()
    one_step_classes(([m for m in members if m >= host.n] for members in class_list), sim_pairs,
                     "one-step identification is not transitive; the freeness "
                     "precondition must have been violated")

    host_image = tuple(vert_of[:host.n])
    if len(set(host_image)) != host.n:
        raise PreconditionFailed("host does not embed injectively into its extension")

    names = [f"h{ms[0]}" if ms[0] < host.n else str(ms[0]) for ms in class_list]
    copy_edges = (
        (c, vert_of[index[g, v, a]], vert_of[index[group.gen_action[c][g], v, a]])
        for v, a in tags
        for c in sorted(a)
        for g in sub_elems[a]
    )
    host_edges = ((c, vert_of[u], vert_of[w]) for c, u, w in host.all_edges())
    graph = quotient_graph(names, group.colors, chain(host_edges, copy_edges))

    provenance = []
    for members in class_list:
        prov = [origin[m] for m in members if m >= host.n]
        provenance.append(tuple(sorted(prov, key=lambda t: (t[0], t[1], sorted(t[2])))))

    copies = []
    for a, host_comps in comps.items():
        for comp in host_comps:
            vs = tuple(sorted({vert_of[index[g, comp[0], a]] for g in sub_elems[a]}))
            copies.append((a, comp, vs))

    ce = SmallCosetAmalgam(
        graph, skel, group, alpha, tuple(provenance), host_image, tuple(copies)
    )
    _validate_free_extension(ce, comps)
    return ce


def _validate_free_extension(ce, comps):
    """comps maps each proper subset alpha' to the alpha'-components of the
    host."""
    graph = ce.graph
    # (i) the host is a weak subgraph via host_image (edges were installed)
    # (ii) every alpha'-component of the host sits inside a full copy
    for a, comp, vs in ce.copies:
        if not {ce.host_image[u] for u in comp} <= set(vs):
            raise StrictnessViolation("host component escapes its copy")
        if len(vs) != len(ce.group.subgroup_elements(a)):
            raise StrictnessViolation("copy collapsed; extension is not free")
    # (iii) disjoint host components extend into disjoint extension
    # components: each extension component holds the images of one host
    # component at most
    for a, host_comps in comps.items():
        ext = Cosets(graph.n, [graph.partner[c] for c in sorted(a)])
        owner = {}
        for k, comp in enumerate(host_comps):
            for u in comp:
                if owner.setdefault(ext.find(ce.host_image[u]), k) != k:
                    raise StrictnessViolation(
                        "disjoint host components merged in the extension"
                    )
