"""Reachability templates: products, template-restricted cosets, skeletons,
freeness, and small coset amalgams.

A constraint graph is an ordinary edge-coloured matching graph I over a site
set S.  It restricts reachability in a Cayley graph: only walks whose label
sequences also label walks from a given site of I count.  Restricted
reachability is never computed through word languages (they are infinite)
but through the direct product of I with the Cayley graph, whose
alpha-components are exactly the template-restricted cosets.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import NamedTuple

from .acyclicity import all_subsets, proper_subsets, search_coset_cycle
from .canon import connected_components
from .egraph import NO_EDGE, EGraph, alpha_component, induced_subgraph
from .errors import (
    CompatibilityRequired,
    PreconditionFailed,
    StrictnessViolation,
    TransitivityViolation,
    UnknownName,
)
from .groups import is_compatible
from .traverse import Cosets, bfs_parents, propagate


def trivial_constraint_graph(colors):
    """One site with a loop of every colour; restricts nothing."""
    rows = [[0] for _ in colors]
    return EGraph(["s"], sorted(colors), rows)


def direct_product(igraph, cg):
    """Product of a template with a Cayley graph on site/element pairs.

    An e-edge joins (s, g) and (s', g*e) exactly when I has an e-edge (s, s').
    The group must be compatible with the template.
    """
    group = cg.group
    if not is_compatible(group, igraph):
        raise CompatibilityRequired("group is not compatible with the template graph")
    ns, ng = igraph.n, group.order
    names = [f"{igraph.vertex_names[s]}|{g}" for s in range(ns) for g in range(ng)]
    rows = []
    for irow, grow in zip(igraph.partner, group.gen_action):
        row = [NO_EDGE] * (ns * ng)
        for s, t in enumerate(irow):
            if t != NO_EDGE:
                row[s * ng:(s + 1) * ng] = [t * ng + h for h in grow]
        rows.append(row)
    return EGraph(names, igraph.colors, rows)


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


class SkeletonFailure(NamedTuple):
    reason: str
    detail: object


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

    def __init__(self, group, igraph, check=True):
        if tuple(igraph.colors) != group.colors:
            raise CompatibilityRequired("template and group must share a colour registry")
        if check and not is_compatible(group, igraph):
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

    def i_coset(self, alpha, s, g):
        """Sorted elements reachable from g along walks the template admits from s."""
        ng = self.group.order
        return tuple(sorted(x % ng for x in self.comp_tables(alpha).block(self.pair(s, g))))

    def i_coset_id(self, alpha, s, g):
        return self.comp_tables(alpha).find(self.pair(s, g))

    def met(self, block, tb):
        """The kernel's ``met`` hook: ids of the components of table tb whose
        element sets meet the element set of block.  The component of (s, e)
        meets an element set E exactly when it holds some (s', e') with e'
        in E, so these are the ids of every pair over E."""
        ids_b, ng = tb.ids, self.group.order
        return {ids_b[s * ng + e] for e in {y % ng for y in block} for s in range(self.igraph.n)}

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
    pair.
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


def i_component(group, igraph, alpha, s, g, ctx=None):
    """Template-restricted coset with its traversed edges.

    Returns (elements, edges) where edges are (colour, element, element)
    pairs actually reachable along admitted walks.
    """
    ctx = ctx or IContext(group, igraph)
    skel = ctx.skeleton(alpha, s, g)
    elements = tuple(sorted(skel.elements))
    edges = []
    for c, u, v in skel.graph.all_edges():
        edges.append((c, skel.elements[u], skel.elements[v]))
    return elements, sorted(edges)


def is_skeleton(host, igraph, alpha, s):
    """Check the defining properties of a skeleton host; find its site map.

    The map is propagated from anchor candidates: along an edge of the host
    the image is forced because template colour classes are matchings.
    Surjectivity onto the alpha-component of s and the edge-lifting property
    are then verified.
    """
    alpha = frozenset(alpha)
    target, target_emb = alpha_component(igraph, sorted(alpha), s)
    target_sites = set(target_emb)
    rows = list(enumerate(host.partner))

    def step(c, site):
        # the image of an edge is forced: template colour classes are matchings
        t = igraph.partner[c][site] if c in alpha else NO_EDGE
        return t if t in target_sites else None

    hom = [None] * host.n
    for comp in connected_components(host):
        assigned = None
        for site in sorted(target_sites):
            assigned = propagate(host.n, rows, [(comp[0], site)], step)
            if assigned is not None:
                break
        if assigned is None:
            return SkeletonFailure("no site homomorphism for a component", comp[0])
        for v in comp:
            hom[v] = assigned[v]
    covered = set(hom)
    if not target_sites <= covered:
        return SkeletonFailure("homomorphism not surjective onto the component", None)
    for v in range(host.n):
        for c in sorted(alpha):
            t = igraph.partner[c][hom[v]]
            if t != NO_EDGE and t in target_sites and host.partner[c][v] == NO_EDGE:
                return SkeletonFailure("edge-lifting fails", (v, igraph.colors[c]))
    return Skeleton(host, tuple(hom), alpha, s, None)


def is_free_skeleton(ctx, alpha, s, g=0):
    """Freeness of the embedded skeleton anchored at (s, g).

    Any two proper-subset cosets of skeleton vertices that overlap in the
    ambient Cayley graph must already overlap template-restrictedly inside
    the skeleton.  Pairs are driven by the ambient coset partition, so only
    genuinely intersecting cosets are examined.
    """
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
            cid = ctx.i_coset_id(a, site, elem)
            reps.setdefault(cid, (site, elem))
        comp_reps[a] = reps
    for a1 in gammas:
        find1 = group.coset_table(a1).find
        for a2 in gammas:
            # ambient-coset pairs that actually meet, found via shared elements
            plain1 = {}
            for cid, (site, elem) in comp_reps[a1].items():
                plain1.setdefault(find1(elem), []).append(cid)
            for cid2, (site2, elem2) in comp_reps[a2].items():
                proj2 = set(ctx.i_coset(a2, site2, elem2))
                for cid1 in _cids_meeting(group, find1, plain1, elem2, a2):
                    site1, elem1 = comp_reps[a1][cid1]
                    if not (set(ctx.i_coset(a1, site1, elem1)) & proj2):
                        return False
    return True


def _cids_meeting(group, find1, plain1, elem2, a2):
    seen = set()
    for x in group.coset(elem2, a2):
        for cid in plain1.get(find1(x), ()):
            if cid not in seen:
                seen.add(cid)
                yield cid


def find_freeness_violation(group, igraph, alphas=None, ctx=None):
    """First (alpha, site) whose anchored skeleton is not free, or None.

    Left translation moves any skeleton onto one anchored at the identity,
    so those anchors exhaust all skeletons up to translation.
    """
    ctx = ctx or IContext(group, igraph)
    if alphas is None:
        alphas = all_subsets(len(group.colors))
    for alpha in alphas:
        for s in range(igraph.n):
            if not is_free_skeleton(ctx, alpha, s):
                return frozenset(alpha), s
    return None


def is_free_over(group, igraph, alphas=None, ctx=None):
    """Freeness of every embedded skeleton, anchored per site at the identity."""
    return find_freeness_violation(group, igraph, alphas=alphas, ctx=ctx) is None


def validate_i_coset_cycle(group, igraph, entries, ctx=None):
    """Recheck template connectivity and separation for a candidate cycle.

    Entries are (alpha, site, element) triples in cyclic order.
    """
    ctx = ctx or IContext(group, igraph)
    n = len(entries)
    if n < 2:
        return False
    for i in range(n):
        a_i, s_i, g_i = entries[i]
        a_n, s_n, g_n = entries[(i + 1) % n]
        a_p = entries[(i - 1) % n][0]
        if ctx.i_coset_id(a_i, s_i, g_i) != ctx.i_coset_id(a_i, s_n, g_n):
            return False
        left = set(ctx.i_coset(a_i & a_p, s_i, g_i))
        right = set(ctx.i_coset(a_i & a_n, s_n, g_n))
        if left & right:
            return False
    return True


def find_i_coset_cycle(group, igraph, n_max, ctx=None, budget=None, deadline=None):
    """Shortest template coset cycle up to n_max, or None.

    Entries are (alpha, site, element) with the first element at the
    identity; connectivity requires the next pair to lie in the
    alpha-component of the current pair in the product graph, which fixes
    the next site.  Separation compares the element sets of components.
    """
    ctx = ctx or IContext(group, igraph)
    anchors = [ctx.pair(s, 0) for s in range(igraph.n)]
    alphas = proper_subsets(len(group.colors))
    found = search_coset_cycle(
        alphas, anchors, n_max, ctx.comp_tables, ctx.met, budget, deadline
    )
    if found is None:
        return None
    cyc = tuple((a, *ctx.unpair(x)) for a, x in found)
    if not validate_i_coset_cycle(group, igraph, cyc, ctx=ctx):
        raise RuntimeError("template coset-cycle search returned a cycle its validator rejects")
    return cyc


def is_n_acyclic_over(group, igraph, n_max, ctx=None, budget=None):
    return find_i_coset_cycle(group, igraph, n_max, ctx=ctx, budget=budget) is None


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


def small_coset_amalgam(skel, group, alpha, igraph, ctx=None, verify_preconditions=True):
    """Free extension of a skeleton by proper-subset Cayley-graph copies.

    A copy of the alpha'-subgroup Cayley graph is attached at every host
    vertex for every proper alpha'; copies are glued where a shared host
    vertex forces equal group elements, shifted through the common subgroup.
    The one-step relation is provably transitive under the preconditions
    (proper subgroups 2-acyclic and free over the template); transitivity is
    recomputed and checked, and the result is validated as a strict graph
    and as a free extension of the host.
    """
    alpha = frozenset(alpha)
    ctx = ctx or IContext(group, igraph)
    host = skel.graph
    gammas = [frozenset(a) for a in all_subsets(len(group.colors)) if frozenset(a) < alpha]
    if verify_preconditions:
        for a in gammas:
            if not _subgroup_two_acyclic(group, a):
                raise PreconditionFailed(f"subgroup {sorted(a)} is not 2-acyclic")
        if not is_free_over(group, igraph, alphas=gammas, ctx=ctx):
            raise PreconditionFailed("proper subgroups are not free over the template")

    # addresses: within each alpha'-component of the host, relative group
    # elements between vertices; verified consistent against the embedded
    # skeleton the component must realise
    from .canon import canonical_form

    addr = {}  # (alpha', anchor vertex) -> {vertex: element}
    comp_of = {}  # (alpha', vertex) -> component tuple
    for a in gammas:
        for comp in connected_components(host, a):
            maps = _component_addresses(host, comp, a, group)
            if maps is None:
                raise PreconditionFailed(
                    "host component carries inconsistent walk addresses"
                )
            if verify_preconditions:
                want = ctx.skeleton(a, skel.hom[comp[0]], 0).graph
                got = induced_subgraph(host, sorted(comp), a)
                if canonical_form(want) != canonical_form(got):
                    raise PreconditionFailed(
                        "host component is not isomorphic to an embedded skeleton"
                    )
            for v in comp:
                comp_of[(a, v)] = comp
            for v in comp:
                addr[(a, v)] = {u: group.product(group.inverse(maps[v]), maps[u]) for u in comp}

    tags = [(v, a) for v in range(host.n) for a in gammas]
    sub_elems = {a: group.subgroup_elements(a) for a in gammas}
    sub_pos = {a: {g: i for i, g in enumerate(els)} for a, els in sub_elems.items()}
    tag_base = {}
    total = host.n  # host vertices come first
    origin = [None] * host.n
    for t in tags:
        tag_base[t] = total
        v, a = t
        for g in sub_elems[a]:
            origin.append((g, v, a))
        total += len(sub_elems[a])

    from .amalgam import _UnionFind

    uf = _UnionFind(total)
    sim_pairs = set()

    def tag_vertex(v, a, g):
        return tag_base[(v, a)] + sub_pos[a][g]

    for v, a in tags:
        uf.union(v, tag_vertex(v, a, 0))
    for i1, (v1, a1) in enumerate(tags):
        comp1 = comp_of[(a1, v1)]
        for v2, a2 in tags[i1:]:
            shared = set(comp1) & set(comp_of[(a2, v2)])
            if not shared:
                continue
            a0 = a1 & a2
            for u in shared:
                x1 = addr[(a1, v1)][u]
                x2 = addr[(a2, v2)][u]
                for h in sub_elems[a0]:
                    g1 = group.product(x1, h)
                    g2 = group.product(x2, h)
                    p = tag_vertex(v1, a1, g1)
                    q = tag_vertex(v2, a2, g2)
                    uf.union(p, q)
                    sim_pairs.add((p, q) if p <= q else (q, p))

    classes = {}
    for x in range(total):
        classes.setdefault(uf.find(x), []).append(x)
    class_list = sorted(classes.values(), key=min)
    vert_of = {}
    for v, members in enumerate(class_list):
        for m in members:
            vert_of[m] = v

    _assert_sim_transitive(class_list, sim_pairs, host.n)

    host_image = tuple(vert_of[u] for u in range(host.n))
    if len(set(host_image)) != host.n:
        raise PreconditionFailed("host does not embed injectively into its extension")

    names = []
    for members in class_list:
        m = min(members)
        names.append(f"h{m}" if m < host.n else str(m))
    rows = [[NO_EDGE] * len(class_list) for _ in group.colors]

    def put_edge(c, u, w):
        if u == w:
            raise StrictnessViolation("extension induced a loop")
        row = rows[c]
        for x, y in ((u, w), (w, u)):
            if row[x] not in (NO_EDGE, y):
                raise StrictnessViolation("extension branches a colour class")
        row[u] = w
        row[w] = u

    for c in range(len(group.colors)):
        for u in range(host.n):
            w = host.partner[c][u]
            if w != NO_EDGE and u <= w:
                put_edge(c, vert_of[u], vert_of[w])
    for v, a in tags:
        for c in sorted(a):
            grow = group.gen_action[c]
            for g in sub_elems[a]:
                h = grow[g]
                if g <= h:
                    put_edge(c, vert_of[tag_vertex(v, a, g)], vert_of[tag_vertex(v, a, h)])

    graph = EGraph(names, group.colors, rows)
    if not graph.strict:
        raise StrictnessViolation("extension is not strict")

    provenance = []
    for members in class_list:
        prov = [origin[m] for m in members if m >= host.n]
        provenance.append(tuple(sorted(prov, key=lambda t: (t[0], t[1], sorted(t[2])))))

    copies = []
    for a in gammas:
        for comp in connected_components(host, a):
            vs = tuple(sorted({vert_of[tag_vertex(comp[0], a, g)] for g in sub_elems[a]}))
            copies.append((a, tuple(comp), vs))

    ce = SmallCosetAmalgam(
        graph, skel, group, alpha, tuple(provenance), host_image, tuple(copies)
    )
    _validate_free_extension(ce, gammas)
    return ce


def _component_addresses(host, comp, alpha_sub, group):
    """Element addresses inside one host component, or None if inconsistent."""
    rows = [(c, host.partner[c]) for c in sorted(alpha_sub)]
    return propagate(host.n, rows, [(comp[0], 0)], lambda c, g: group.gen_action[c][g])


def _subgroup_two_acyclic(group, alpha):
    from .acyclicity import is_two_acyclic
    from .groups import subgroup

    return is_two_acyclic(subgroup(group, sorted(alpha)))


def _assert_sim_transitive(class_list, sim_pairs, n_host):
    for members in class_list:
        tagged = [m for m in members if m >= n_host]
        for i, p in enumerate(tagged):
            for q in tagged[i + 1 :]:
                key = (p, q) if p <= q else (q, p)
                if p != q and key not in sim_pairs:
                    raise TransitivityViolation(
                        "one-step identification is not transitive; the freeness "
                        "precondition must have been violated"
                    )


def _validate_free_extension(ce, gammas):
    graph = ce.graph
    host = ce.skeleton.graph
    # (i) the host is a weak subgraph via host_image (edges were installed)
    # (ii) every alpha'-component of the host sits inside a full copy
    for a, comp, vs in ce.copies:
        if not {ce.host_image[u] for u in comp} <= set(vs):
            raise StrictnessViolation("host component escapes its copy")
        if len(vs) != len(ce.group.subgroup_elements(a)):
            raise StrictnessViolation("copy collapsed; extension is not free")
    # (iii) disjoint host components extend into disjoint extension components
    for a in gammas:
        comp_sets = [set(c) for c in connected_components(host, a)]
        ext = {}
        for k, vs in enumerate(connected_components(graph, a)):
            for v in vs:
                ext[v] = k
        for i, c1 in enumerate(comp_sets):
            for c2 in comp_sets[i + 1 :]:
                e1 = {ext[ce.host_image[u]] for u in c1}
                e2 = {ext[ce.host_image[u]] for u in c2}
                if e1 & e2:
                    raise StrictnessViolation(
                        "disjoint host components merged in the extension"
                    )


def minimal_tag_support(ce, x):
    """Minimal tag subset representing x, with its single anchoring component.

    Host vertices have empty support and anchor at themselves.
    """
    if not ce.provenance[x]:
        u = ce.host_image.index(x)
        return frozenset(), (u,)
    supports = [a for _, _, a in ce.provenance[x]]
    alpha_x = frozenset.intersection(*[frozenset(a) for a in supports])
    anchors = tuple(sorted({v for _, v, a in ce.provenance[x] if frozenset(a) == alpha_x}))
    if not anchors:
        raise StrictnessViolation("no representation realises the minimal tag support")
    comps = connected_components(ce.skeleton.graph, alpha_x)
    holding = [c for c in comps if set(anchors) <= set(c)]
    if len(holding) != 1 or set(anchors) != set(holding[0]):
        raise StrictnessViolation("anchor vertices do not form one full component")
    return alpha_x, anchors


def ce_cluster_property(ce, group):
    """Cluster property of the extension.

    Every proper-subset component B must (i) contain an element whose minimal
    tag support equals the component's intersection support, held in a core
    copy contained in every copy meeting B, and (ii) be contained in a weak
    substructure isomorphic to the amalgamation cluster of the contributing
    beta-reducts.
    """
    from .amalgam import amalgam_cluster
    from .canon import canonical_form

    gammas = [frozenset(a) for a in all_subsets(len(group.colors)) if frozenset(a) < ce.alpha]
    copy_sets = {i: set(vs) for i, (_, _, vs) in enumerate(ce.copies)}
    supports = [
        frozenset.intersection(*[frozenset(a) for _, _, a in prov]) if prov else frozenset()
        for prov in ce.provenance
    ]
    for beta in gammas:
        for comp in connected_components(ce.graph, beta):
            comp_set = set(comp)
            alpha_b = frozenset.intersection(*[supports[v] for v in comp])
            touching = [
                i
                for i, vs in copy_sets.items()
                if vs & comp_set and beta & ce.copies[i][0]
            ]
            cores = [
                c
                for c, (a, _, vs) in enumerate(ce.copies)
                if a == alpha_b
                and any(supports[v] == alpha_b and v in vs for v in comp)
            ]
            if not any(
                all(copy_sets[c] <= copy_sets[i] for i in touching) for c in cores
            ):
                return False
            betas = sorted(
                {beta & ce.copies[i][0] for i in touching if beta & ce.copies[i][0]},
                key=sorted,
            )
            if not betas:
                if len(comp) != 1:
                    return False
                continue
            predicted = amalgam_cluster(group, betas).graph
            actual = induced_subgraph(ce.graph, sorted(comp), beta)
            if canonical_form(predicted) != canonical_form(actual):
                return False
    return True
