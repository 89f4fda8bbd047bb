"""Many-sorted groupoids over directed multi-graph patterns.

A pattern fixes sites and directed generator edges with a fixpoint-free edge
reversal.  Groupoid elements are sorted by (source site, target site) pairs;
composition is defined exactly on matching interfaces.  The involutive
encoding turns each edge pair into a path of three fresh undirected colours
through two fresh sites, so pattern-constrained groupoids can be extracted
from ordinary groups that are compatible with the encoded template.
"""

from __future__ import annotations

from typing import NamedTuple

from .acyclicity import DEFAULT_SEARCH_BUDGET, met_by_ids, search_coset_cycle
from .egraph import NO_EDGE, EGraph, disjoint_union, hypercube, new_egraph
from .errors import (
    CompatibilityRequired,
    DegenerateGenerators,
    IncompleteGraph,
    PreconditionFailed,
    ResourceCap,
    UnknownName,
)
from .groups import sym
from .traverse import Cosets, propagate


class ConstraintPattern:
    """Directed multi-graph with sites, incidence maps, and edge reversal."""

    __slots__ = ("sites", "edge_ids", "src", "tgt", "inv", "_sidx", "_eidx")

    def __init__(self, sites, edges):
        """edges: list of (id, src site, tgt site, inverse id)."""
        self.sites = tuple(sites)
        self._sidx = {s: i for i, s in enumerate(self.sites)}
        if len(self._sidx) != len(self.sites):
            raise UnknownName("duplicate site names")
        self.edge_ids = tuple(e[0] for e in edges)
        self._eidx = {e: i for i, e in enumerate(self.edge_ids)}
        if len(self._eidx) != len(self.edge_ids):
            raise UnknownName("duplicate edge ids")
        self.src = tuple(self._site(e[1]) for e in edges)
        self.tgt = tuple(self._site(e[2]) for e in edges)
        self.inv = tuple(self._edge(e[3]) for e in edges)
        for i in range(len(edges)):
            if self.inv[i] == i:
                raise PreconditionFailed("edge reversal must be fixpoint free")
            if self.inv[self.inv[i]] != i:
                raise PreconditionFailed("edge reversal must be involutive")
            if self.src[self.inv[i]] != self.tgt[i] or self.tgt[self.inv[i]] != self.src[i]:
                raise PreconditionFailed("edge reversal must swap source and target")
        incident = set(self.src) | set(self.tgt)
        if incident != set(range(len(self.sites))):
            raise PreconditionFailed("incidence maps must be surjective onto the sites")

    def _site(self, name):
        try:
            return self._sidx[name]
        except KeyError:
            raise UnknownName(f"unknown site {name!r}") from None

    def _edge(self, name):
        try:
            return self._eidx[name]
        except KeyError:
            raise UnknownName(f"unknown edge {name!r}") from None

    @property
    def n_sites(self):
        return len(self.sites)

    @property
    def n_edges(self):
        return len(self.edge_ids)

    def pairs(self):
        """Inverse pairs as (e, e_inv) with e < e_inv, sorted."""
        return [(i, self.inv[i]) for i in range(self.n_edges) if i < self.inv[i]]

    def __repr__(self):
        return f"ConstraintPattern({len(self.sites)} sites, {self.n_edges} directed edges)"


class HatTranslation(NamedTuple):
    """Involutive encoding of a pattern: three colours and two fresh sites
    per inverse pair; directed edges become three-edge undirected paths."""

    pattern: ConstraintPattern
    igraph: EGraph
    color_of: dict  # edge index -> singleton colour name; pairs -> middle name
    site_of: dict  # pattern site index -> encoded-graph vertex name

    def word(self, edges):
        """Encoded colour word of a directed edge word."""
        out = []
        for e in edges:
            out.extend(self.triplet(e))
        return out

    def triplet(self, e):
        ig = self.igraph
        return [
            ig.color_index(self.color_of[e]),
            ig.color_index(self.color_of[(min(e, self.pattern.inv[e]), max(e, self.pattern.inv[e]))]),
            ig.color_index(self.color_of[self.pattern.inv[e]]),
        ]

    def subset(self, alpha_edges):
        """Encoded colour-index set of an inverse-closed edge set."""
        out = set()
        for e in alpha_edges:
            out.update(self.triplet(e))
        return frozenset(out)

    def unword(self, colors):
        """Directed edge word of an encoded colour word; validates shape."""
        ig = self.igraph
        names = [ig.colors[c] for c in colors]
        if len(names) % 3 != 0:
            raise UnknownName("encoded word length must be a multiple of 3")
        singles = {v: k for k, v in self.color_of.items() if not isinstance(k, tuple)}
        out = []
        for i in range(0, len(names), 3):
            e = singles.get(names[i])
            e_inv = singles.get(names[i + 2])
            if e is None or e_inv != self.pattern.inv[e]:
                raise UnknownName(f"not an encoded edge triplet at position {i}")
            out.append(e)
        return out


def hat_translation(pattern):
    """Encode a pattern as an undirected template over involutive colours."""
    color_of = {}
    vertices = [f"s:{s}" for s in pattern.sites]
    site_of = {i: f"s:{pattern.sites[i]}" for i in range(pattern.n_sites)}
    colors = []
    edges = []
    for e, einv in pattern.pairs():
        ce = f"[{pattern.edge_ids[e]}]"
        cm = f"[{pattern.edge_ids[e]}|{pattern.edge_ids[einv]}]"
        ci = f"[{pattern.edge_ids[einv]}]"
        color_of[e] = ce
        color_of[einv] = ci
        color_of[(e, einv)] = cm
        colors.extend([ce, cm, ci])
        me = f"m:{pattern.edge_ids[e]}"
        mi = f"m:{pattern.edge_ids[einv]}"
        vertices.extend([me, mi])
        edges.append((ce, site_of[pattern.src[e]], me))
        edges.append((cm, me, mi))
        edges.append((ci, mi, site_of[pattern.tgt[e]]))
    igraph = new_egraph(vertices, colors, edges)
    return HatTranslation(pattern, igraph, color_of, site_of)


class IGraph:
    """Site-partitioned directed graph over a pattern; edge classes respect
    the incidence sorts and reversal."""

    __slots__ = ("pattern", "vertex_names", "site_of", "edges", "_vidx")

    def __init__(self, pattern, vertex_names, site_of, edges):
        """edges: per edge index, list of (u, v) vertex-index pairs."""
        self.pattern = pattern
        self.vertex_names = tuple(vertex_names)
        self.site_of = tuple(site_of)
        self._vidx = {nm: i for i, nm in enumerate(self.vertex_names)}
        self.edges = tuple(tuple(sorted(es)) for es in edges)
        sites_present = set(self.site_of)
        if sites_present != set(range(pattern.n_sites)):
            raise PreconditionFailed("every site needs at least one vertex")
        for e in range(pattern.n_edges):
            for u, v in self.edges[e]:
                if self.site_of[u] != pattern.src[e] or self.site_of[v] != pattern.tgt[e]:
                    raise PreconditionFailed("edge endpoints violate the incidence sorts")
            if self.edges[pattern.inv[e]] != tuple(sorted((v, u) for u, v in self.edges[e])):
                raise PreconditionFailed("reversed colour class must be the converse relation")

    @property
    def n(self):
        return len(self.vertex_names)

    def vertices_of_site(self, s):
        return [v for v in range(self.n) if self.site_of[v] == s]

    def is_complete(self):
        for e in range(self.pattern.n_edges):
            dom = self.vertices_of_site(self.pattern.src[e])
            rng = self.vertices_of_site(self.pattern.tgt[e])
            srcs = [u for u, _ in self.edges[e]]
            tgts = [v for _, v in self.edges[e]]
            if sorted(srcs) != sorted(dom) or len(set(srcs)) != len(srcs):
                return False
            if sorted(tgts) != sorted(rng) or len(set(tgts)) != len(tgts):
                return False
        return True

    def bijection(self, e):
        if not self.is_complete():
            raise IncompleteGraph("edge classes are not bijections")
        return dict(self.edges[e])

    def __repr__(self):
        return f"IGraph({self.n} vertices over {self.pattern!r})"


def pattern_igraph(pattern):
    """The pattern itself viewed as a complete graph: one vertex per site."""
    edges = [[(pattern.src[e], pattern.tgt[e])] for e in range(pattern.n_edges)]
    return IGraph(pattern, list(pattern.sites), list(range(pattern.n_sites)), edges)


def translate_igraph(hat, igraph):
    """Involutive encoding of a pattern graph, matching the template encoding."""
    pattern = hat.pattern
    vertices = [f"v:{nm}" for nm in igraph.vertex_names]
    edges = []
    for e, einv in pattern.pairs():
        ce, cm, ci = hat.color_of[e], hat.color_of[(e, einv)], hat.color_of[einv]
        for u, v in igraph.edges[e]:
            me = f"m:{pattern.edge_ids[e]}:{u}:{v}"
            mi = f"m:{pattern.edge_ids[einv]}:{v}:{u}"
            vertices.extend([me, mi])
            edges.append((ce, f"v:{igraph.vertex_names[u]}", me))
            edges.append((cm, me, mi))
            edges.append((ci, mi, f"v:{igraph.vertex_names[v]}"))
    return new_egraph(vertices, list(hat.igraph.colors), edges)


class IGroupoid:
    """Generated groupoid stored by right-multiplication tables per edge.

    Element 0..n-1 with sorts (source, target); rmul[e][g] is g * gen_e when
    the interface matches, else NO_EDGE.  Witness edge words come from the
    breadth-first generation from the per-site neutral elements.
    """

    __slots__ = (
        "pattern", "sorts", "neutral", "gen_elem", "rmul", "parents", "labels", "_closures"
    )

    def __init__(self, pattern, sorts, neutral, gen_elem, rmul, parents, labels=None):
        self.pattern = pattern
        self.sorts = tuple(sorts)
        self.neutral = tuple(neutral)
        self.gen_elem = tuple(gen_elem)
        self.rmul = tuple(tuple(r) for r in rmul)
        self.parents = tuple(parents)
        self.labels = tuple(labels) if labels is not None else None
        self._closures = {}
        for s, x in enumerate(self.neutral):
            if self.sorts[x] != (s, s):
                raise PreconditionFailed("neutral element has a wrong sort")
        for e, x in enumerate(self.gen_elem):
            if self.sorts[x] != (pattern.src[e], pattern.tgt[e]):
                raise PreconditionFailed("generator has a wrong sort")
        if len(set(self.gen_elem)) != len(self.gen_elem):
            raise DegenerateGenerators("two groupoid generators coincide")

    @property
    def order(self):
        return len(self.sorts)

    def source(self, g):
        return self.sorts[g][0]

    def target(self, g):
        return self.sorts[g][1]

    def word_of(self, g):
        out = []
        while self.parents[g] is not None:
            prev, e = self.parents[g]
            out.append(e)
            g = prev
        out.reverse()
        return tuple(out)

    def apply(self, g, edges):
        for e in edges:
            g = self.rmul[e][g]
            if g == NO_EDGE:
                raise PreconditionFailed("composition undefined: interface mismatch")
        return g

    def compose(self, a, b):
        if self.target(a) != self.source(b):
            raise PreconditionFailed("composition undefined: interface mismatch")
        return self.apply(a, self.word_of(b))

    def inverse(self, g):
        return self.apply(self.neutral[self.target(g)], [self.pattern.inv[e] for e in reversed(self.word_of(g))])

    def evaluate(self, edges, start_site=None):
        if start_site is None:
            if not edges:
                raise PreconditionFailed("evaluating the empty word needs a site")
            start_site = self.pattern.src[edges[0]]
        return self.apply(self.neutral[start_site], edges)

    def subset_closures(self, alpha_edges):
        """The alpha-cosets (alpha inverse closed) as a lazy
        :class:`~acygroups.traverse.Cosets`, ids least elements."""
        alpha_edges = frozenset(alpha_edges)
        table = self._closures.get(alpha_edges)
        if table is None:
            table = self._closures[alpha_edges] = Cosets(
                self.order, [self.rmul[e] for e in sorted(alpha_edges)])
        return table

    def coset(self, g, alpha_edges):
        return self.subset_closures(alpha_edges).block(g)

    def __repr__(self):
        return f"IGroupoid(order {self.order}, {self.pattern!r})"


def _generate(pattern, seeds, step, label_of=None):
    """Breadth-first generation from per-site seeds under the edge actions.

    seeds: per site, a hashable state; step(state, e) -> state or None.
    Returns an IGroupoid whose element keys are the reachable states.
    """
    index = {}
    sorts = []
    parents = []
    labels = []
    states = []
    neutral = []
    for s, st in enumerate(seeds):
        if st in index:
            raise CompatibilityRequired("two neutral elements coincide")
        index[st] = len(states)
        neutral.append(len(states))
        states.append(st)
        sorts.append((s, s))
        parents.append(None)
        labels.append(st if label_of is None else label_of(st))
    pos = 0
    while pos < len(states):
        st = states[pos]
        s0, t0 = sorts[pos]
        for e in range(pattern.n_edges):
            if pattern.src[e] != t0:
                continue
            nxt = step(st, e)
            if nxt is None:
                raise CompatibilityRequired("generator action undefined on its sort")
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                sorts.append((s0, pattern.tgt[e]))
                parents.append((pos, e))
                labels.append(nxt if label_of is None else label_of(nxt))
            else:
                if sorts[index[nxt]] != (s0, pattern.tgt[e]):
                    raise CompatibilityRequired(
                        "sort clash during generation; the source structure is "
                        "not compatible with the pattern"
                    )
        pos += 1
    rmul = []
    for e in range(pattern.n_edges):
        row = []
        for g, st in enumerate(states):
            if sorts[g][1] != pattern.src[e]:
                row.append(NO_EDGE)
            else:
                row.append(index[step(st, e)])
        rmul.append(row)
    gen_elem = []
    for e in range(pattern.n_edges):
        gen_elem.append(rmul[e][neutral[pattern.src[e]]])
    return IGroupoid(pattern, sorts, neutral, gen_elem, rmul, parents, labels)


def groupoid_from_group(group, pattern, hat=None, igraph=None):
    """Extract the pattern groupoid from a group compatible with the encoding.

    Elements are (site, group element) pairs where the element is a product
    of encoded edge triplets read along pattern walks from the site.
    """
    hat = hat or hat_translation(pattern)
    template = igraph if igraph is not None else hat.igraph
    from .groups import is_compatible

    if not is_compatible(group, hat.igraph):
        raise CompatibilityRequired("group is not compatible with the encoded template")
    triplets = [hat.triplet(e) for e in range(pattern.n_edges)]

    def step(state, e):
        s, g = state
        for c in triplets[e]:
            g = group.gen_action[c][g]
        return (s, g)

    seeds = [(s, 0) for s in range(pattern.n_sites)]
    return _generate(pattern, seeds, step)


def groupoid_cayley(gpd):
    """Directed Cayley graph: vertices are elements sorted by target site."""
    pattern = gpd.pattern
    edges = [[] for _ in range(pattern.n_edges)]
    for e in range(pattern.n_edges):
        for g in range(gpd.order):
            h = gpd.rmul[e][g]
            if h != NO_EDGE:
                edges[e].append((g, h))
    return IGraph(
        pattern,
        [f"g{g}" for g in range(gpd.order)],
        [gpd.target(g) for g in range(gpd.order)],
        edges,
    )


def sym_igraph(igraph):
    """Groupoid of the walk-induced bijections of a complete pattern graph."""
    if not igraph.is_complete():
        raise IncompleteGraph("sym needs a complete pattern graph")
    pattern = igraph.pattern
    bijections = [igraph.bijection(e) for e in range(pattern.n_edges)]
    sites = {s: tuple(igraph.vertices_of_site(s)) for s in range(pattern.n_sites)}

    def step(state, e):
        s, mapping = state
        return (s, tuple(bijections[e][x] for x in mapping))

    seeds = [(s, sites[s]) for s in range(pattern.n_sites)]
    return _generate(pattern, seeds, step)


def is_compatible_groupoid(gpd, igraph):
    """Every word neutral in the groupoid acts as the identity on the graph.

    Decided by propagating the induced partial bijections over the groupoid's
    elements and failing on the first conflict, which is the closure-order
    criterion read off the projection.
    """
    if igraph.pattern is not gpd.pattern and (
        igraph.pattern.edge_ids != gpd.pattern.edge_ids
        or igraph.pattern.sites != gpd.pattern.sites
    ):
        raise UnknownName("groupoid and graph must share a pattern")
    if not igraph.is_complete():
        raise IncompleteGraph("compatibility target must be complete")
    pattern = gpd.pattern
    bijections = [igraph.bijection(e) for e in range(pattern.n_edges)]
    seeds = [(x, tuple(igraph.vertices_of_site(s))) for s, x in enumerate(gpd.neutral)]
    actions = propagate(
        gpd.order,
        list(enumerate(gpd.rmul)),
        seeds,
        lambda e, act: tuple(map(bijections[e].__getitem__, act)),
    )
    return actions is not None


def inverse_closed_proper_subsets(pattern):
    """Inverse-closed proper subsets of the edge set, smallest first."""
    pairs = pattern.pairs()
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(chosen) == len(pairs):
            continue
        edges = frozenset(e for p in chosen for e in p)
        out.append(edges)
    return sorted(out, key=lambda a: (len(a), sorted(a)))


def validate_groupoid_coset_cycle(gpd, entries):
    """Recheck connectivity and separation for (alpha, element) entries."""
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
        left = set(gpd.coset(g_i, a_i & a_p))
        right = set(gpd.coset(g_n, a_i & a_n))
        if left & right:
            return False
    return True


def find_groupoid_coset_cycle(gpd, n_max, budget=None):
    """Shortest groupoid coset cycle up to n_max, or None.

    Subsets range over inverse-closed proper subsets of the edges; the first
    element is normalised to a neutral element by left translation.
    """
    alphas = inverse_closed_proper_subsets(gpd.pattern)
    found = search_coset_cycle(
        alphas, gpd.neutral, n_max, gpd.subset_closures, met_by_ids, budget
    )
    if found is None:
        return None
    cyc = tuple(found)
    if not validate_groupoid_coset_cycle(gpd, cyc):
        raise RuntimeError("groupoid coset-cycle search returned a cycle its validator rejects")
    return cyc


def is_n_acyclic_groupoid(gpd, n_max, budget=None):
    return find_groupoid_coset_cycle(gpd, n_max, budget=budget) is None


def translate_groupoid_cycle(gpd, hat, entries):
    """Encoded template cycle of a groupoid coset cycle.

    Each (alpha, g) becomes (encoded alpha, target site of g, group element
    of g); the result must validate as a template coset cycle in the group
    the groupoid was extracted from.
    """
    out = []
    for alpha, g in entries:
        label = gpd.labels[g] if gpd.labels is not None else None
        if not isinstance(label, tuple) or len(label) != 2:
            raise PreconditionFailed("cycle translation needs an extracted groupoid")
        out.append((hat.subset(alpha), gpd.target(g), label[1]))
    return tuple(out)


def verify_groupoid_axioms(gpd, triple_budget=DEFAULT_SEARCH_BUDGET):
    """Exhaustive check of the groupoid laws up to a triple budget.

    Checks sort discipline of the tables, two-sided neutrality, generator
    inverses, generatedness, and associativity over all sort-matching
    triples.  Raises ResourceCap rather than sampling when the triple count
    exceeds the budget.
    """
    pattern = gpd.pattern
    for e in range(pattern.n_edges):
        for g in range(gpd.order):
            h = gpd.rmul[e][g]
            if (gpd.target(g) == pattern.src[e]) != (h != NO_EDGE):
                return False
            if h != NO_EDGE:
                if gpd.sorts[h] != (gpd.source(g), pattern.tgt[e]):
                    return False
    for g in range(gpd.order):
        s, t = gpd.sorts[g]
        if gpd.compose(gpd.neutral[s], g) != g or gpd.compose(g, gpd.neutral[t]) != g:
            return False
    for e in range(pattern.n_edges):
        ge = gpd.gen_elem[e]
        gi = gpd.gen_elem[pattern.inv[e]]
        if gpd.compose(ge, gi) != gpd.neutral[pattern.src[e]]:
            return False
        if gpd.compose(gi, ge) != gpd.neutral[pattern.tgt[e]]:
            return False
    if any(gpd.parents[g] is None and g not in gpd.neutral for g in range(gpd.order)):
        return False
    by_source = {}
    for g in range(gpd.order):
        by_source.setdefault(gpd.source(g), []).append(g)
    count = 0
    for a in range(gpd.order):
        for b in by_source.get(gpd.target(a), ()):
            ab = gpd.compose(a, b)
            for c in by_source.get(gpd.target(b), ()):
                count += 1
                if count > triple_budget:
                    raise ResourceCap(f"associativity budget {triple_budget} exceeded")
                if gpd.compose(ab, c) != gpd.compose(a, gpd.compose(b, c)):
                    return False
    return True


class GroupoidSynthesisResult(NamedTuple):
    groupoid: IGroupoid
    group: object
    hat: HatTranslation
    stage_reports: list
    checks: dict


def construct_n_acyclic_groupoid(pattern, target_igraph, n_max, config=None):
    """Pattern groupoid with verified coset acyclicity and compatibility.

    Pipeline: encode the pattern and the target graph, grow a group over the
    encoded template until it is acyclic over it, extract the groupoid, and
    re-verify the groupoid axioms, acyclicity and compatibility directly.
    """
    from .synthesis import SynthesisConfig, construct_n_acyclic_over

    config = config or SynthesisConfig(n_acyclic=n_max)
    hat = hat_translation(pattern)
    encoded_target = translate_igraph(hat, target_igraph)
    start_graph = disjoint_union(
        [hat.igraph, encoded_target, hypercube(hat.igraph.colors)]
    )
    group0 = sym(start_graph, attach_hypercube=False)
    group, reports = construct_n_acyclic_over(group0, hat.igraph, config)
    gpd = groupoid_from_group(group, pattern, hat=hat)
    checks = {
        "axioms": verify_groupoid_axioms(gpd),
        "acyclic": is_n_acyclic_groupoid(gpd, n_max, budget=config.search_budget),
        "compatible": is_compatible_groupoid(gpd, target_igraph),
    }
    return GroupoidSynthesisResult(gpd, group, hat, reports, checks)
