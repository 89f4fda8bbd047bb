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

from .acyclicity import (
    DEFAULT_SEARCH_BUDGET,
    proper_subsets,
    search_coset_cycle,
    validate_cycle,
)
from .egraph import NO_EDGE, EGraph, disjoint_union, new_egraph
from .errors import (
    CompatibilityRequired,
    DegenerateGenerators,
    IncompleteGraph,
    PreconditionFailed,
    ResourceCap,
    UnknownName,
)
from .groups import is_compatible, sym
from .synthesis import SynthesisConfig, construct_n_acyclic
from .traverse import Cosets, bfs_parents, propagate, word


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
        fault = pattern_fault(len(self.sites), self.src, self.tgt, self.inv)
        if fault is not None:
            raise PreconditionFailed(fault[0])

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


def pattern_fault(n_sites, src, tgt, inv):
    """(message, "edge", e) for the first edge e that inv does not reverse,
    else (message, "site", s) for the first site s no edge touches, or None."""
    for e, r in enumerate(inv):
        if r == e:
            return "edge reversal must be fixpoint free", "edge", e
        if inv[r] != e:
            return "edge reversal must be involutive", "edge", e
        if src[r] != tgt[e] or tgt[r] != src[e]:
            return "edge reversal must swap source and target", "edge", e
    incident = set(src) | set(tgt)
    for s in range(n_sites):
        if s not in incident:
            return "incidence maps must be surjective onto the sites", "site", s
    return None


class HatTranslation(NamedTuple):
    """Involutive encoding of a pattern: three colours and two fresh sites
    per inverse pair; directed edges become three-edge undirected paths."""

    pattern: ConstraintPattern
    igraph: EGraph
    color_of: dict  # edge index -> singleton colour name; pairs -> middle name

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


def hat_translation(pattern):
    """Encode a pattern as an undirected template over involutive colours:
    the encoding of the pattern itself as a pattern graph."""
    color_of = {}
    for e, einv in pattern.pairs():
        color_of[e] = f"[{pattern.edge_ids[e]}]"
        color_of[einv] = f"[{pattern.edge_ids[einv]}]"
        color_of[(e, einv)] = f"[{pattern.edge_ids[e]}|{pattern.edge_ids[einv]}]"
    # translate_igraph reads only the pattern and the colours
    hat = HatTranslation(pattern, None, color_of)
    return hat._replace(igraph=translate_igraph(hat, pattern_igraph(pattern)))


def igraph_fault(pattern, site_of, edges):
    """(message, None, None) when a site has no vertex, else (message, e, i)
    for the first pair i of edge e's class off the incidence sorts, or
    (message, e, None) for the first class e whose reverse is not its
    converse; or None.  Each class's pairs are checked before its reverse,
    edge by edge."""
    if set(site_of) != set(range(pattern.n_sites)):
        return "every site needs at least one vertex", None, None
    for e, pairs in enumerate(edges):
        for i, (u, v) in enumerate(pairs):
            if site_of[u] != pattern.src[e] or site_of[v] != pattern.tgt[e]:
                return "edge endpoints violate the incidence sorts", e, i
        if sorted(edges[pattern.inv[e]]) != sorted((v, u) for u, v in pairs):
            return "reversed colour class must be the converse relation", e, None
    return None


class IGraph:
    """Site-partitioned directed graph over a pattern; edge classes respect
    the incidence sorts and reversal."""

    __slots__ = ("pattern", "vertex_names", "site_of", "edges")

    def __init__(self, pattern, vertex_names, site_of, edges):
        """edges: per edge index, list of (u, v) vertex-index pairs."""
        self.pattern = pattern
        self.vertex_names = tuple(vertex_names)
        self.site_of = tuple(site_of)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise UnknownName("duplicate vertex names")
        self.edges = tuple(tuple(sorted(es)) for es in edges)
        fault = igraph_fault(pattern, self.site_of, self.edges)
        if fault is not None:
            raise PreconditionFailed(fault[0])

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

    def __repr__(self):
        return f"IGraph({self.n} vertices over {self.pattern!r})"


def pattern_igraph(pattern):
    """The pattern itself viewed as a complete graph: one vertex per site."""
    edges = [[(pattern.src[e], pattern.tgt[e])] for e in range(pattern.n_edges)]
    return IGraph(pattern, list(pattern.sites), list(range(pattern.n_sites)), edges)


def translate_igraph(hat, igraph):
    """Involutive encoding of a pattern graph over the colours of
    ``hat.color_of``: each edge pair becomes a three-edge path through two
    fresh vertices."""
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
    return new_egraph(vertices, hat.color_of.values(), edges)


def groupoid_fault(pattern, sorts, neutral, gen_elem):
    """(error, message, "sorts", x) for the first neutral element x of a
    wrong sort, else (error, message, "generators", e) for the first
    generator e of a wrong sort, else for the first that equals an earlier
    one; or None."""
    for s, x in enumerate(neutral):
        if sorts[x] != (s, s):
            return PreconditionFailed, "neutral element has a wrong sort", "sorts", x
    for e, x in enumerate(gen_elem):
        if sorts[x] != (pattern.src[e], pattern.tgt[e]):
            return PreconditionFailed, "generator has a wrong sort", "generators", e
    seen = set()
    for e, x in enumerate(gen_elem):
        if x in seen:
            return DegenerateGenerators, "two groupoid generators coincide", "generators", e
        seen.add(x)
    return None


class IGroupoid:
    """Generated groupoid stored by right-multiplication tables per edge.

    Element 0..n-1 with sorts (source, target); rmul[e][g] is g * gen_e when
    the interface matches, else NO_EDGE.  The parent links behind witness
    edge words are derived from the tables when first read.
    """

    __slots__ = (
        "pattern", "sorts", "neutral", "gen_elem", "rmul", "labels", "_parents", "_closures"
    )

    def __init__(self, pattern, sorts, neutral, gen_elem, rmul, labels=None):
        self.pattern = pattern
        self.sorts = tuple(sorts)
        self.neutral = tuple(neutral)
        self.gen_elem = tuple(gen_elem)
        self.rmul = tuple(tuple(r) for r in rmul)
        self.labels = tuple(labels) if labels is not None else None
        self._parents = None  # derived by the parents property
        self._closures = {}
        fault = groupoid_fault(pattern, self.sorts, self.neutral, self.gen_elem)
        if fault is not None:
            raise fault[0](fault[1])

    @property
    def parents(self):
        """Per element, (previous element, edge) on a shortest edge word from
        the neutral element of its source, or None at a neutral element or
        an element no word reaches: the breadth-first forest of the tables
        from the neutral elements, edges in order, walked when first read
        and kept."""
        if self._parents is None:
            self._parents = tuple(bfs_parents(self.rmul, self.order, self.neutral)[1])
        return self._parents

    @property
    def order(self):
        return len(self.sorts)

    def source(self, g):
        return self.sorts[g][0]

    def target(self, g):
        return self.sorts[g][1]

    def apply(self, g, edges):
        for e in edges:
            g = self.rmul[e][g]
            if g == NO_EDGE:
                raise PreconditionFailed("composition undefined: interface mismatch")
        return g

    def compose(self, a, b):
        if self.target(a) != self.source(b):
            raise PreconditionFailed("composition undefined: interface mismatch")
        return self.apply(a, word(self.parents, b))

    def subset_closures(self, alpha_edges):
        """The alpha-cosets (alpha inverse closed) as a lazy
        :class:`~acygroups.traverse.Cosets`, ids least elements."""
        alpha_edges = frozenset(alpha_edges)
        table = self._closures.get(alpha_edges)
        if table is None:
            table = self._closures[alpha_edges] = Cosets(
                self.order, [self.rmul[e] for e in sorted(alpha_edges)])
        return table

    def __repr__(self):
        return f"IGroupoid(order {self.order}, {self.pattern!r})"


def _generate(pattern, seeds, step):
    """Breadth-first generation from per-site seeds under the edge actions.

    seeds: per site, a hashable state; step(state, e) -> state or None.
    Returns an IGroupoid whose element keys are the reachable states.
    """
    index = {}
    sorts = []
    states = []
    neutral = []
    for s, st in enumerate(seeds):
        if st in index:
            raise CompatibilityRequired("two neutral elements coincide")
        index[st] = len(states)
        neutral.append(len(states))
        states.append(st)
        sorts.append((s, s))
    rmul = [[] for _ in range(pattern.n_edges)]
    for pos, st in enumerate(states):
        s0, t0 = sorts[pos]
        for e, row in enumerate(rmul):
            if pattern.src[e] != t0:
                row.append(NO_EDGE)
                continue
            nxt = step(st, e)
            if nxt is None:
                raise CompatibilityRequired("generator action undefined on its sort")
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(states)
                states.append(nxt)
                sorts.append((s0, pattern.tgt[e]))
            elif sorts[j] != (s0, pattern.tgt[e]):
                raise CompatibilityRequired(
                    "sort clash during generation; the source structure is "
                    "not compatible with the pattern"
                )
            row.append(j)
    gen_elem = []
    for e in range(pattern.n_edges):
        gen_elem.append(rmul[e][neutral[pattern.src[e]]])
    return IGroupoid(pattern, sorts, neutral, gen_elem, rmul, states)


def groupoid_from_group(group, hat):
    """Extract the groupoid of hat's pattern from a group compatible with
    the encoding.

    Elements are (site, group element) pairs where the element is a product
    of encoded edge triplets read along pattern walks from the site.
    """
    pattern = hat.pattern
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
    bijections = [dict(igraph.edges[e]) for e in range(pattern.n_edges)]
    sites = {s: tuple(igraph.vertices_of_site(s)) for s in range(pattern.n_sites)}

    def step(state, e):
        s, mapping = state
        return (s, tuple(bijections[e][x] for x in mapping))

    seeds = [(s, sites[s]) for s in range(pattern.n_sites)]
    return _generate(pattern, seeds, step)


def check_target(pattern, igraph):
    """UnknownName unless igraph lies over pattern: the same pattern, or
    one with the same sites, edge ids, incidences and reversal;
    IncompleteGraph unless igraph is complete."""
    if igraph.pattern is not pattern and any(
            getattr(igraph.pattern, key) != getattr(pattern, key)
            for key in ("sites", "edge_ids", "src", "tgt", "inv")):
        raise UnknownName("groupoid and graph must share a pattern")
    if not igraph.is_complete():
        raise IncompleteGraph("compatibility target must be complete")


def is_compatible_groupoid(gpd, igraph):
    """Every word neutral in the groupoid acts as the identity on the graph.

    Decided by propagating the image of one vertex at a time over the
    groupoid's elements, from the neutral element of its site, and failing
    on the first conflict, which is the closure-order criterion read off
    the projection; a word acts as the identity exactly when it fixes every
    vertex of its source site.
    """
    check_target(gpd.pattern, igraph)
    bijections = [dict(pairs) for pairs in igraph.edges]
    rows = list(enumerate(gpd.rmul))
    return all(propagate(gpd.order, rows, [(gpd.neutral[s], v)], bijections) is not None
               for v, s in enumerate(igraph.site_of))


def inverse_closed_proper_subsets(pattern):
    """Inverse-closed proper subsets of the edge set, smallest first."""
    pairs = pattern.pairs()
    return [frozenset(e for i in chosen for e in pairs[i])
            for chosen in proper_subsets(len(pairs))]


def find_groupoid_coset_cycle(gpd, n_max, budget=None):
    """Shortest groupoid coset cycle up to n_max, or None.

    Subsets range over inverse-closed proper subsets of the edges; the first
    element is normalised to a neutral element by left translation.
    """
    alphas = inverse_closed_proper_subsets(gpd.pattern)
    found = search_coset_cycle(alphas, gpd.neutral, n_max, gpd.subset_closures, budget)
    if found is None:
        return None
    cyc = tuple(found)
    if not validate_cycle(gpd.subset_closures, cyc):
        raise RuntimeError("groupoid coset-cycle search returned a cycle its validator rejects")
    return cyc


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


def verify_groupoid_axioms(gpd):
    """Exhaustive check of the groupoid laws up to DEFAULT_SEARCH_BUDGET triples.

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
                if count > DEFAULT_SEARCH_BUDGET:
                    raise ResourceCap(f"associativity budget {DEFAULT_SEARCH_BUDGET} exceeded")
                if gpd.compose(ab, c) != gpd.compose(a, gpd.compose(b, c)):
                    return False
    return True


class GroupoidSynthesisResult(NamedTuple):
    groupoid: IGroupoid
    group: object
    hat: HatTranslation
    stage_reports: list
    checks: dict


def construct_n_acyclic_groupoid(pattern, target_igraph, config=None):
    """Pattern groupoid with verified coset acyclicity up to
    ``config.n_acyclic`` and compatibility with the target graph.

    Pipeline: encode the pattern and the target graph, grow a group over the
    encoded template until it is acyclic over it, extract the groupoid, and
    re-verify the groupoid axioms, acyclicity and compatibility directly.
    """
    config = config or SynthesisConfig()
    check_target(pattern, target_igraph)
    hat = hat_translation(pattern)
    encoded_target = translate_igraph(hat, target_igraph)
    group0 = sym(disjoint_union([hat.igraph, encoded_target]), cap=config.element_cap)
    group, reports = construct_n_acyclic(group0, config, hat.igraph)
    gpd = groupoid_from_group(group, hat)
    checks = {
        "axioms": verify_groupoid_axioms(gpd),
        "acyclic": find_groupoid_coset_cycle(gpd, config.n_acyclic,
                                             budget=config.search_budget) is None,
        "compatible": is_compatible_groupoid(gpd, target_igraph),
    }
    return GroupoidSynthesisResult(gpd, group, hat, reports, checks)
