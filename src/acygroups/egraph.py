"""Edge-coloured graphs whose colour classes are partial matchings.

The central object is :class:`EGraph`.  Each colour class is stored as a
partner table: ``partner[c][v]`` is the unique neighbour of ``v`` through
colour ``c``, ``v`` itself for a loop, or ``-1`` when ``v`` is unmatched.
A loop contributes degree 1, so the matching condition is structural.
"""

from __future__ import annotations

from .errors import IncompleteGraph, MatchingViolation, ResourceCap, UnknownName
from .traverse import NO_EDGE, bfs_parents


def reduce_word(word):
    """Cancel adjacent equal letters (involutive alphabet), iterated."""
    out = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class EGraph:
    """Immutable edge-coloured graph with partial-matching colour classes."""

    __slots__ = ("vertex_names", "colors", "partner", "strict", "complete", "_vidx", "_cidx")

    def __init__(self, vertex_names, colors, partner):
        self.vertex_names = tuple(vertex_names)
        self.colors = tuple(colors)
        self.partner = tuple(tuple(row) for row in partner)
        self._vidx = {nm: i for i, nm in enumerate(self.vertex_names)}
        self._cidx = {nm: i for i, nm in enumerate(self.colors)}
        if len(self._vidx) != len(self.vertex_names):
            raise UnknownName("duplicate vertex names")
        if len(self._cidx) != len(self.colors):
            raise UnknownName("duplicate colour names")
        n = len(self.vertex_names)
        if len(self.partner) != len(self.colors):
            raise MatchingViolation("one partner row per colour required")
        for row in self.partner:
            if len(row) != n:
                raise MatchingViolation("partner row has wrong length")
            for v, w in enumerate(row):
                if w == NO_EDGE:
                    continue
                if not 0 <= w < n or row[w] != v:
                    raise MatchingViolation(f"asymmetric partner entry at vertex {v}")
        self.strict = self._is_strict()
        self.complete = all(w != NO_EDGE for row in self.partner for w in row)

    def _is_strict(self):
        seen = set()
        for row in self.partner:
            for v, w in enumerate(row):
                if w == NO_EDGE or w < v:
                    continue
                if w == v:
                    return False  # loop
                if (v, w) in seen:
                    return False  # same pair in two colours
                seen.add((v, w))
        return True

    @property
    def n(self):
        return len(self.vertex_names)

    def vertex_index(self, name):
        try:
            return self._vidx[name]
        except KeyError:
            raise UnknownName(f"unknown vertex {name!r}") from None

    def color_index(self, name):
        try:
            return self._cidx[name]
        except KeyError:
            raise UnknownName(f"unknown colour {name!r}") from None

    def edges(self, c):
        """Canonical (u, v) pairs with u <= v for colour index c."""
        row = self.partner[c]
        return [(v, w) for v, w in enumerate(row) if w != NO_EDGE and v <= w]

    def all_edges(self):
        """Sorted (colour, u, v) triples over all colours."""
        out = []
        for c in range(len(self.colors)):
            out.extend((c, u, v) for u, v in self.edges(c))
        return out

    def degree_profile(self, v):
        """Per colour: 0 unmatched, 1 loop, 2 proper edge.  Iso-invariant."""
        out = []
        for row in self.partner:
            w = row[v]
            out.append(0 if w == NO_EDGE else (1 if w == v else 2))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, EGraph)
            and self.vertex_names == other.vertex_names
            and self.colors == other.colors
            and self.partner == other.partner
        )

    def __hash__(self):
        return hash((self.vertex_names, self.colors, self.partner))

    def __repr__(self):
        flags = []
        if self.strict:
            flags.append("strict")
        if self.complete:
            flags.append("complete")
        tag = " ".join(flags) or "plain"
        return f"EGraph({self.n} vertices, {len(self.colors)} colours, {tag})"


def new_egraph(vertices, colors, edges):
    """Build an EGraph from names and (colour, u, v) triples.

    The colour registry is sorted; vertex order is kept as given.  Raises
    MatchingViolation when a vertex would carry two edges of one colour and
    UnknownName for dangling references.
    """
    vertices = list(vertices)
    colors = sorted(colors)
    vidx = {nm: i for i, nm in enumerate(vertices)}
    cidx = {nm: i for i, nm in enumerate(colors)}
    if len(vidx) != len(vertices):
        raise UnknownName("duplicate vertex names")
    rows = [[NO_EDGE] * len(vertices) for _ in colors]
    for c, u, v in edges:
        if c not in cidx:
            raise UnknownName(f"unknown colour {c!r}")
        if u not in vidx or v not in vidx:
            raise UnknownName(f"unknown vertex in edge ({c!r}, {u!r}, {v!r})")
        ci, ui, vi = cidx[c], vidx[u], vidx[v]
        row = rows[ci]
        for x, y in ((ui, vi), (vi, ui)):
            if row[x] not in (NO_EDGE, y):
                raise MatchingViolation(
                    f"vertex {u if x == ui else v!r} has two {c!r}-coloured edges"
                )
        row[ui] = vi
        row[vi] = ui
    return EGraph(vertices, colors, rows)


def trivial_completion(g):
    """Add a loop at every vertex unmatched in a colour; idempotent."""
    if g.complete:
        return g
    rows = [list(row) for row in g.partner]
    for row in rows:
        for v, w in enumerate(row):
            if w == NO_EDGE:
                row[v] = v
    return EGraph(g.vertex_names, g.colors, rows)


def biggs_tree(colors, depth, cap=1_000_000):
    """Regularly coloured tree of the reduced words of length <= depth.

    Vertices are the reduced words over the colour set, the empty word being
    the root; each word w of length < depth has one e-edge to we per colour e.
    """
    colors = sorted(colors)
    if not colors:
        raise UnknownName("at least one colour required")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    words = [()]
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for ci in range(len(colors)):
                if w and w[-1] == ci:
                    continue
                nxt.append(w + (ci,))
        words.extend(nxt)
        frontier = nxt
        if len(words) > cap:
            raise ResourceCap(f"tree exceeds vertex cap {cap}")

    def name(w):
        return ".".join(colors[ci] for ci in w)

    edges = []
    for w in words:
        if len(w) < depth:
            for ci in range(len(colors)):
                if w and w[-1] == ci:
                    continue
                edges.append((colors[ci], name(w), name(w + (ci,))))
    return new_egraph([name(w) for w in words], colors, edges)


def hypercube(colors, cap=1_000_000):
    """Subsets of the colour set with an e-edge between S and S xor {e}."""
    colors = sorted(colors)
    if not colors:
        raise UnknownName("at least one colour required")
    k = len(colors)
    if 2**k > cap:
        raise ResourceCap(f"hypercube 2^{k} exceeds cap {cap}")
    subsets = []
    for mask in range(2**k):
        subsets.append(mask)
    subsets.sort(key=lambda m: (bin(m).count("1"), m))
    pos = {m: i for i, m in enumerate(subsets)}

    def name(mask):
        return "{" + ",".join(colors[i] for i in range(k) if mask >> i & 1) + "}"

    rows = [[NO_EDGE] * len(subsets) for _ in range(k)]
    for m in subsets:
        for ci in range(k):
            rows[ci][pos[m]] = pos[m ^ (1 << ci)]
    return EGraph([name(m) for m in subsets], colors, rows)


def walk_target(g, v, word):
    """Endpoint of the walk labelled by word from v; needs a complete graph."""
    if not g.complete:
        raise IncompleteGraph("walk_target needs a complete graph; complete it first")
    for ci in word:
        v = g.partner[ci][v]
    return v


def alpha_component(g, alpha, v):
    """Weak subgraph on the alpha-reachable vertices of v, with an embedding.

    Returns (component, embedding) where embedding[i] is the parent index of
    the component's vertex i.  The component keeps the full colour registry;
    colours outside alpha have no edges.
    """
    alpha = sorted(set(alpha))
    reach, _ = bfs_parents([g.partner[ci] for ci in alpha], g.n, [v])
    return induced_subgraph(g, reach, alpha), tuple(reach)


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


def disjoint_union(graphs):
    """Disjoint union over a shared colour registry; names carry provenance."""
    graphs = list(graphs)
    if not graphs:
        raise UnknownName("empty union")
    colors = graphs[0].colors
    for g in graphs[1:]:
        if g.colors != colors:
            raise UnknownName("disjoint_union needs a shared colour registry")
    names = []
    rows = [[] for _ in colors]
    for i, g in enumerate(graphs):
        off = len(names)
        names.extend(f"{i}:{nm}" for nm in g.vertex_names)
        for ci in range(len(colors)):
            rows[ci].extend(w if w == NO_EDGE else w + off for w in g.partner[ci])
    return EGraph(names, colors, rows)


def rename(g, rho):
    """Renaming along a colour permutation rho: the rho(e)-edges are the old e-edges."""
    missing = set(rho) - set(g.colors)
    if missing or sorted(rho.values()) != sorted(g.colors) or set(rho) != set(g.colors):
        raise UnknownName("rho must be a permutation of the colour registry")
    rows = [None] * len(g.colors)
    for e, target in rho.items():
        rows[g.color_index(target)] = g.partner[g.color_index(e)]
    return EGraph(g.vertex_names, g.colors, rows)


def is_symmetry(g, rho):
    """True when renaming by rho yields a graph isomorphic to g."""
    from .canon import canonical_form

    return canonical_form(g) == canonical_form(rename(g, rho))
