"""Finite groups generated by involutive matchings of edge-coloured graphs.

An :class:`EGroup` is stored abstractly: elements are dense indices with the
identity at 0, and the whole structure is carried by one right-multiplication
table per generator colour plus a parent link per element (for witness
words).  Groups produced by :func:`sym` get their indices from a
breadth-first closure with generators in colour order, so numbering is
reproducible across runs.
"""

from __future__ import annotations

import os

from .canon import connected_components
from .egraph import NO_EDGE, EGraph, disjoint_union, hypercube, trivial_completion
from .errors import DegenerateGenerators, ResourceCap, UnknownName

DEFAULT_ELEMENT_CAP = int(os.environ.get("ACYGROUPS_ELEMENT_CAP", 1_000_000))


class EGroup:
    """Finite group with involutive generators indexed by a colour registry."""

    __slots__ = (
        "colors",
        "gen_action",
        "parents",
        "embedding",
        "parent_alpha",
        "_sub_cache",
        "_coset_cache",
        "_inv_cache",
    )

    def __init__(self, colors, gen_action, parents, embedding=None, parent_alpha=None):
        self.colors = tuple(colors)
        self.gen_action = tuple(tuple(row) for row in gen_action)
        self.parents = tuple(parents)  # per element: (previous element, colour) or None
        self.embedding = embedding  # subgroup -> parent element indices, if any
        self.parent_alpha = parent_alpha
        self._sub_cache = {}
        self._coset_cache = {}
        self._inv_cache = None
        n = self.order
        for row in self.gen_action:
            if len(row) != n or sorted(row) != list(range(n)):
                raise DegenerateGenerators("generator table is not a permutation")
            if row[0] == 0:
                raise DegenerateGenerators("generator equals the identity")
        for c, row in enumerate(self.gen_action):
            for g in range(n):
                if row[row[g]] != g:
                    raise DegenerateGenerators(f"generator {self.colors[c]!r} not involutive")
        seen = set()
        for row in self.gen_action:
            if row[0] in seen:
                raise DegenerateGenerators("two generators coincide")
            seen.add(row[0])

    @property
    def order(self):
        return len(self.parents)

    def color_index(self, name):
        try:
            return self.colors.index(name)
        except ValueError:
            raise UnknownName(f"unknown colour {name!r}") from None

    def rmul(self, g, c):
        """g * e for the generator of colour index c."""
        return self.gen_action[c][g]

    def evaluate(self, word, start=0):
        """Left-to-right product of a generator word, applied after start."""
        g = start
        for c in word:
            g = self.gen_action[c][g]
        return g

    def word_of(self, g):
        """A shortest generator word evaluating to element g."""
        out = []
        while self.parents[g] is not None:
            prev, c = self.parents[g]
            out.append(c)
            g = prev
        out.reverse()
        return tuple(out)

    def inverse(self, g):
        # for involutive generators the reversed word inverts the element
        return self.evaluate(reversed(self.word_of(g)))

    def product(self, g, h):
        return self.evaluate(self.word_of(h), start=g)

    def subgroup_elements(self, alpha):
        """Sorted element indices of the subgroup generated by alpha."""
        alpha = frozenset(alpha)
        cached = self._sub_cache.get(alpha)
        if cached is None:
            cached = self.coset(0, alpha)
            self._sub_cache[alpha] = cached
        return cached

    def coset_table(self, alpha):
        """(ids, members): partition of all elements into alpha-cosets."""
        alpha = frozenset(alpha)
        cached = self._coset_cache.get(alpha)
        if cached is not None:
            return cached
        cols = sorted(alpha)
        ids = [-1] * self.order
        members = []
        for g0 in range(self.order):
            if ids[g0] != -1:
                continue
            cid = len(members)
            block = [g0]
            ids[g0] = cid
            pos = 0
            while pos < len(block):
                g = block[pos]
                pos += 1
                for c in cols:
                    h = self.gen_action[c][g]
                    if ids[h] == -1:
                        ids[h] = cid
                        block.append(h)
            members.append(tuple(sorted(block)))
        out = (tuple(ids), tuple(members))
        self._coset_cache[alpha] = out
        return out

    def coset(self, g, alpha):
        """Sorted elements of g * <alpha>, the alpha-component of g."""
        ids, members = self.coset_table(frozenset(alpha))
        return members[ids[g]]

    def same_coset(self, g, h, alpha):
        ids, _ = self.coset_table(frozenset(alpha))
        return ids[g] == ids[h]

    def __repr__(self):
        return f"EGroup(order {self.order}, colours {list(self.colors)})"


def _close_perm_generators(gens, cap):
    """BFS closure of permutation tuples; returns (elements, action, parents)."""
    n = len(gens[0])
    ident = tuple(range(n))
    elems = [ident]
    index = {ident: 0}
    parents = [None]
    pos = 0
    while pos < len(elems):
        g = elems[pos]
        for c, p in enumerate(gens):
            h = tuple(p[x] for x in g)  # right action: apply p after g
            if h not in index:
                if len(elems) >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                index[h] = len(elems)
                elems.append(h)
                parents.append((pos, c))
        pos += 1
    action = [[index[tuple(p[x] for x in g)] for g in elems] for p in gens]
    return elems, action, parents


def _close_indexed_components(parts, n_colors, cap):
    """Closure of tuple-of-indices states; parts give per-part action tables.

    Each part is a list of per-colour index maps with identity at 0.  The
    result is the subdirect closure of the diagonal generators.
    """
    start = (0,) * len(parts)
    elems = [start]
    index = {start: 0}
    parents = [None]
    pos = 0
    while pos < len(elems):
        g = elems[pos]
        for c in range(n_colors):
            h = tuple(part[c][x] for part, x in zip(parts, g))
            if h not in index:
                if len(elems) >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                index[h] = len(elems)
                elems.append(h)
                parents.append((pos, c))
        pos += 1
    action = []
    for c in range(n_colors):
        action.append(
            [index[tuple(part[c][x] for part, x in zip(parts, g))] for g in elems]
        )
    return elems, action, parents


def sym_components(colors, parts, cap=None):
    """Group generated by per-part involutions acting diagonally.

    Each part is either ("tables", per-colour index maps) for a part whose
    action is already known as right multiplication on an enumerated set, or
    ("perms", per-colour permutation tuples) for a raw point set.  Degeneracy
    of the combined generators must be checked by the caller.
    """
    cap = cap or DEFAULT_ELEMENT_CAP
    tables = []
    for kind, data in parts:
        if kind == "tables":
            tables.append(data)
        else:
            _, action, _ = _close_perm_generators(data, cap)
            tables.append(action)
    _, action, parents = _close_indexed_components(tables, len(colors), cap)
    return EGroup(colors, action, parents)


def sym(h, attach_hypercube=True, cap=None):
    """Permutation group generated by the colour matchings of a graph.

    The graph is completed trivially; with ``attach_hypercube`` a disjoint
    hypercube over the colour registry is appended first, which forces the
    generators to be pairwise distinct non-identity involutions.
    """
    cap = cap or DEFAULT_ELEMENT_CAP
    if attach_hypercube:
        h = disjoint_union([h, hypercube(h.colors)])
    hbar = trivial_completion(h)
    n_colors = len(hbar.colors)
    comps = connected_components(hbar)
    part_gens = []
    for comp in comps:
        local = {v: i for i, v in enumerate(comp)}
        gens = [tuple(local[hbar.partner[c][v]] for v in comp) for c in range(n_colors)]
        part_gens.append(gens)
    idents = [tuple(range(len(comp))) for comp in comps]
    for c in range(n_colors):
        if all(gens[c] == ident for gens, ident in zip(part_gens, idents)):
            raise DegenerateGenerators(f"generator {hbar.colors[c]!r} acts as the identity")
        for c2 in range(c + 1, n_colors):
            if all(gens[c] == gens[c2] for gens in part_gens):
                raise DegenerateGenerators(
                    f"generators {hbar.colors[c]!r} and {hbar.colors[c2]!r} coincide"
                )
    parts = [("perms", gens) for gens in part_gens]
    return sym_components(hbar.colors, parts, cap=cap)


class CayleyGraph:
    """Cayley graph of an EGroup; a strict complete graph on element indices."""

    __slots__ = ("graph", "group")

    def __init__(self, graph, group):
        self.graph = graph
        self.group = group

    def __repr__(self):
        return f"CayleyGraph(order {self.group.order})"


def cayley_graph(group):
    names = [str(i) for i in range(group.order)]
    # the generator tables are involutions, hence already partner rows
    g = EGraph(names, group.colors, group.gen_action)
    return CayleyGraph(g, group)


def coset_graph(group, alpha, anchor=0):
    """Weak subgraph of the Cayley graph on the alpha-coset of anchor.

    Returns (graph, elements): the graph keeps the full colour registry and
    elements[i] is the group element at the graph's vertex i.
    """
    alpha = sorted(set(alpha))
    elements = group.coset(anchor, alpha)
    local = {g: i for i, g in enumerate(elements)}
    rows = [[NO_EDGE] * len(elements) for _ in group.colors]
    for c in alpha:
        for i, g in enumerate(elements):
            rows[c][i] = local[group.gen_action[c][g]]
    graph = EGraph([str(g) for g in elements], group.colors, rows)
    return graph, elements


def evaluate_word(group, word):
    """Product of a word given by colour names or indices."""
    idxs = [c if isinstance(c, int) else group.color_index(c) for c in word]
    return group.evaluate(idxs)


def subgroup(group, alpha):
    """Generated subgroup as its own EGroup with an embedding into the parent."""
    alpha = sorted(set(alpha))
    elements = group.subgroup_elements(alpha)  # sorted, so identity is index 0
    local = {g: i for i, g in enumerate(elements)}
    action = [[local[group.gen_action[c][g]] for g in elements] for c in alpha]
    parents = [None] * len(elements)
    queue = [0]
    seen = {0}
    pos = 0
    while pos < len(queue):
        g = queue[pos]
        pos += 1
        for ci in range(len(alpha)):
            h = action[ci][g]
            if h not in seen:
                seen.add(h)
                parents[h] = (g, ci)
                queue.append(h)
    colors = tuple(group.colors[c] for c in alpha)
    return EGroup(
        colors,
        action,
        parents,
        embedding=tuple(elements),
        parent_alpha=frozenset(alpha),
    )


def graph_generator_perms(h):
    """Per-colour involutions of the trivial completion of h, as tuples."""
    hbar = trivial_completion(h)
    return [tuple(row) for row in hbar.partner]


def is_compatible(group, h):
    """True when every word trivial in the group acts trivially on h.

    Decided through the closure of the combined action on h and the Cayley
    graph: the closure projects injectively onto the group (its size equals
    the group order) exactly under compatibility.  The projective part is the
    group itself, so the closure is walked keyed by group elements, recording
    the induced action on h and failing on the first conflict.
    """
    if tuple(h.colors) != group.colors:
        raise UnknownName("group and graph must share a colour registry")
    perms = graph_generator_perms(h)
    ident = tuple(range(h.n))
    actions = [None] * group.order
    actions[0] = ident
    queue = [0]
    pos = 0
    while pos < len(queue):
        g = queue[pos]
        pos += 1
        base = actions[g]
        for c, p in enumerate(perms):
            tgt = group.gen_action[c][g]
            val = tuple(p[x] for x in base)
            if actions[tgt] is None:
                actions[tgt] = val
                queue.append(tgt)
            elif actions[tgt] != val:
                return False
    return True


def homomorphism(ghat, group):
    """The generator-respecting homomorphism ghat -> group, or None.

    It exists iff every word trivial in ghat is trivial in the target; the
    map is then unique and is built by propagating images along the Cayley
    graph of ghat.
    """
    if ghat.colors != group.colors:
        raise UnknownName("groups must share a colour registry")
    images = [-1] * ghat.order
    images[0] = 0
    queue = [0]
    pos = 0
    while pos < len(queue):
        g = queue[pos]
        pos += 1
        for c in range(len(ghat.colors)):
            tgt = ghat.gen_action[c][g]
            val = group.gen_action[c][images[g]]
            if images[tgt] == -1:
                images[tgt] = val
                queue.append(tgt)
            elif images[tgt] != val:
                return None
    return tuple(images)


def is_group_symmetry(group, rho):
    """True when renaming generators along rho gives an isomorphic group.

    Decided by colour-aware Cayley-graph isomorphism fixing the identity:
    the candidate map 1 -> 1 with f(g * e) = f(g) * rho(e) is propagated and
    must be conflict-free.
    """
    if set(rho) != set(group.colors) or sorted(rho.values()) != sorted(group.colors):
        raise UnknownName("rho must permute the colour registry")
    rho_idx = {group.color_index(e): group.color_index(t) for e, t in rho.items()}
    images = [-1] * group.order
    images[0] = 0
    queue = [0]
    pos = 0
    while pos < len(queue):
        g = queue[pos]
        pos += 1
        for c in range(len(group.colors)):
            tgt = group.gen_action[c][g]
            val = group.gen_action[rho_idx[c]][images[g]]
            if images[tgt] == -1:
                images[tgt] = val
                queue.append(tgt)
            elif images[tgt] != val:
                return False
    return True


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
