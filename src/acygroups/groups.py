"""Finite groups generated by involutive matchings of edge-coloured graphs.

An :class:`EGroup` is stored abstractly: elements are dense indices with the
identity at 0, and the whole structure is carried by one right-multiplication
table per generator colour.  The parent links behind witness words are
derived from those tables when a word is first asked for.  Groups produced
by :func:`sym` get their indices from a breadth-first closure with
generators in colour order, so numbering is reproducible across runs.
"""

from __future__ import annotations

import os
from itertools import accumulate
from math import lcm

from .canon import connected_components
from .egraph import EGraph, disjoint_union, hypercube, trivial_completion
from .errors import DegenerateGenerators, PreconditionFailed, ResourceCap, UnknownName
from .permgroup import group_order
from .traverse import Cosets, bfs_parents, close, gather, propagate, word


def _positive(text):
    """text as a positive integer, or None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value > 0 else None


# None when the variable is set to anything but a positive integer: the
# import never fails, and default_cap refuses it
_CAP_TEXT = os.environ.get("ACYGROUPS_ELEMENT_CAP", "1000000")
DEFAULT_ELEMENT_CAP = _positive(_CAP_TEXT)


def default_cap():
    """The default element cap, which ACYGROUPS_ELEMENT_CAP sets."""
    if DEFAULT_ELEMENT_CAP is None:
        raise PreconditionFailed(
            f"ACYGROUPS_ELEMENT_CAP must be a positive integer, got {_CAP_TEXT!r}")
    return DEFAULT_ELEMENT_CAP


class EGroup:
    """Finite group with involutive generators indexed by a colour registry."""

    __slots__ = (
        "colors",
        "gen_action",
        "order",
        "projection",
        "_parents",
        "_coset_cache",
        "_compat_cache",
    )

    def __init__(self, colors, gen_action, order):
        self.colors = tuple(colors)
        if len(set(self.colors)) != len(self.colors):
            raise UnknownName("duplicate colour names")
        self.gen_action = tuple(tuple(row) for row in gen_action)
        self.order = order
        self._parents = None  # derived by the parents property
        self.projection = None  # from sym_components: each element's point of a tables part 0
        self._coset_cache = {}
        self._compat_cache = {}  # template generator perms -> is_compatible verdict
        identity = tuple(range(self.order))
        not_involutive = None
        for name, row in zip(self.colors, self.gen_action):
            # row[row[x]] == x for every x hits every x, so the row is then a
            # permutation with no entry out of range; only a failure is sorted
            try:
                involutive = gather(row, row) == identity
            except IndexError:
                involutive = False
            if not involutive and tuple(sorted(row)) != identity:
                raise DegenerateGenerators("generator table is not a permutation", ("action", name))
            if row[0] == 0:
                raise DegenerateGenerators("generator equals the identity", ("action", name))
            if not involutive and not_involutive is None:
                not_involutive = name
        if not_involutive is not None:
            raise DegenerateGenerators(f"generator {not_involutive!r} not involutive",
                                       ("action", not_involutive))
        seen = set()
        for name, row in zip(self.colors, self.gen_action):
            if row[0] in seen:
                raise DegenerateGenerators("two generators coincide", ("action", name))
            seen.add(row[0])

    @property
    def parents(self):
        """Per element, (previous element, colour) on a shortest word from
        the identity, or None at the identity: the breadth-first forest of
        the tables, colours in order, walked when first read and kept."""
        if self._parents is None:
            self._parents = tuple(bfs_parents(self.gen_action, self.order, [0])[1])
        return self._parents

    def color_index(self, name):
        try:
            return self.colors.index(name)
        except ValueError:
            raise UnknownName(f"unknown colour {name!r}") from None

    def evaluate(self, word, start=0):
        """Left-to-right product of a generator word, applied after start."""
        g = start
        for c in word:
            g = self.gen_action[c][g]
        return g

    def word_of(self, g):
        """A shortest generator word evaluating to element g."""
        return word(self.parents, g)

    def inverse(self, g):
        # for involutive generators the reversed word inverts the element
        return self.evaluate(reversed(self.word_of(g)))

    def product(self, g, h):
        return self.evaluate(self.word_of(h), start=g)

    def subgroup_elements(self, alpha):
        """Sorted element indices of the subgroup generated by alpha."""
        return self.coset_table(alpha).block(0)

    def coset_table(self, alpha):
        """The alpha-cosets as a lazy :class:`~acygroups.traverse.Cosets`:
        each coset is walked when one of its elements is first asked for,
        and its id is its least element."""
        alpha = frozenset(alpha)
        table = self._coset_cache.get(alpha)
        if table is None:
            table = self._coset_cache[alpha] = Cosets(
                self.order, [self.gen_action[c] for c in sorted(alpha)])
        return table

    def coset(self, g, alpha):
        """Sorted elements of g * <alpha>, the alpha-component of g."""
        return self.coset_table(alpha).block(g)

    def __repr__(self):
        return f"EGroup(order {self.order}, colours {list(self.colors)})"


class OrderBound:
    """The order bound of a group acting diagonally on parts, taken one part
    at a time.

    The group maps onto each part's group, so the orders of the parts'
    groups, and their running lcm ``bound``, divide its order.  ``orders``
    holds the orders of the parts added so far, part 0 first.
    """

    __slots__ = ("cap", "bound", "orders")

    def __init__(self, cap):
        self.cap = cap
        self.bound = 1
        self.orders = []

    def add(self, kind, data, what=None):
        """The order of the next part's group; ResourceCap once the running
        lcm provably passes the cap, before any enumeration.

        A tables part acts regularly, so its order is its point count; a
        perms part is sized by Schreier-Sims, stopped just past the cap.
        The message names the part by its number and gives its order, or
        names it by what, without the order.
        """
        cap = self.cap
        n = len(data[0]) if data else 1  # no colours: the trivial group
        order = n if kind == "tables" or not data else group_order(data, n, limit=cap)
        # past the limit the search stops early and order is only a lower bound
        self.bound = order if order > cap else lcm(self.bound, order)
        if self.bound > cap:
            known = "at least " if order > cap else ""
            detail = (f"part {len(self.orders)}: {n} points, order {known}{order}"
                      if what is None else f"{what}: {n} points")
            raise ResourceCap(
                f"element cap {cap} exceeded: the group has order at least {self.bound} "
                f"({detail})"
            )
        self.orders.append(order)
        return order


def _check_together(parts, orders, cap):
    """ResourceCap when the group of all perms parts together, which the
    diagonal group also maps onto, proves with the parts' orders that the
    diagonal group has more than cap elements."""
    perms = [data for kind, data in parts if kind == "perms" and data]
    if len(perms) >= 2:
        offsets = list(accumulate((len(data[0]) for data in perms), initial=0))
        union = [
            tuple(off + x for data, off in zip(perms, offsets) for x in data[c])
            for c in range(len(perms[0]))
        ]
        together = OrderBound(cap)
        together.bound = lcm(*orders)
        together.add("perms", union, f"{len(perms)} components together")


def _essential_parts(tables):
    """(kept, quotients): the parts kept for the closure, ascending, and for
    each other part p, (q, images[x] = p's point over the point x of kept q).

    A part whose group is a generator-respecting quotient of a kept part's
    group adds no relation: its coordinate is a function of the kept one,
    so the diagonal walk visits the same elements in the same order without
    it.  Parts are taken by decreasing order (ties by index) and each is
    tested, by propagating the identity along the table, against the kept
    parts whose order it divides, smallest first.
    """
    orders = [len(table[0]) for table in tables]
    kept, quotients = [], {}
    for p in sorted(range(len(tables)), key=lambda i: (-orders[i], i)):
        images = tables[p]
        for n, q in sorted((orders[q], q) for q in kept if orders[q] % orders[p] == 0):
            values = propagate(n, list(enumerate(tables[q])), [(0, 0)], images)
            if values is not None:
                quotients[p] = (q, values)
                break
        else:
            kept.append(p)
    return sorted(kept), quotients


def sym_components(colors, parts, cap=None, deadline=None, orders=None):
    """Group generated by per-part involutions acting diagonally.

    Each part is either ("tables", per-colour index maps) for a part whose
    action is already known as right multiplication on an enumerated set, or
    ("perms", per-colour permutation tuples) for a raw point set.  Degeneracy
    of the combined generators must be checked by the caller.  A group that
    provably exceeds the cap is refused before it is enumerated: its parts
    are sized by :class:`OrderBound`, unless their orders are given, and
    then the group of all perms parts together, which it also maps onto.
    The closures raise ResourceCap once the monotonic clock passes deadline.
    Every part's rows must be involutions, as the closures require.
    Tables fold pairwise by :func:`close` from one point: a perms part's
    point actions (point i from i) until its order, then the kept parts,
    smallest order first.  Each intermediate is an image of the group, so
    its cap is the group's; the last walk numbers the group's own Cayley
    graph.  Part 0's coordinate carried down the fold is the projection.
    """
    cap = cap or default_cap()
    for i, (kind, data) in enumerate(parts):
        identity = tuple(range(len(data[0]))) if data else ()
        for c, row in enumerate(data):
            if gather(row, row) != identity:
                raise DegenerateGenerators(f"generator {colors[c]!r} not involutive on part {i}")
    if orders is None:
        sizing = OrderBound(cap)
        orders = [sizing.add(kind, data) for kind, data in parts]
    _check_together(parts, orders, cap)
    point = [(0,)] * len(colors)
    tables = []
    for (kind, data), order in zip(parts, orders):
        table, xs, i = point, [0], 0
        while kind == "perms" and len(xs) < order:
            table, xs, _ = close(table, data, (0, i), cap, deadline)
            i += 1
        tables.append(table if kind == "perms" else data)
    kept, quotients = _essential_parts(tables)
    carrier, images = (0, None) if 0 in kept else quotients[0]
    action, xs, projection = point, [0], None
    for p in sorted(kept, key=lambda i: (len(tables[i][0]), i)):
        action, xs, ys = close(action, tables[p], (0, 0), cap, deadline)
        if projection is not None:
            projection = gather(projection, xs)
        elif p == carrier and parts[0][0] == "tables":
            projection = ys if images is None else gather(images, ys)
    group = EGroup(colors, action, len(xs))
    group.projection = projection
    return group


def sym(h, attach_hypercube=True, cap=None):
    """Permutation group generated by the colour matchings of a graph.

    The graph is completed trivially; with ``attach_hypercube`` a disjoint
    hypercube over the colour registry is appended first, which forces the
    generators to be pairwise distinct non-identity involutions.
    """
    cap = cap or default_cap()
    if not h.colors:
        raise UnknownName("at least one colour required")
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


def cayley_graph(group):
    """The Cayley graph of group as an EGraph on its element indices."""
    names = [str(i) for i in range(group.order)]
    # the generator tables are involutions, hence already partner rows
    return EGraph(names, group.colors, group.gen_action)


def graph_generator_perms(h):
    """Per-colour involutions of the trivial completion of h, as tuples."""
    hbar = trivial_completion(h)
    return [tuple(row) for row in hbar.partner]


def is_compatible(group, h):
    """True when every word trivial in the group acts trivially on h.

    Decided through the closure of the combined action on h and the Cayley
    graph: the closure projects injectively onto the group (its size equals
    the group order) exactly under compatibility.  The projective part is the
    group itself, so the closure is walked keyed by group elements, forcing
    the image of one vertex of h at a time and failing on the first
    conflict; a word acts trivially exactly when it fixes every vertex.
    The verdict depends on h only through its generator perms, and is kept
    per group.
    """
    if tuple(h.colors) != group.colors:
        raise UnknownName("group and graph must share a colour registry")
    perms = tuple(graph_generator_perms(h))
    verdict = group._compat_cache.get(perms)
    if verdict is None:
        rows = list(enumerate(group.gen_action))
        verdict = group._compat_cache[perms] = all(
            propagate(group.order, rows, [(0, v)], perms) is not None for v in range(h.n))
    return verdict


def inherit_compatibility(ghat, group):
    """Give ghat the True compatibility verdicts of group, for a ghat that
    maps onto group by a generator-respecting homomorphism: a word trivial
    in ghat is then trivial in group, so it acts trivially on every
    template group is compatible with."""
    for perms, verdict in group._compat_cache.items():
        if verdict:
            ghat._compat_cache.setdefault(perms, True)


def homomorphism(ghat, group):
    """The generator-respecting homomorphism ghat -> group, or None.

    It exists iff every word trivial in ghat is trivial in the target; the
    map is then unique and is built by propagating images along the Cayley
    graph of ghat through the target's tables.
    """
    if ghat.colors != group.colors:
        raise UnknownName("groups must share a colour registry")
    rows = list(enumerate(ghat.gen_action))
    images = propagate(ghat.order, rows, [(0, 0)], group.gen_action)
    return None if images is None else tuple(images)


def is_group_symmetry(group, rho):
    """The automorphism that renames generators along rho, as the list of
    each element's image, or None when renaming gives no isomorphic group.

    Decided by colour-aware Cayley-graph isomorphism fixing the identity:
    the candidate map 1 -> 1 with f(g * e) = f(g) * rho(e) is propagated
    through the renamed tables and must be conflict-free.
    """
    if set(rho) != set(group.colors) or sorted(rho.values()) != sorted(group.colors):
        raise UnknownName("rho must permute the colour registry")
    renamed = [group.gen_action[group.color_index(rho[e])] for e in group.colors]
    rows = list(enumerate(group.gen_action))
    return propagate(group.order, rows, [(0, 0)], renamed)
