"""Canonical labelling and isomorphism for edge-coloured matching graphs.

Because every colour class has degree <= 1, a breadth-first traversal from a
fixed start vertex visits a connected graph deterministically: each (vertex,
colour) pair has at most one continuation.  The canonical code of a component
is therefore the minimum traversal code over all start vertices, which is
cheap at the component sizes this library works with.
"""

from __future__ import annotations

from .egraph import NO_EDGE
from .traverse import Cosets


def connected_components(g, colors=None):
    """Vertex tuples of the connected components, each ascending, in
    least-vertex order.

    With ``colors`` (colour indices) only those colours' edges connect, so
    the result is the component partition of that reduct, singletons
    included.
    """
    rows = g.partner if colors is None else [g.partner[c] for c in sorted(set(colors))]
    table = Cosets(g.n, rows)
    ids = table.ids
    return tuple(table.block(x) for x in range(g.n) if ids[x] == -1)


def _traversal_code(g, start, members):
    """Deterministic BFS code from start; also returns the discovery order."""
    disc = {start: 0}
    order = [start]
    code = []
    pos = 0
    while pos < len(order):
        u = order[pos]
        pos += 1
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
    if len(order) != len(members):
        raise ValueError("members must be one connected component containing start")
    return tuple(code), order


def canonical_component(g, members):
    """(code, labelling) for one connected component; labelling maps old->canonical."""
    best = None
    best_order = None
    for start in members:
        code, order = _traversal_code(g, start, members)
        if best is None or code < best:
            best = code
            best_order = order
    labelling = {v: i for i, v in enumerate(best_order)}
    return (len(members),) + best, labelling


def canonical_form(g):
    """Hashable canonical form; equal iff the graphs are colour-isomorphic.

    Assumes the two graphs share a colour registry (colour names are part of
    the form).
    """
    comps = connected_components(g)
    codes = sorted(canonical_component(g, comp)[0] for comp in comps)
    return (g.colors, g.n, tuple(codes))


def find_isomorphism(g1, g2):
    """A colour-preserving isomorphism g1 -> g2 as a vertex map, or None."""
    if g1.colors != g2.colors or g1.n != g2.n:
        return None
    comps1 = connected_components(g1)
    comps2 = connected_components(g2)
    if sorted(map(len, comps1)) != sorted(map(len, comps2)):
        return None
    coded1 = sorted((canonical_component(g1, c) for c in comps1), key=lambda t: t[0])
    coded2 = sorted((canonical_component(g2, c) for c in comps2), key=lambda t: t[0])
    mapping = [None] * g1.n
    for (code1, lab1), (code2, lab2) in zip(coded1, coded2):
        if code1 != code2:
            return None
        inv2 = {i: v for v, i in lab2.items()}
        for v, i in lab1.items():
            mapping[v] = inv2[i]
    return mapping


def isomorphic(g1, g2):
    return find_isomorphism(g1, g2) is not None
