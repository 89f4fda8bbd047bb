"""Canonical codes and isomorphism types of edge-coloured matching graphs.

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


def _traversal_code(g, start, members, bound=None):
    """Deterministic BFS code from start, as a list.

    Given ``bound``, the code of another start in the same component, it
    returns None as soon as its code cannot be less.  Codes of one component
    have the same length, so the first entry that differs decides, and an
    equal code leaves the earlier start in place.
    """
    disc = {start: 0}
    order = [start]
    code = []
    append, rows = code.append, g.partner
    tight = bound is not None  # the code so far equals bound's prefix
    for u in order:
        k = len(code)
        for row in rows:
            w = row[u]
            if w == NO_EDGE:
                append(-2)
            elif w == u:
                append(-1)
            else:
                if w not in disc:
                    disc[w] = len(order)
                    order.append(w)
                append(disc[w])
        if tight:
            head, ref = code[k:], bound[k:len(code)]
            if head != ref:
                if head > ref:
                    return None
                tight = False
    if tight:
        return None
    if len(order) != len(members):
        raise ValueError("members must be one connected component containing start")
    return code


def canonical_component(g, members):
    """The code of one connected component: its size and the least
    traversal code over all starts, a start dropped at its first entry
    above the least code so far."""
    starts = iter(members)
    best = _traversal_code(g, next(starts), members)
    for start in starts:
        found = _traversal_code(g, start, members, best)
        if found is not None:
            best = found
    return (len(members), *best)


def canonical_form(g):
    """Hashable canonical form; equal iff the graphs are colour-isomorphic.

    Assumes the two graphs share a colour registry (colour names are part of
    the form).
    """
    comps = connected_components(g)
    codes = sorted(canonical_component(g, comp) for comp in comps)
    return (g.colors, g.n, tuple(codes))

