"""Orders of permutation groups by the Schreier-Sims algorithm.

A permutation of n points is a tuple p with p[i] the image of i, and
products act on the right: (p * q)[i] = q[p[i]].  The generated group is
held as a stabiliser chain.  Level i has a base point, its own generators
and a transversal of the base point's orbit under them (each orbit point x
with an element u mapping the base point to x, and u's inverse).  The
generators of level i + 1 are Schreier generators of level i, so they fix
the first i + 1 base points, and the group order is the product of the
orbit lengths.  This is Sims' deterministic algorithm (Sims 1970) in the
incremental form of Knuth ("Efficient representation of perm groups",
1991); see Seress, *Permutation Group Algorithms* (2003), ch. 4.
"""

from __future__ import annotations

from .traverse import gather


def _mul(p, q):
    """p followed by q."""
    return gather(q, p)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class _Level:
    __slots__ = ("point", "gens", "orbit")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []
        self.orbit = {point: (identity, identity)}


def _is_member(levels, i, g, identity):
    """True when g sifts to the identity through levels i, i + 1, ..."""
    for level in levels[i:]:
        if g == identity:
            return True
        known = level.orbit.get(g[level.point])
        if known is None:
            return False
        g = _mul(g, known[1])
    return g == identity


def group_order(gens, n, limit=None):
    """Order of the group generated by gens, permutation tuples on n points.

    The identity, repeated generators and an empty list are all allowed.
    With a limit, the search stops as soon as the product of the orbit
    lengths found so far exceeds it and returns that product: each partial
    orbit lies in the orbit of the true stabiliser chain, so the product is
    a lower bound on the order.
    """
    identity = tuple(range(n))
    levels = []
    order = 1
    # The recursive algorithm has two steps: add(i, g) makes g a generator
    # of level i unless it is already a member, and file(i, h) puts h into
    # level i's transversal, or passes h * u^-1 for the transversal element
    # u of the same orbit point to add(i + 1, .).  A stack of pending steps,
    # pushed in reverse, runs them in the same depth-first order without
    # Python recursion: (True, i, g) is add, (False, i, h) is file.
    stack = [(True, 0, g) for g in reversed(gens)]
    while stack:
        add, i, g = stack.pop()
        if add:
            if _is_member(levels, i, g, identity):
                continue
            if i == len(levels):
                moved = next(x for x in range(n) if g[x] != x)
                levels.append(_Level(moved, identity))
            level = levels[i]
            level.gens.append(g)
            # every known orbit point meets the new generator
            stack.extend((False, i, _mul(u, g)) for u, _ in reversed(level.orbit.values()))
            continue
        level = levels[i]
        x = g[level.point]
        known = level.orbit.get(x)
        if known is None:
            order = order // len(level.orbit) * (len(level.orbit) + 1)
            if limit is not None and order > limit:
                return order
            level.orbit[x] = (g, _inverse(g))
            stack.extend((False, i, _mul(g, s)) for s in reversed(level.gens))
        else:
            stack.append((True, i + 1, _mul(g, known[1])))
    return order
