"""Traversals of an index set under successor rows.

Every structure in this library is an index set with one successor row per
generator: ``row[x]`` is the successor of ``x``, or ``NO_EDGE`` when there
is none.  Cosets, groupoid cosets, connected components and the local
blocks of template tables are blocks of :class:`Cosets`, walked one at a
time as they are asked for; a block of a group's or a loaded document's
tables also checks that they generate every element, with no parent link.
Homomorphisms, colour symmetries, compatibility and skeleton maps are
values forced along the rows through per-colour target tables by
:func:`propagate`.  A group or groupoid derives its forest of parent links
by :func:`bfs_parents` when it is first read, and :func:`word` reads a
witness word off it.  Whole tables are read through index lists by
:func:`gather`, at C speed.
Groups are folds of :func:`close` of one table against the next, whose
coordinates carry a projection down the fold.  Each walk visits the list
it appends to, so all of them are breadth first.
Quotients by an identification relation (amalgams, skeleton extensions,
hypergraph covers) are the classes of a :class:`UnionFind`.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import itemgetter

from .errors import ResourceCap

NO_EDGE = -1


class Cosets:
    """The components of 0..n-1 under the rows, each walked when a point of
    it is first asked for.

    ids[x] is -1 until the component of x is walked, then its least index;
    members[least] lists that component in ascending order.  find(x) and
    block(x) walk when needed.  Read directly, ids[x] equals the id of a
    walked component exactly when x lies in it, since -1 is no id.
    """

    __slots__ = ("ids", "members", "rows")

    def __init__(self, n, rows):
        self.ids = [-1] * n
        self.members = {}
        self.rows = rows

    def find(self, x):
        """The id of x's component, its least index."""
        least = self.ids[x]
        return least if least != -1 else self._walk(x)

    def block(self, x):
        """x's component, ascending."""
        return self.members[self.find(x)]

    def _walk(self, x0):
        ids, rows = self.ids, self.rows
        ids[x0] = x0
        block = [x0]
        for x in block:
            for row in rows:
                y = row[x]
                if y != NO_EDGE and ids[y] == -1:
                    ids[y] = x0
                    block.append(y)
        block.sort()
        least = block[0]
        if least != x0:
            for x in block:
                ids[x] = least
        self.members[least] = tuple(block)
        return least


class UnionFind:
    """Union-find on 0..n-1.  A union keeps the smaller root and find links
    the path onto its root, so parent[x] <= x always."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self):
        """(class_of, classes): the classes numbered by least member, each
        listed ascending, and class_of[x] the number of x's class.  Every x
        links to a smaller index of its class, so one ascending scan serves."""
        class_of, classes = [], []
        for x, p in enumerate(self.parent):
            if p == x:
                class_of.append(len(classes))
                classes.append([x])
            else:
                class_of.append(class_of[p])
                classes[class_of[p]].append(x)
        return class_of, classes


def gather(seq, idx):
    """The tuple of seq[i] for i in idx, read by :func:`operator.itemgetter`
    with no Python call per index.  Raises IndexError for an index out of
    range."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return (seq[idx[0]],) if idx else ()


def propagate(n, rows, seeds, targets):
    """Values on 0..n-1 forced along the rows from seeds, or None.

    rows are (colour, row) pairs and seeds (index, value) pairs.  A value v
    at x forces targets[colour][v] at row[x]; the list holds None where no
    value was forced.  The result is None when an index is forced to two
    different values.
    """
    values = [None] * n
    queue = []
    for x, v in seeds:
        values[x] = v
        queue.append(x)
    steps = [(row, targets[c]) for c, row in rows]
    for x in queue:
        v = values[x]
        for row, target in steps:
            y = row[x]
            if y == NO_EDGE:
                continue
            w, u = target[v], values[y]
            if u is None:
                values[y] = w
                queue.append(y)
            elif u != w:
                return None
    return values


def close(a, b, start, cap, deadline=None):
    """Breadth-first closure of the state start = (x0, y0): (action, xs,
    ys).  Generator c maps (x, y) to (a[c][x], b[c][y]), keyed by the int
    x * len(b[0]) + y, and every row must be an involution.  action[c] is
    the generator's table on state indices, with start at 0, and state k
    is (xs[k], ys[k]).  States are numbered as found, colours in order, so
    :func:`bfs_parents` over action finds each state first from the state
    and colour that added it.  Computing j = c(k) also gives action[c][j] =
    k, so each generator edge is walked from its earlier end only; a state
    whose image is known adds no state, so states come out as a walk of
    every edge would give them.  The walk reads back the state numbers it
    stored, so the key's value, both table entries and the loop share one
    int per state.  Raises ResourceCap when a state beyond the first cap
    would be added, or when the monotonic clock, read once per 4,096
    states, has passed deadline.
    """
    (x0, y0), m = start, len(b[0])
    index = {x0 * m + y0: 0}
    get = index.get
    ks, xs, ys = [0], [x0], [y0]
    size = 64  # the tables grow by doubling and are cut to the states at the end
    action = [[-1] * size for _ in a]
    steps = list(zip(a, b, action))
    for k, x, y in zip(ks, xs, ys):
        if not k & 4095 and k and deadline is not None and time.monotonic() > deadline:
            raise ResourceCap(f"closure timed out after {k} elements")
        for row_a, row_b, table in steps:
            if table[k] != -1:
                continue
            u, v = row_a[x], row_b[y]
            h = u * m + v
            j = get(h)
            if j is None:
                j = index[h] = len(xs)
                if j >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                ks.append(j)
                xs.append(u)
                ys.append(v)
                if j == size:
                    for t in action:
                        t.extend(repeat(-1, size))
                    size *= 2
            table[k] = j
            table[j] = k
    for table in action:
        del table[len(xs):]
    return action, xs, ys


def bfs_parents(rows, n, roots):
    """Breadth-first forest from the roots along the rows: (reached, parents).

    reached lists the visited indices in order, roots first; parents[x] is
    (previous index, row number) for every reached non-root x, else None.
    """
    parents = [None] * n
    reached = list(dict.fromkeys(roots))
    seen = set(reached)
    for x in reached:
        for c, row in enumerate(rows):
            y = row[x]
            if y != NO_EDGE and y not in seen:
                seen.add(y)
                parents[y] = (x, c)
                reached.append(y)
    return reached, parents


def word(parents, x):
    """The row numbers on the path from a root of the forest parents (as
    :func:`bfs_parents` gives it) to x, root first."""
    out = []
    while parents[x] is not None:
        x, c = parents[x]
        out.append(c)
    out.reverse()
    return tuple(out)
