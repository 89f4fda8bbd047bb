"""Traversals of an index set under successor rows.

Every structure in this library is an index set with one successor row per
generator: ``row[x]`` is the successor of ``x``, or ``NO_EDGE`` when there
is none.  Cosets, groupoid cosets, connected components and the local
blocks of template tables are blocks of :class:`Cosets`, walked one at a
time as they are asked for.
Homomorphisms, compatibility and skeleton maps are values forced along the
rows by :func:`propagate`; generated groups are closures under
:func:`close`; witness words come from :func:`bfs_parents`.  Each walk
visits the list it appends to, so all of them are breadth first.
"""

from __future__ import annotations

import time
from operator import getitem

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


def propagate(n, rows, seeds, step):
    """Values on 0..n-1 forced along the rows from seeds, or None.

    rows are (colour, row) pairs and seeds (index, value) pairs.  A value v
    at x forces step(colour, v) at row[x]; the list holds None where no
    value was forced.  The result is None when step returns None or when an
    index is forced to two different values.
    """
    values = [None] * n
    queue = []
    for x, v in seeds:
        values[x] = v
        queue.append(x)
    for x in queue:
        v = values[x]
        for c, row in rows:
            y = row[x]
            if y == NO_EDGE:
                continue
            w = step(c, v)
            if w is None:
                return None
            if values[y] is None:
                values[y] = w
                queue.append(y)
            elif values[y] != w:
                return None
    return values


def close(start, rows, cap, deadline=None):
    """Breadth-first closure of the tuple state start: (action, parents).

    Generator c maps a state g to the tuple of rows[c][i][g[i]].  action[c]
    is the generator's table on state indices, with start at 0, and
    parents[k] is (earlier index, c) for every state but start.  Raises
    ResourceCap when a state beyond the first cap would be added, or when
    the monotonic clock, read once per 4,096 states, has passed deadline.
    """
    index = {start: 0}
    get = index.get
    states = [start]
    parents = [None]
    action = [[] for _ in rows]
    steps = list(enumerate(zip(rows, [table.append for table in action])))
    for k, g in enumerate(states):
        if not k & 4095 and k and deadline is not None and time.monotonic() > deadline:
            raise ResourceCap(f"closure timed out after {k} elements")
        for c, (row, put) in steps:
            h = tuple(map(getitem, row, g))
            j = get(h)
            if j is None:
                j = index[h] = len(states)
                if j >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                states.append(h)
                parents.append((k, c))
            put(j)
    return action, parents


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
