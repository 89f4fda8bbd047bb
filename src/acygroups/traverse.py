"""Traversals of an index set under successor rows.

Every structure in this library is an index set with one successor row per
generator: ``row[x]`` is the successor of ``x``, or ``NO_EDGE`` when there
is none.  Cosets, template-restricted cosets and groupoid cosets are blocks
of :func:`partition`; homomorphisms, compatibility and skeleton maps are
values forced along the rows by :func:`propagate`; generated groups are
closures under :func:`close`; witness words come from :func:`bfs_parents`.
Each walk visits the list it appends to, so all of them are breadth first.
"""

from __future__ import annotations

import time
from operator import getitem

from .errors import ResourceCap

NO_EDGE = -1


def partition(n, rows, sort=False):
    """(ids, members): the components of 0..n-1 under the rows.

    Blocks are numbered in order of their least index; each block lists its
    members in breadth-first order from that index, or ascending with sort.
    """
    ids = [-1] * n
    members = []
    for x0 in range(n):
        if ids[x0] != -1:
            continue
        cid = len(members)
        ids[x0] = cid
        block = [x0]
        for x in block:
            for row in rows:
                y = row[x]
                if y != NO_EDGE and ids[y] == -1:
                    ids[y] = cid
                    block.append(y)
        if sort:
            block.sort()
        members.append(tuple(block))
    return tuple(ids), tuple(members)


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
