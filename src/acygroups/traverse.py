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


def close(start, rows, cap):
    """Breadth-first closure of the tuple state start: (action, parents).

    Generator c maps a state g to the tuple of rows[c][i][g[i]].  action[c]
    is the generator's table on state indices, with start at 0, and
    parents[k] is (earlier index, c) for every state but start.  Raises
    ResourceCap when a state beyond the first cap would be added.
    """
    index = {start: 0}
    states = [start]
    parents = [None]
    for k, g in enumerate(states):
        for c, row in enumerate(rows):
            h = tuple(map(getitem, row, g))
            if h not in index:
                if len(states) >= cap:
                    raise ResourceCap(f"element cap {cap} exceeded in closure")
                index[h] = len(states)
                states.append(h)
                parents.append((k, c))
    # the tables are built only after the closure succeeds, so a capped
    # closure never holds them
    action = [[index[tuple(map(getitem, row, g))] for g in states] for row in rows]
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
