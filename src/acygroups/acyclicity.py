"""Coset cycles, graded acyclicity, girth.

A coset cycle of length n is a cyclic sequence of pointed cosets
(g_i * G[alpha_i], g_i) such that consecutive cosets share their link element
(connectivity) and the two intersection cosets pivoting at each point are
disjoint (separation).  A group is N-acyclic when no such cycle of length
2..N exists.  The searcher anchors g_0 at the identity, which loses no
generality because left translation preserves both conditions.

One search kernel, :func:`search_coset_cycle`, serves groups, reachability
templates and groupoids alike; each searcher feeds it its own component
tables, and every separation test reads component ids (:func:`met_by_ids`).
One validator, :func:`validate_cycle`, rechecks every result from the same
tables read through ``find`` and ``block`` alone, sharing no code with the
kernel.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, islice, permutations

from .egraph import NO_EDGE
from .errors import ResourceCap
from .groups import EGroup, is_group_symmetry
from .traverse import gather

DEFAULT_SEARCH_BUDGET = 2_000_000


class GammaFilter:
    """The generator subsets of fewer than k colours, which grade
    acyclicity; proper subsets only, unless the full set is allowed."""

    def __init__(self, k):
        self.k = k

    def subsets(self, n_colors, allow_full=False):
        return [a for a in all_subsets(n_colors, self.k - 1) if allow_full or len(a) < n_colors]


def all_subsets(n_colors, max_size=None):
    """The subsets of at most max_size colours, by size and then by sorted
    members."""
    max_size = n_colors if max_size is None else min(max_size, n_colors)
    return [frozenset(a) for size in range(max_size + 1) for a in combinations(range(n_colors), size)]


def proper_subsets(n_colors):
    return all_subsets(n_colors, max_size=max(n_colors - 1, 0))


def girth(g):
    """Length of the shortest cycle of a graph, or of a group's Cayley
    graph, or math.inf.

    A Cayley graph is vertex transitive, so one breadth-first sweep from the
    identity over the group's generator tables realises its girth.  A graph,
    such as a graph cover, is swept from every vertex.  A sweep stops at the
    first depth d with 2d >= the best length found, since no edge leaving
    that depth closes a shorter cycle.
    """
    if isinstance(g, EGroup):
        n, rows, sources = g.order, g.gen_action, (0,)
    else:
        n, rows, sources = g.n, g.partner, range(g.n)
    best = math.inf
    for source in sources:
        dist = [-1] * n
        par = [-1] * n
        dist[source] = 0
        queue = [source]
        for u in queue:
            if 2 * dist[u] >= best:
                break
            for row in rows:
                w = row[u]
                if w == NO_EDGE:
                    continue
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    queue.append(w)
                elif w != par[u] and u != par[w]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def validate_cycle(table, entries):
    """Independent recheck of connectivity and separation of (alpha, point)
    entries in cyclic order, from the raw components of ``table(alpha)``.

    Consecutive points must share their ``find`` id in the table of the
    first's subset, and the components pivoting at each point, of its meets
    with the neighbouring subsets, must be disjoint.
    """
    n = len(entries)
    if n < 2:
        return False
    for i, (a_i, p_i) in enumerate(entries):
        a_prev = entries[i - 1][0]
        a_next, p_next = entries[(i + 1) % n]
        t = table(a_i)
        if t.find(p_i) != t.find(p_next):
            return False
        left = table(a_i & a_prev).block(p_i)
        right = table(a_i & a_next).block(p_next)
        if not set(left).isdisjoint(right):
            return False
    return True


def validate_coset_cycle(group, entries):
    """Recheck of (alpha, element) entries over the group's cosets."""
    return validate_cycle(group.coset_table, entries)


def canonical_cycle(group, entries):
    """Rotation/reflection canonical form, re-anchored at the identity."""
    n = len(entries)
    reversed_entries = [(entries[(-i - 1) % n][0], entries[(-i) % n][1]) for i in range(n)]
    best = None
    for seq in (list(entries), reversed_entries):
        for r in range(n):
            rot = seq[r:] + seq[:r]
            t = group.inverse(rot[0][1])
            ent = tuple((a, group.product(t, g)) for a, g in rot)
            key = tuple((tuple(sorted(a)), g) for a, g in ent)
            if best is None or key < best[0]:
                best = (key, ent)
    return best[1]


def find_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, deadline=None):
    """Shortest coset cycle of length <= n_max with subsets from the filter.

    Returns the canonical tuple of (alpha, g) entries, or None.  g_0 is
    fixed at the identity.  The search skips the branches that a colour
    symmetry of the group maps to earlier ones.  It looks for the
    symmetries once it has spent |G| * k * (k! - 1) nodes on k colours, so
    a search that ends before spends nothing on them; the threshold fixes
    which searches prune, and so the node counts.
    """
    n_colors = len(group.colors)
    if gamma is None:
        alphas = proper_subsets(n_colors)
    else:
        alphas = gamma.subsets(n_colors, allow_full=allow_full)
    after = group.order * n_colors * (math.factorial(n_colors) - 1)
    found = search_coset_cycle(
        alphas, (0,), n_max, group.coset_table, budget, deadline,
        symmetries=(after, lambda: _colour_symmetries(group, alphas)),
    )
    if found is None:
        return None
    cyc = canonical_cycle(group, found)
    if not validate_coset_cycle(group, cyc):
        raise RuntimeError("coset-cycle search returned a cycle its validator rejects")
    return cyc


def _colour_symmetries(group, alphas):
    """The colour symmetries of group but the identity, as (element map,
    index map on alphas) pairs, in the order of the renamings.

    The family alphas is size-bounded, so every renaming rho of the
    generators maps it onto itself.  rho is kept when it extends to an
    automorphism, which then maps each alpha-coset of g onto the
    rho(alpha)-coset of its image.  The extension is unique, since it fixes
    the identity, and if f1 extends rho1 and f2 extends rho2 then f1 o f2
    extends rho1 o rho2.  So only a renaming outside the group generated
    by those kept so far is forced by
    :func:`~acygroups.groups.is_group_symmetry`; the group's maps are
    composed by gathers as each forced one joins it.  When a forced rho
    has no extension, neither has sigma o rho o tau for any sigma and tau
    in that group H, and those renamings are not forced; the double
    cosets H rho H are made again each time H grows, so a renaming that a
    symmetry found later rules out is not forced either.
    """
    index = {a: i for i, a in enumerate(alphas)}
    colors = group.colors
    identity = tuple(range(len(colors)))
    known = {identity: tuple(range(group.order))}  # the group H generated so far
    gens = []
    out = []
    failures = []  # the forced renamings with no extension
    failed = set()  # the union of their double cosets H f H
    for rho in islice(permutations(identity), 1, None):  # the identity comes first
        perm = known.get(rho)
        if perm is None:
            if rho in failed:
                continue
            perm = is_group_symmetry(group, dict(zip(colors, gather(colors, rho))))
            if perm is None:
                failures.append(rho)
                failed |= _double_coset(known, rho)
                continue
            perm = tuple(perm)
            gens.append((rho, perm))
            elements = list(known.items())
            for sigma, f in elements:
                for r, h in gens:
                    product = gather(sigma, r)
                    if product not in known:
                        known[product] = gather(f, h)
                        elements.append((product, known[product]))
            failed = set().union(*(_double_coset(known, f) for f in failures))
        out.append((perm, [index[frozenset(rho[c] for c in a)] for a in alphas]))
    return out


def _double_coset(h, f):
    """The renamings sigma o f o tau for sigma and tau in the renaming
    group h, gathered one right coset (sigma o f) o h at a time; a right
    coset met again is skipped, since the set is a union of them."""
    out = set()
    for sigma in h:
        left = gather(sigma, f)
        if left not in out:
            out.update(gather(left, tau) for tau in h)
    return out


def met_by_ids(block, tb):
    """The ids of the components of table tb that share a point with
    block, each walked if it was not."""
    met = set(map(tb.ids.__getitem__, block))
    if -1 in met:
        met = set(map(tb.find, block))
    return met


def search_coset_cycle(alphas, anchors, n_max, table, budget=None, deadline=None,
                       symmetries=None):
    """The depth-first coset-cycle search behind every searcher.

    Points are group elements, packed (site, element) pairs of a template
    product, or groupoid elements.  ``table(alpha)`` is the partition of
    the points into alpha-components, read through three members, as a
    :class:`~acygroups.traverse.Cosets` or a template's
    :class:`~acygroups.constraint.TranslatedCosets` serves them:
    ``find(x)`` is the id of x's component, ``block(x)`` that component
    ascending, and ``ids[x]`` the id, or -1 while the component of x is not
    walked.  :func:`met_by_ids` gives the ids of the components of a table
    tb that share a point with a component ``block``.  The component of q
    in tb is then disjoint from block exactly when its id is not in that
    set, so each prefix node builds the set once per next subset and tests
    every candidate q by one membership.  The two components of each test
    pivot at one entry and lie in that entry's component, where sharing a
    pair of a template product is sharing an element (the lemma of
    :func:`~acygroups.constraint.validate_i_coset_cycle`).

    The per-candidate reads are bare ``ids[q]``, each an equality with the
    id of a walked component or a membership in a ``met_by_ids`` set, so a
    -1 never matches.  That holds because the kernel walks each anchor's
    component in every table once per search and p's component, in its
    table and in the meet table, once per prefix node, and ``met_by_ids``
    every component its block meets before it returns.

    Lengths 2..n_max are tried in turn, up to the first that counts no
    node: the candidate first entries, each a node, are the same at every
    length, so no longer length has any.  Within a length, start subsets
    come in the order of ``alphas`` with the anchor points inner; every
    separation condition determined on the prefix prunes at once, and the
    closing entry is checked in the loop of the entry before it.

    Rotating and left-translating a coset cycle keeps it one, and moves any
    entry to the front at an anchor point, so only cycles whose first subset
    comes first in ``alphas`` are walked: after the start ``alphas[i]``,
    entries take subsets from ``alphas[i:]`` only.  The first cycle found
    is the one the unrestricted walk finds first, since any rotation of a
    cycle with an earlier subset would have been found in an earlier round.

    ``symmetries``, when given, is a pair (after, find): once ``after``
    nodes are spent, ``find()`` gives symmetries of the structure as
    (point map, index map on alphas) pairs, each fixing every anchor and
    mapping cycles to cycles.  From then on a start subset that one of them
    maps to an earlier one is skipped, and so is a candidate (q, j) when
    one that fixes every entry of the prefix maps it to (q', j') < (q, j).
    Its image cycles lie in an earlier sibling, or take an earlier subset
    and so come from an earlier start, and the walk would have returned
    there; so the first cycle found stays the same, and only empty
    branches are skipped.

    Closing levels, the last entry of a cycle, hold most of a search's
    nodes, and a closing entry must lie in p_0's component of its subset.
    When no symmetry fixes the prefix, the next subsets are those from the
    start on, and their components of p_0 are one set per (start, p_0).
    When no candidate lies in it, none can close: the level adds its nodes
    at once and builds no ``met_by_ids`` set.  A level's candidates are p's
    component in the table of its subset less, past the first entry, p's
    component in the meet table with the entry before; separation at the
    level reads that meet component alone, and each child's configuration
    is fixed by its entry.  So the node count of a level's whole subtree
    depends only on the entries left to add, the start, p_0 and those two
    components, as long as no closing level under it has a candidate in
    the anchor set and no symmetry fixes any of its prefixes.  Each such
    configuration is decided once per walk, at every depth.  A level
    decided before adds its nodes at once when they stay within the budget
    and below the node count at which the symmetries are found, reading
    the clock at each multiple of 4096 it passes, so the node counts, the
    errors, the clock reads and the first cycle are those of the walk one
    by one.

    Returns that cycle as a list of (alpha, point) pairs, or None.  Every
    candidate entry counts as one node; more than ``budget`` nodes raise
    ResourceCap, and so does passing ``deadline`` (a ``time.monotonic()``
    value), checked every 4096 nodes and once the symmetries are found.
    """
    walk = _Walk(alphas, anchors, table, budget or DEFAULT_SEARCH_BUDGET, deadline, symmetries)
    for target in range(2, n_max + 1):
        walk.target = target
        walk.fix.append(())  # positions 0..target
        before = walk.nodes
        for start in range(len(alphas)):
            if any(images[start] < start for _, images in walk.fix[0]):
                continue
            walk.nexts = range(start, len(alphas))
            for p_0 in anchors:
                walk.seq = [(start, p_0)]
                if _extend(walk, 0):
                    return [(alphas[i], p) for i, p in walk.seq]
        if walk.nodes == before:
            return None
    return None


class _Walk:
    """State of one search: subsets are indices into ``alphas``, their tables
    fetched once, the tables of meets alphas[i] & alphas[j] memoised as
    first needed, and so are the node counts of the levels decided
    (``decided``) and the anchor sets they read (``reach``).  ``unsafe``
    counts the closing levels that read -1 and the finding of the
    symmetries, so a level that sees it move stores nothing.  fix[m] holds
    the symmetries that fix the first m entries, empty until they are
    found.  The walk itself is the module-level ``_extend``, so no function
    refers to itself and nothing here outlives the search in a reference
    cycle.  fix grows by one position per target length, so a bound far
    past the cycles found costs nothing."""

    __slots__ = ("alphas", "anchors", "table", "tables", "meets", "budget", "deadline",
                 "after", "find", "limit", "fix", "nodes", "target", "nexts", "seq", "reaches",
                 "decided", "unsafe")

    def __init__(self, alphas, anchors, table, budget, deadline, symmetries):
        self.alphas = alphas
        self.anchors = anchors
        self.table = table
        self.tables = [self.fetch(a) for a in alphas]
        self.meets = [[None] * len(alphas) for _ in alphas]
        self.budget = budget
        self.deadline = deadline
        self.after, self.find = symmetries or (math.inf, None)
        # the kernel calls tick past limit, so at the node that finds the symmetries
        self.limit = min(budget, self.after - 1)
        self.fix = [(), ()]
        self.nodes = 0
        self.reaches = {}
        self.decided = {}
        self.unsafe = 0

    def fetch(self, alpha):
        """table(alpha), with the component of every anchor walked."""
        t = self.table(alpha)
        for p_0 in self.anchors:
            t.find(p_0)
        return t

    def meet(self, i, j):
        t = self.meets[i][j]
        if t is None:
            t = self.meets[i][j] = self.meets[j][i] = self.fetch(self.alphas[i] & self.alphas[j])
        return t

    def reach(self, start, p_0):
        """The union of anchor p_0's components in the tables of
        alphas[start:], as one set."""
        r = self.reaches.get((start, p_0))
        if r is None:
            r = self.reaches[start, p_0] = frozenset().union(
                *(t.block(p_0) for t in self.tables[start:]))
        return r

    def tick(self, nodes):
        """The slow path of node counting, taken past the limit and every
        4096 nodes: raise on the budget; find the symmetries once ``after``
        nodes are spent; raise on the deadline, if one is set, every 4096
        nodes and after the symmetries are found."""
        if nodes > self.budget:
            raise ResourceCap(f"coset-cycle search budget {self.budget} exceeded")
        found = nodes >= self.after
        if found:
            self.unsafe += 1
            self.after, self.limit = math.inf, self.budget
            self.fix[0] = tuple(self.find())
            for m, entry in enumerate(self.seq):
                self.fix[m + 1] = _fixing(self.fix[m], entry)
        if (found or not nodes & 4095) and self.deadline is not None \
                and time.monotonic() > self.deadline:
            raise ResourceCap(f"coset-cycle search timed out after {nodes} nodes")

    def add(self, count):
        """Count a decided level's nodes at once, up to count <= limit,
        ticking at each multiple of 4096 passed as the walk one by one
        would."""
        for b in range((self.nodes | 4095) + 1, count + 1, 4096):
            self.tick(b)
        self.nodes = count


def _fixing(syms, entry):
    """The symmetries of syms that fix the entry (i, p)."""
    i, p = entry
    return tuple(s for s in syms if s[1][i] == i and s[0][p] == p)


def _unmoved(fix, q, nexts):
    """The j of nexts for which no symmetry of fix maps the candidate (q, j)
    to an earlier one: none when one maps q below q, else those that no
    symmetry fixing q maps below j."""
    lower = []
    for perm, images in fix:
        image = perm[q]
        if image < q:
            return ()
        if image == q:
            lower.append(images)
    if not lower:
        return nexts
    return [j for j in nexts if all(images[j] >= j for images in lower)]


def _extend(w, m):
    """Grow w.seq, whose last entry (i_m, p) sits at position m, to a cycle
    of w.target entries; True when w.seq then holds one.

    Each candidate next entry (j, q) is one node.  With t the table of the
    meet of i_m and j, it is separated at m when q's component in t is not
    in ``mids[j]``, the components of t that meet p's component in the meet
    table of i_m and its predecessor.  A closing entry must also lie in
    p_0's j-component, have its component in t outside ``closes[j]``, the
    components of t that meet p_0's in the meet table of i_0 and j, and
    leave entry 0 separated (``opens[j]``).  Each set is built by
    :func:`met_by_ids` once per prefix node and j, on first use.
    Candidates that a symmetry fixing the prefix maps to earlier ones are
    left out before they are counted.

    A level that no symmetry fixes is decided once per walk, as
    :func:`search_coset_cycle` describes.  ``w.decided`` is keyed by the
    entries left to add, the start, p_0, i_m with the least point of p's
    component and, past entry 0, i_{m-1} with p's id in the meet table.
    A closing level's value is its candidates times the next subsets, or
    -1 when a candidate lies in the start's anchor set (``w.reach``); the
    candidates are p's component less its component in the meet table,
    taken as sets, since a meet table need not refine the table of i_m.
    A level walked one by one stores the nodes it spent once it returns
    with ``w.unsafe`` unchanged: no closing level under it read -1 and no
    symmetries were found during it (a closing level stores the value it
    holds already)."""
    seq = w.seq
    i_0, p_0 = seq[0]
    i_m, p = seq[m]
    tables, row, meet, budget, nexts = w.tables, w.meets[i_m], w.meet, w.limit, w.nexts
    left = w.target - 1 - m
    closing = left == 1
    fix = w.fix[m]
    if fix:
        fix = _fixing(fix, seq[m])
    w.fix[m + 1] = fix
    if m:
        mid = meet(i_m, seq[m - 1][0])
        mid_block = mid.block(p)
        mid_ids = mid.ids
        p_mid = mid_ids[p]
    block = tables[i_m].block(p)
    nodes = before = w.nodes
    unsafe = w.unsafe
    if not fix:
        key = (left, i_0, p_0, i_m, block[0], seq[m - 1][0], p_mid) if m else (left, i_0, p_0)
        size = w.decided.get(key)
        if size is None and closing:
            qs = set(block)
            qs.difference_update(mid_block if m else (p,))
            size = w.decided[key] = \
                len(qs) * len(nexts) if w.reach(i_0, p_0).isdisjoint(qs) else -1
        if size is not None:
            if size < 0:
                w.unsafe += 1
            elif nodes + size <= budget:
                w.add(nodes + size)
                return False
    mids, closes, opens = [None] * len(row), [None] * len(row), [None] * len(row)
    for q in block:
        if q == p:
            continue
        if m and mid_ids[q] == p_mid:
            continue  # separation at m is then impossible for any next subset
        for j in _unmoved(fix, q, nexts) if fix else nexts:
            nodes += 1
            if not nodes & 4095 or nodes > budget:
                w.tick(nodes)
            if m:
                t = row[j] or meet(i_m, j)
                shut = mids[j]
                if shut is None:
                    shut = mids[j] = met_by_ids(mid_block, t)
                if t.ids[q] in shut:
                    continue
            if closing:
                ids_j = tables[j].ids
                if ids_j[q] != ids_j[p_0]:
                    continue
                # separation at the closing entry, then at entry 0
                t = row[j] or meet(i_m, j)
                shut = closes[j]
                if shut is None:
                    shut = closes[j] = met_by_ids(meet(i_0, j).block(p_0), t)
                if t.ids[q] in shut:
                    continue
                if m:
                    ok = opens[j]
                    if ok is None:
                        t_1 = meet(i_0, seq[1][0])
                        shut = met_by_ids(meet(i_0, j).block(p_0), t_1)
                        ok = opens[j] = t_1.find(seq[1][1]) not in shut
                    if not ok:
                        continue
                seq.append((j, q))
                w.nodes = nodes
                return True
            seq.append((j, q))
            w.nodes = nodes
            if _extend(w, m + 1):
                return True
            nodes = w.nodes
            seq.pop()
    w.nodes = nodes
    if not fix and w.unsafe == unsafe:
        w.decided[key] = nodes - before
    return False


def is_two_acyclic(group, alpha):
    """Intersection criterion for the subgroup G[alpha], read from the
    group's own subgroup tables: G[a] meet G[b] = G[a & b] for proper
    subsets a, b of alpha."""
    alpha = frozenset(alpha)
    subs = {a: set(group.subgroup_elements(a)) for a in all_subsets(len(group.colors)) if a < alpha}
    return all(subs[a1] & subs[a2] == subs[a1 & a2] for a1, a2 in combinations(subs, 2))

