"""Coset cycles, graded acyclicity, girth, minimal supports, cluster property.

A coset cycle of length n is a cyclic sequence of pointed cosets
(g_i * G[alpha_i], g_i) such that consecutive cosets share their link element
(connectivity) and the two intersection cosets pivoting at each point are
disjoint (separation).  A group is N-acyclic when no such cycle of length
2..N exists.  The searcher anchors g_0 at the identity, which loses no
generality because left translation preserves both conditions.

One search kernel, :func:`search_coset_cycle`, serves groups, reachability
templates and groupoids alike; each searcher feeds it its own component
tables and a ``met`` hook naming the components a block meets, and
rechecks the result with its own independent validator.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from .canon import canonical_form, connected_components
from .egraph import NO_EDGE, induced_subgraph
from .errors import PreconditionFailed, ResourceCap, SearchTimeout

DEFAULT_SEARCH_BUDGET = 2_000_000


class GammaFilter:
    """Family of admissible generator subsets for coset cycles.

    Either all subsets of size < k, or an explicit family.  Proper subsets
    only, unless full sets are explicitly allowed at call time.
    """

    def __init__(self, size_bound=None, family=None):
        if (size_bound is None) == (family is None):
            raise ValueError("give exactly one of size_bound / family")
        self.size_bound = size_bound
        self.family = None if family is None else [frozenset(a) for a in family]

    @classmethod
    def size(cls, k):
        return cls(size_bound=k)

    @classmethod
    def explicit(cls, family):
        return cls(family=family)

    def subsets(self, n_colors, allow_full=False):
        full = frozenset(range(n_colors))
        if self.family is not None:
            cands = self.family
        else:
            cands = all_subsets(n_colors, max_size=self.size_bound - 1)
        out = [a for a in cands if allow_full or a != full]
        return sorted(set(out), key=lambda a: (len(a), sorted(a)))


def all_subsets(n_colors, max_size=None):
    if max_size is None:
        max_size = n_colors
    out = []
    for mask in range(1 << n_colors):
        a = frozenset(i for i in range(n_colors) if mask >> i & 1)
        if len(a) <= max_size:
            out.append(a)
    return sorted(out, key=lambda a: (len(a), sorted(a)))


def proper_subsets(n_colors):
    return all_subsets(n_colors, max_size=max(n_colors - 1, 0))


class CosetCycle(NamedTuple):
    """Witness: cyclic (alpha, g) entries in rotation/reflection canonical form."""

    entries: tuple

    def __len__(self):
        return len(self.entries)

    def alphas(self):
        return [a for a, _ in self.entries]


def girth(cg):
    """Length of the shortest graph cycle of a Cayley graph, or math.inf.

    Cayley graphs are vertex transitive, so one breadth-first sweep from the
    identity vertex realises the girth.
    """
    graph = cg.graph if hasattr(cg, "graph") else cg
    n = graph.n
    if n == 0:
        return math.inf
    dist = [-1] * n
    par = [-1] * n
    dist[0] = 0
    queue = [0]
    pos = 0
    best = math.inf
    while pos < len(queue):
        u = queue[pos]
        pos += 1
        for row in graph.partner:
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


def _separated(group, g, alpha_g, h, alpha_h):
    """True when g*G[alpha_g] and h*G[alpha_h] are disjoint."""
    return set(group.coset(h, alpha_h)).isdisjoint(group.coset(g, alpha_g))


def validate_coset_cycle(group, entries):
    """Independent recheck of connectivity and separation from raw cosets."""
    n = len(entries)
    if n < 2:
        return False
    for i in range(n):
        a_i, g_i = entries[i]
        a_next, g_next = entries[(i + 1) % n]
        a_prev = entries[(i - 1) % n][0]
        if not group.same_coset(g_i, g_next, a_i):
            return False
        if not _separated(group, g_i, a_i & a_prev, g_next, a_i & a_next):
            return False
    return True


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
    return CosetCycle(best[1])


def find_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, deadline=None):
    """Shortest coset cycle of length <= n_max with subsets from the filter.

    Returns a canonical CosetCycle or None.  g_0 is fixed at the identity.
    """
    n_colors = len(group.colors)
    if gamma is None:
        alphas = proper_subsets(n_colors)
    else:
        alphas = gamma.subsets(n_colors, allow_full=allow_full)
    found = search_coset_cycle(
        alphas, (0,), n_max, group.coset_table, met_by_ids, budget, deadline
    )
    if found is None:
        return None
    cyc = canonical_cycle(group, found)
    if not validate_coset_cycle(group, cyc.entries):
        raise RuntimeError("coset-cycle search returned a cycle its validator rejects")
    return cyc


def met_by_ids(block, tb):
    """The ``met`` hook for structures whose alpha-components partition the
    points themselves (groups, groupoids): the ids of the components of
    table tb that hold a point of block, each walked if it was not."""
    met = set(map(tb.ids.__getitem__, block))
    if -1 in met:
        met = set(map(tb.find, block))
    return met


def search_coset_cycle(alphas, anchors, n_max, table, met, budget=None, deadline=None):
    """The depth-first coset-cycle search behind every searcher.

    Points are group elements, packed (site, element) pairs of a template
    product, or groupoid elements.  ``table(alpha)`` is the partition of
    the points into alpha-components, read through three members, as a
    :class:`~acygroups.traverse.Cosets` or a template's
    :class:`~acygroups.constraint.TranslatedCosets` serves them:
    ``find(x)`` is the id of x's component, ``block(x)`` that component
    ascending, and ``ids[x]`` the id, or -1 while the component of x is not
    walked.  ``met(block, tb)`` is the set of ids of the components of
    table tb that meet the component ``block``.  The component of q in tb is then disjoint from
    block exactly when its id is not in that set, so each prefix node
    builds the set once per next subset and tests every candidate q by one
    membership.

    The per-candidate reads are bare ``ids[q]``, each an equality with the
    id of a walked component or a membership in a ``met`` set, so a -1
    never matches.  That holds because the kernel walks each anchor's
    component in every table once per search and p's component, in its
    table and in the meet table, once per prefix node, and because ``met``
    walks every component its block meets before it returns.

    Lengths 2..n_max are tried in turn,
    start subsets in the order of ``alphas`` with the anchor points inner;
    every separation condition determined on the prefix prunes at once, and
    the closing entry is checked in the loop of the entry before it.

    Rotating and left-translating a coset cycle keeps it one, and moves any
    entry to the front at an anchor point, so only cycles whose first subset
    comes first in ``alphas`` are walked: after the start ``alphas[i]``,
    entries take subsets from ``alphas[i:]`` only.  The first cycle found
    is the one the unrestricted walk finds first, since any rotation of a
    cycle with an earlier subset would have been found in an earlier round.

    Returns that cycle as a list of (alpha, point) pairs, or None.  Every
    candidate entry counts as one node; more than ``budget`` nodes raise
    ResourceCap, and so does passing ``deadline`` (a ``time.monotonic()``
    value), checked every 4096 nodes.
    """
    walk = _Walk(alphas, anchors, table, met, budget or DEFAULT_SEARCH_BUDGET, deadline)
    for target in range(2, n_max + 1):
        walk.target = target
        for start in range(len(alphas)):
            walk.nexts = range(start, len(alphas))
            for p_0 in anchors:
                walk.seq = [(start, p_0)]
                if _extend(walk, 0):
                    return [(alphas[i], p) for i, p in walk.seq]
    return None


class _Walk:
    """State of one search: subsets are indices into ``alphas``, their tables
    fetched once, the tables of meets alphas[i] & alphas[j] memoised as first
    needed.  The walk itself is the module-level ``_extend``, so no function
    refers to itself and nothing here outlives the search in a reference
    cycle."""

    __slots__ = ("alphas", "anchors", "table", "tables", "meets", "met", "budget", "deadline",
                 "nodes", "target", "nexts", "seq")

    def __init__(self, alphas, anchors, table, met, budget, deadline):
        self.alphas = alphas
        self.anchors = anchors
        self.table = table
        self.tables = [self.fetch(a) for a in alphas]
        self.meets = [[None] * len(alphas) for _ in alphas]
        self.met = met
        self.budget = budget
        self.deadline = deadline
        self.nodes = 0

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

    def tick(self, nodes):
        """The slow path of node counting, taken past the budget and every
        4096 nodes: raise on the budget or, if one is set, the deadline."""
        if nodes > self.budget:
            raise ResourceCap(f"coset-cycle search budget {self.budget} exceeded")
        if not nodes & 4095 and self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(f"coset-cycle search timed out after {nodes} nodes")


def _extend(w, m):
    """Grow w.seq, whose last entry (i_m, p) sits at position m, to a cycle
    of w.target entries; True when w.seq then holds one.

    Each candidate next entry (j, q) is one node.  With t the table of the
    meet of i_m and j, it is separated at m when q's component in t is not
    in ``mids[j]``, the components of t that meet p's component in the meet
    table of i_m and its predecessor.  A closing entry must also lie in
    p_0's j-component, have its component in t outside ``closes[j]``, the
    components of t that meet p_0's in the meet table of i_0 and j, and
    leave entry 0 separated (``opens[j]``).  Each set is built once per
    prefix node and j, on first use."""
    seq = w.seq
    i_0, p_0 = seq[0]
    i_m, p = seq[m]
    tables, row, meet, met, budget = w.tables, w.meets[i_m], w.meet, w.met, w.budget
    closing = m == w.target - 2
    if m:
        mid = meet(i_m, seq[m - 1][0])
        mid_block = mid.block(p)
        mid_ids = mid.ids
        p_mid = mid_ids[p]
    mids, closes, opens = [None] * len(row), [None] * len(row), [None] * len(row)
    nodes = w.nodes
    for q in tables[i_m].block(p):
        if q == p:
            continue
        if m and mid_ids[q] == p_mid:
            continue  # separation at m is then impossible for any next subset
        for j in w.nexts:
            nodes += 1
            if not nodes & 4095 or nodes > budget:
                w.tick(nodes)
            if m:
                t = row[j] or meet(i_m, j)
                shut = mids[j]
                if shut is None:
                    shut = mids[j] = met(mid_block, t)
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
                    shut = closes[j] = met(meet(i_0, j).block(p_0), t)
                if t.ids[q] in shut:
                    continue
                if m:
                    ok = opens[j]
                    if ok is None:
                        t_1 = meet(i_0, seq[1][0])
                        ok = opens[j] = t_1.find(seq[1][1]) not in met(meet(i_0, j).block(p_0), t_1)
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
    return False


def is_n_acyclic(group, n_max, gamma=None, allow_full=False, budget=None):
    """No coset cycles of lengths 2..n_max with subsets from the filter."""
    return find_coset_cycle(group, n_max, gamma=gamma, allow_full=allow_full, budget=budget) is None


def is_two_acyclic(group):
    """Intersection criterion: G[a] meet G[b] = G[a & b] for proper a, b."""
    n_colors = len(group.colors)
    subs = {a: set(group.subgroup_elements(a)) for a in proper_subsets(n_colors)}
    for a1 in subs:
        for a2 in subs:
            if subs[a1] & subs[a2] != set(group.subgroup_elements(a1 & a2)):
                return False
    return True


class Support(NamedTuple):
    support: frozenset
    verified: bool


def minimal_support(group, g, assume_two_acyclic=False):
    """The unique minimal generator set whose subgroup contains g.

    Needs 2-acyclicity; when assumed rather than verified the result is
    flagged unverified.
    """
    verified = True
    if not assume_two_acyclic:
        if not is_two_acyclic(group):
            raise PreconditionFailed("group is not 2-acyclic")
    else:
        verified = False
    n_colors = len(group.colors)
    inter = frozenset(range(n_colors))
    for a in all_subsets(n_colors):
        if g in group.subgroup_elements(a):
            inter &= a
    return Support(inter, verified)


def coset_support(group, alpha, g, assume_three_acyclic=False):
    """Minimal generator set whose subgroup meets the alpha-coset of g."""
    verified = True
    if not assume_three_acyclic:
        if not is_n_acyclic(group, 3):
            raise PreconditionFailed("group is not 3-acyclic")
    else:
        verified = False
    inter = frozenset(range(len(group.colors)))
    for h in group.coset(g, alpha):
        inter &= minimal_support(group, h, assume_two_acyclic=True).support
    return Support(inter, verified)


def has_cluster_property(group, max_constituents=3):
    """Bounded check of the cluster property over amalgamation clusters.

    For every cluster of up to max_constituents nonempty proper generator
    subsets and every proper beta, each beta-connected component must contain
    an element realising the component's minimal support, and must be
    isomorphic to the cluster of the beta-reducts of its contributing
    constituents.  Requires (and checks) 2-acyclicity of all proper
    subgroups.
    """
    from itertools import combinations

    from . import amalgam as am
    from .groups import subgroup

    n_colors = len(group.colors)
    for a in proper_subsets(n_colors):
        if not is_two_acyclic(subgroup(group, a)):
            raise PreconditionFailed(
                f"subgroup for {sorted(group.colors[i] for i in a)} is not 2-acyclic"
            )
    family = [a for a in proper_subsets(n_colors) if a]
    for size in range(1, max_constituents + 1):
        for alphas in combinations(family, size):
            cluster = am.amalgam_cluster(group, list(alphas))
            for beta in proper_subsets(n_colors):
                if not _cluster_components_ok(group, cluster, beta, am):
                    return False
    return True


def _cluster_components_ok(group, cluster, beta, am):
    for comp in connected_components(cluster.graph, beta):
        elems = {v: min(cluster.provenance[v])[1] for v in comp}
        supports = {
            v: minimal_support(group, elems[v], assume_two_acyclic=True).support
            for v in comp
        }
        alpha_b = frozenset.intersection(*supports.values())
        if not any(s == alpha_b for s in supports.values()):
            return False
        touching = {ci for v in comp for ci, _ in cluster.provenance[v]}
        m_b = [ci for ci in sorted(touching) if beta & cluster.constituents[ci][0]]
        if not m_b:
            if len(comp) != 1:
                return False
            continue
        predicted = am.amalgam_cluster(
            group, [beta & cluster.constituents[ci][0] for ci in m_b]
        )
        actual = induced_subgraph(cluster.graph, sorted(comp), beta)
        if canonical_form(predicted.graph) != canonical_form(actual):
            return False
    return True
