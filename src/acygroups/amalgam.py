"""Free amalgams of subgroup Cayley graphs: chains and clusters.

Amalgams glue disjoint copies of generated-subgroup Cayley graphs along the
identifications forced by shared subgroups.  They are built as union-find
quotients of tagged copies; class representatives are the minimal
(constituent, element) pair, which keeps every construction deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .acyclicity import is_two_acyclic
from .egraph import NO_EDGE, EGraph
from .errors import PreconditionFailed, StrictnessViolation, TransitivityViolation
from .traverse import UnionFind


class Amalgam(NamedTuple):
    """Quotient of tagged subgroup-Cayley-graph copies.

    provenance[v] is the frozen set of (constituent index, parent group
    element) pairs identified into vertex v; anchors[i] is the parent element
    the canonical homomorphism sends constituent i's identity to.
    """

    graph: EGraph
    group: object
    constituents: tuple
    provenance: tuple
    anchors: tuple
    kind: str


def quotient_graph(names, colors, edges):
    """The strict graph on the quotient classes with the (colour, u, w) edges.

    Raises StrictnessViolation when an edge is a loop, when a colour class
    branches at a vertex, or when the result is not strict.
    """
    rows = [[NO_EDGE] * len(names) for _ in colors]
    for c, u, w in edges:
        if u == w:
            raise StrictnessViolation(f"quotient induced a loop at {names[u]}")
        row = rows[c]
        for x, y in ((u, w), (w, u)):
            if row[x] not in (NO_EDGE, y):
                raise StrictnessViolation(f"quotient branches colour {colors[c]!r} at {names[x]}")
        row[u] = w
        row[w] = u
    graph = EGraph(names, colors, rows)
    if not graph.strict:
        raise StrictnessViolation("quotient is not a strict graph")
    return graph


def _build(group, alphas, glue, anchors, kind):
    """Assemble the quotient of the CG[alpha_i] copies by the glue pairs.

    glue is a list of ((i, parent_elem), (j, parent_elem)) identifications.
    The (i, element) pairs are numbered in sorted order, so the classes come
    out numbered by their least pair.
    """
    elements = [group.subgroup_elements(a) for a in alphas]
    pairs = [(i, g) for i, els in enumerate(elements) for g in els]
    index = {p: t for t, p in enumerate(pairs)}
    uf = UnionFind(len(pairs))
    for p, q in glue:
        uf.union(index[p], index[q])
    class_of, classes = uf.classes()
    names = [f"{i}:{g}" for i, g in (pairs[members[0]] for members in classes)]
    edges = (
        (c, class_of[index[i, g]], class_of[index[i, group.gen_action[c][g]]])
        for i, a in enumerate(alphas)
        for c in sorted(a)
        for g in elements[i]
    )
    graph = quotient_graph(names, group.colors, edges)
    provenance = tuple(frozenset(pairs[m] for m in members) for members in classes)
    constituents = tuple((frozenset(a), f"{kind}{i}") for i, a in enumerate(alphas))
    return Amalgam(graph, group, constituents, provenance, tuple(anchors), kind)


def amalgam_chain(group, items):
    """Pointed copies glued consecutively; None when the overlaps interfere.

    items is a list of (alpha_i, g_i) with g_i in the subgroup of alpha_i.
    Interior constituents need their two overlap cosets disjoint; the chain
    is undefined (None) otherwise.  Boundary constituents have only one
    overlap, so nothing is checked there.
    """
    items = [(frozenset(a), g) for a, g in items]
    for a, g in items:
        if g not in group.subgroup_elements(a):
            raise PreconditionFailed("chain point lies outside its subgroup")
    n = len(items)
    for i in range(1, n - 1):
        left = group.subgroup_elements(items[i - 1][0] & items[i][0])
        if not set(left).isdisjoint(group.coset(items[i][1], items[i][0] & items[i + 1][0])):
            return None
    glue = []
    for i in range(n - 1):
        beta = items[i][0] & items[i + 1][0]
        gi = items[i][1]
        for h in group.subgroup_elements(beta):
            glue.append(((i, group.product(gi, h)), (i + 1, h)))
    anchors = [0]
    for i in range(n - 1):
        anchors.append(group.product(anchors[i], items[i][1]))
    return _build(group, [a for a, _ in items], glue, anchors, "chain")


def amalgam_cluster(group, alphas):
    """Simultaneous amalgam identifying equal elements of pairwise overlaps.

    Every constituent subgroup must be 2-acyclic (verified on the group's
    own subgroup tables); the one-step identification relation is then
    provably transitive, which is reasserted on the built quotient.
    """
    alphas = [frozenset(a) for a in alphas]
    for a in alphas:
        if not is_two_acyclic(group, a):
            raise PreconditionFailed(
                f"cluster constituent {sorted(group.colors[i] for i in a)} is not 2-acyclic"
            )
    glue = []
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            for g in group.subgroup_elements(alphas[i] & alphas[j]):
                glue.append(((i, g), (j, g)))
    am = _build(group, alphas, glue, [0] * len(alphas), "cluster")
    one_step_classes(am.provenance, set(glue),
                     "cluster identification is not transitive; constituent "
                     "acyclicity must have been violated")
    return am


def one_step_classes(classes, pairs, message):
    """TransitivityViolation(message) unless the closure of the one-step
    identifications added nothing to them: every two members of each
    class, in sorted order, form one of the pairs, each a (p, q) with
    p < q."""
    for members in classes:
        for pq in combinations(sorted(members), 2):
            if pq not in pairs:
                raise TransitivityViolation(message)
