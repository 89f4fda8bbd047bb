"""Free amalgams of subgroup Cayley graphs: binary, chains, clusters.

Amalgams glue disjoint copies of generated-subgroup Cayley graphs along the
identifications forced by shared subgroups.  They are built as union-find
quotients of tagged copies; class representatives are the minimal
(constituent, element) pair, which keeps every construction deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .acyclicity import is_two_acyclic, minimal_support, proper_subsets
from .canon import canonical_form, connected_components, find_isomorphism
from .egraph import NO_EDGE, EGraph, induced_subgraph
from .errors import PreconditionFailed, StrictnessViolation, TransitivityViolation
from .groups import coset_graph, subgroup
from .traverse import UnionFind


class Amalgam:
    """Quotient of tagged subgroup-Cayley-graph copies.

    provenance[v] is the frozen set of (constituent index, parent group
    element) pairs identified into vertex v; anchors[i] is the parent element
    the canonical homomorphism sends constituent i's identity to.
    """

    __slots__ = ("graph", "group", "constituents", "provenance", "anchors", "kind")

    def __init__(self, graph, group, constituents, provenance, anchors, kind):
        self.graph = graph
        self.group = group
        self.constituents = constituents
        self.provenance = provenance
        self.anchors = anchors
        self.kind = kind

    def __repr__(self):
        return f"Amalgam({self.kind}, {self.graph.n} vertices, {len(self.constituents)} constituents)"


class FailureWitness(NamedTuple):
    vertex_a: int
    vertex_b: int
    image: int


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


def free_amalgam(group, alpha1, alpha2):
    """Two subgroup Cayley graphs glued along their shared subgroup."""
    alpha1, alpha2 = frozenset(alpha1), frozenset(alpha2)
    overlap = group.subgroup_elements(alpha1 & alpha2)
    glue = [((0, g), (1, g)) for g in overlap]
    return _build(group, [alpha1, alpha2], glue, [0, 0], "binary")


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

    Every constituent subgroup must be 2-acyclic (verified); the one-step
    identification relation is then provably transitive, which is reasserted
    on the built quotient.
    """
    alphas = [frozenset(a) for a in alphas]
    for a in alphas:
        if not is_two_acyclic(subgroup(group, a)):
            raise PreconditionFailed(
                f"cluster constituent {sorted(group.colors[i] for i in a)} is not 2-acyclic"
            )
    glue = []
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            for g in group.subgroup_elements(alphas[i] & alphas[j]):
                glue.append(((i, g), (j, g)))
    am = _build(group, alphas, glue, [0] * len(alphas), "cluster")
    for members in am.provenance:
        pairs = sorted(members)
        for i, gi in pairs:
            for j, gj in pairs:
                if gi != gj or gi not in group.subgroup_elements(alphas[i] & alphas[j]):
                    raise TransitivityViolation(
                        "cluster identification is not transitive; constituent "
                        "acyclicity must have been violated"
                    )
    return am


def embed_into_cayley(am, group):
    """Canonical homomorphism into the ambient Cayley graph, checked injective.

    Returns the vertex -> element map when injective, otherwise a
    FailureWitness holding two vertices with the same image.
    """
    images = []
    for v, members in enumerate(am.provenance):
        vals = {group.product(am.anchors[i], x) for i, x in members}
        if len(vals) != 1:
            raise StrictnessViolation("inconsistent provenance in amalgam")
        images.append(vals.pop())
    seen = {}
    for v, img in enumerate(images):
        if img in seen:
            return FailureWitness(seen[img], v, img)
        seen[img] = v
    return images


class Classification(NamedTuple):
    kind: str
    detail: dict
    ok: bool
    iso: object


def beta_components(am, beta):
    """Classify every beta-component against its predicted amalgam shape.

    Components inside one constituent must be that constituent's
    beta-subgroup Cayley graph; components crossing constituents must be the
    free amalgam / chain / cluster of the beta-reducts.  Each classification
    carries an explicit isomorphism (or ok=False on mismatch).
    """
    beta = frozenset(beta)
    group = am.group
    out = []
    for comp in connected_components(am.graph, beta):
        actual = induced_subgraph(am.graph, sorted(comp), beta)
        touching = sorted({ci for v in comp for ci, _ in am.provenance[v]})
        single = _single_constituent(am, comp, touching)
        if single is not None:
            ci = single
            predicted = coset_graph(group, beta & am.constituents[ci][0])
            iso = find_isomorphism(actual, predicted)
            out.append(
                Classification("single", {"constituent": ci}, iso is not None, iso)
            )
            continue
        if am.kind == "binary":
            a1 = beta & am.constituents[0][0]
            a2 = beta & am.constituents[1][0]
            predicted = free_amalgam(group, a1, a2).graph
            iso = find_isomorphism(actual, predicted)
            out.append(Classification("amalgam", {"alphas": [a1, a2]}, iso is not None, iso))
        elif am.kind == "chain":
            cls = _classify_chain_component(am, comp, touching, beta, actual)
            out.append(cls)
        else:
            betas = [beta & am.constituents[ci][0] for ci in touching]
            betas = [b for b in betas if b]
            if not betas:
                out.append(Classification("cluster", {"alphas": []}, len(comp) == 1, None))
                continue
            predicted = amalgam_cluster(group, betas).graph
            iso = find_isomorphism(actual, predicted)
            out.append(Classification("cluster", {"alphas": betas}, iso is not None, iso))
    return out


def _single_constituent(am, comp, touching):
    for ci in touching:
        if all(any(c == ci for c, _ in am.provenance[v]) for v in comp):
            return ci
    return None


def _classify_chain_component(am, comp, touching, beta, actual):
    group = am.group
    lo, hi = touching[0], touching[-1]
    if touching != list(range(lo, hi + 1)):
        return Classification("chain", {"range": touching}, False, None)
    betas = [beta & am.constituents[ci][0] for ci in range(lo, hi + 1)]

    def members_in(ci):
        out = {}
        for v in comp:
            for c, x in am.provenance[v]:
                if c == ci:
                    out[v] = x
        return out

    entry = min(members_in(lo).values())
    items = []
    for k, ci in enumerate(range(lo, hi)):
        here = members_in(ci)
        nxt = members_in(ci + 1)
        shared = sorted(set(here) & set(nxt))
        if not shared:
            return Classification("chain", {"range": touching}, False, None)
        exit_elem = here[shared[0]]
        items.append((betas[k], group.product(group.inverse(entry), exit_elem)))
        entry = nxt[shared[0]]
    items.append((betas[-1], 0))
    predicted = amalgam_chain(group, items)
    if predicted is None:
        return Classification("chain", {"items": items}, False, None)
    iso = find_isomorphism(actual, predicted.graph)
    return Classification("chain", {"items": items}, iso is not None, iso)


def rebuild_renamed(am, rho):
    """Rebuild the amalgam from renamed data; used to test isomorphism invariance."""
    group = am.group
    rho_idx = {group.color_index(e): group.color_index(t) for e, t in rho.items()}
    alphas = [frozenset(rho_idx[c] for c in a) for a, _ in am.constituents]
    if am.kind == "binary":
        return free_amalgam(group, alphas[0], alphas[1])
    if am.kind == "cluster":
        return amalgam_cluster(group, alphas)
    raise ValueError("rebuild_renamed supports binary and cluster amalgams")


def has_cluster_property(group, max_constituents=3):
    """Bounded check of the cluster property over amalgamation clusters.

    For every cluster of up to max_constituents nonempty proper generator
    subsets and every proper beta, each beta-connected component must contain
    an element realising the component's minimal support, and must be
    isomorphic to the cluster of the beta-reducts of its contributing
    constituents.  Requires (and checks) 2-acyclicity of all proper
    subgroups.
    """
    n_colors = len(group.colors)
    for a in proper_subsets(n_colors):
        if not is_two_acyclic(subgroup(group, a)):
            raise PreconditionFailed(
                f"subgroup for {sorted(group.colors[i] for i in a)} is not 2-acyclic"
            )
    family = [a for a in proper_subsets(n_colors) if a]
    for size in range(1, max_constituents + 1):
        for alphas in combinations(family, size):
            cluster = amalgam_cluster(group, list(alphas))
            for beta in proper_subsets(n_colors):
                if not _cluster_components_ok(group, cluster, beta):
                    return False
    return True


def _cluster_components_ok(group, cluster, beta):
    for comp in connected_components(cluster.graph, beta):
        elems = {v: min(cluster.provenance[v])[1] for v in comp}
        supports = {v: minimal_support(group, elems[v], assume_two_acyclic=True) for v in comp}
        alpha_b = frozenset.intersection(*supports.values())
        if not any(s == alpha_b for s in supports.values()):
            return False
        touching = {ci for v in comp for ci, _ in cluster.provenance[v]}
        m_b = [ci for ci in sorted(touching) if beta & cluster.constituents[ci][0]]
        if not m_b:
            if len(comp) != 1:
                return False
            continue
        predicted = amalgam_cluster(group, [beta & cluster.constituents[ci][0] for ci in m_b])
        actual = induced_subgraph(cluster.graph, sorted(comp), beta)
        if canonical_form(predicted.graph) != canonical_form(actual):
            return False
    return True
