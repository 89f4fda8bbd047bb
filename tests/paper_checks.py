"""Checkers of the paper's definitions, run by the tests against the
library's outputs.

No pipeline runs these: each restates a definition (minimal supports,
embeddings of amalgams into the Cayley graph, the cluster property,
skeletons, the preconditions and the cluster property of small coset
amalgams, the template coset cycles that a cover's witnesses induce) as
directly as it can, so that a test can hold a construction of the library
against it.
"""

from itertools import combinations
from typing import NamedTuple

from acygroups.acyclicity import all_subsets, find_coset_cycle, is_two_acyclic, proper_subsets
from acygroups.amalgam import amalgam_chain, amalgam_cluster
from acygroups.canon import canonical_form, connected_components
from acygroups.constraint import Skeleton, is_free_over
from acygroups.covering import _vertex_colour_sets
from acygroups.errors import PreconditionFailed, StrictnessViolation
from acygroups.traverse import NO_EDGE, bfs_parents

from conftest import coset_graph
from oracles import find_isomorphism, induced_subgraph, reference_propagate


def minimal_support(group, g, assume_two_acyclic=False):
    """The unique minimal generator set whose subgroup contains g.

    Needs 2-acyclicity, which is checked unless it is assumed.
    """
    if not assume_two_acyclic and not is_two_acyclic(group, range(len(group.colors))):
        raise PreconditionFailed("group is not 2-acyclic")
    n_colors = len(group.colors)
    inter = frozenset(range(n_colors))
    for a in all_subsets(n_colors):
        if g in group.subgroup_elements(a):
            inter &= a
    return inter


def coset_support(group, alpha, g):
    """Minimal generator set whose subgroup meets the alpha-coset of g."""
    if find_coset_cycle(group, 3) is not None:
        raise PreconditionFailed("group is not 3-acyclic")
    inter = frozenset(range(len(group.colors)))
    for h in group.coset(g, alpha):
        inter &= minimal_support(group, h, assume_two_acyclic=True)
    return inter


class FailureWitness(NamedTuple):
    vertex_a: int
    vertex_b: int
    image: int


def embed_into_cayley(am, group):
    """Canonical homomorphism into the ambient Cayley graph, checked injective.

    Returns the vertex -> element map when injective, otherwise a
    FailureWitness holding two vertices with the same image.
    """
    images = []
    for members in am.provenance:
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
    chain / cluster of the beta-reducts.  Each classification carries an
    explicit isomorphism (or ok=False on mismatch).
    """
    beta = frozenset(beta)
    group = am.group
    out = []
    for comp in connected_components(am.graph, beta):
        actual = induced_subgraph(am.graph, sorted(comp), beta)
        touching = sorted({ci for v in comp for ci, _ in am.provenance[v]})
        single = _single_constituent(am, comp, touching)
        if single is not None:
            predicted = coset_graph(group, beta & am.constituents[single][0])
            iso = find_isomorphism(actual, predicted)
            out.append(Classification("single", {"constituent": single}, iso is not None, iso))
        elif am.kind == "chain":
            out.append(_classify_chain_component(am, comp, touching, beta, actual))
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
        if not is_two_acyclic(group, a):
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


class SkeletonFailure(NamedTuple):
    reason: str
    detail: object


def is_skeleton(host, igraph, alpha, s):
    """Check the defining properties of a skeleton host; find its site map.

    The map is propagated from anchor candidates: along an edge of the host
    the image is forced because template colour classes are matchings.
    Surjectivity onto the alpha-component of s and the edge-lifting property
    are then verified.
    """
    alpha = frozenset(alpha)
    reached, _ = bfs_parents([igraph.partner[c] for c in sorted(alpha)], igraph.n, [s])
    target_sites = set(reached)
    rows = list(enumerate(host.partner))

    def step(c, site):
        # the image of an edge is forced: template colour classes are matchings
        t = igraph.partner[c][site] if c in alpha else NO_EDGE
        return t if t in target_sites else None

    hom = [None] * host.n
    for comp in connected_components(host):
        assigned = None
        for site in sorted(target_sites):
            assigned = reference_propagate(host.n, rows, [(comp[0], site)], step)
            if assigned is not None:
                break
        if assigned is None:
            return SkeletonFailure("no site homomorphism for a component", comp[0])
        for v in comp:
            hom[v] = assigned[v]
    covered = set(hom)
    if not target_sites <= covered:
        return SkeletonFailure("homomorphism not surjective onto the component", None)
    for v in range(host.n):
        for c in sorted(alpha):
            t = igraph.partner[c][hom[v]]
            if t != NO_EDGE and t in target_sites and host.partner[c][v] == NO_EDGE:
                return SkeletonFailure("edge-lifting fails", (v, igraph.colors[c]))
    return Skeleton(host, tuple(hom), alpha, s, None)


def small_coset_preconditions_hold(skel, group, alpha, igraph, ctx):
    """The preconditions under which ``small_coset_amalgam`` glues a free
    extension: every proper-subset subgroup is 2-acyclic, the group is free
    over the template on those subsets, and every proper-subset component
    of the host is isomorphic to the embedded skeleton at its site."""
    gammas = [a for a in all_subsets(len(group.colors)) if a < frozenset(alpha)]
    if not all(is_two_acyclic(group, a) for a in gammas):
        return False
    if not is_free_over(group, igraph, alphas=gammas, ctx=ctx):
        return False
    host = skel.graph
    return all(
        canonical_form(ctx.skeleton(a, skel.hom[comp[0]], 0).graph)
        == canonical_form(induced_subgraph(host, sorted(comp), a))
        for a in gammas
        for comp in connected_components(host, a)
    )


def minimal_tag_support(ce, x):
    """Minimal tag subset representing x, with its single anchoring component.

    Host vertices have empty support and anchor at themselves.
    """
    if not ce.provenance[x]:
        u = ce.host_image.index(x)
        return frozenset(), (u,)
    supports = [a for _, _, a in ce.provenance[x]]
    alpha_x = frozenset.intersection(*supports)
    anchors = tuple(sorted({v for _, v, a in ce.provenance[x] if a == alpha_x}))
    if not anchors:
        raise StrictnessViolation("no representation realises the minimal tag support")
    comps = connected_components(ce.skeleton.graph, alpha_x)
    holding = [c for c in comps if set(anchors) <= set(c)]
    if len(holding) != 1 or set(anchors) != set(holding[0]):
        raise StrictnessViolation("anchor vertices do not form one full component")
    return alpha_x, anchors


def ce_cluster_property(ce, group):
    """Cluster property of the extension.

    Every proper-subset component B must (i) contain an element whose minimal
    tag support equals the component's intersection support, held in a core
    copy contained in every copy meeting B, and (ii) be contained in a weak
    substructure isomorphic to the amalgamation cluster of the contributing
    beta-reducts.
    """
    gammas = [a for a in all_subsets(len(group.colors)) if a < ce.alpha]
    copy_sets = {i: set(vs) for i, (_, _, vs) in enumerate(ce.copies)}
    supports = [
        frozenset.intersection(*[a for _, _, a in prov]) if prov else frozenset()
        for prov in ce.provenance
    ]
    for beta in gammas:
        for comp in connected_components(ce.graph, beta):
            comp_set = set(comp)
            alpha_b = frozenset.intersection(*[supports[v] for v in comp])
            touching = [
                i
                for i, vs in copy_sets.items()
                if vs & comp_set and beta & ce.copies[i][0]
            ]
            cores = [
                c
                for c, (a, _, vs) in enumerate(ce.copies)
                if a == alpha_b
                and any(supports[v] == alpha_b and v in vs for v in comp)
            ]
            if not any(
                all(copy_sets[c] <= copy_sets[i] for i in touching) for c in cores
            ):
                return False
            betas = sorted(
                {beta & ce.copies[i][0] for i in touching if beta & ce.copies[i][0]},
                key=sorted,
            )
            if not betas:
                if len(comp) != 1:
                    return False
                continue
            predicted = amalgam_cluster(group, betas).graph
            actual = induced_subgraph(ce.graph, sorted(comp), beta)
            if canonical_form(predicted) != canonical_form(actual):
                return False
    return True


def _copy_members(cov):
    out = {}
    for copy, tag in zip(cov.provenance["copies"], cov.provenance["copy_tags"]):
        out[tag] = frozenset(copy)
    return out


def translate_chordless_cycle(cov, cycle):
    """Template coset cycle induced by a chordless cycle of the cover.

    For consecutive cover vertices a shared hyperedge copy is chosen; the
    cycle of the copies' tags, with the subsets of the pivot vertices,
    validates as a template coset cycle in the covering group.
    """
    copies = _copy_members(cov)
    n = len(cycle)
    chosen = []
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        cands = sorted(tag for tag, mem in copies.items() if a in mem and b in mem)
        if not cands:
            raise PreconditionFailed("not a Gaifman cycle: consecutive pair unshared")
        chosen.append(cands[0])
    vcolors = _vertex_colour_sets(cov.base, cov.template)
    entries = []
    for i in range(n):
        s_i, g_i = chosen[i - 1]  # the copy shared by the i-1 and i vertices
        alpha_i = frozenset(vcolors[cov.projection[cycle[i]]])
        entries.append((alpha_i, s_i, g_i))
    return tuple(entries)


def translate_nonconformal_clique(cov, clique):
    """Template coset cycle induced by a minimal non-conformal clique."""
    copies = _copy_members(cov)
    m = sorted(clique)
    n = len(m)
    chosen = []
    for i in range(n):
        rest = frozenset(x for j, x in enumerate(m) if j != (i - 1) % n)
        cands = sorted(tag for tag, mem in copies.items() if rest <= mem)
        if not cands:
            raise PreconditionFailed("clique is not a minimal conformality violation")
        chosen.append(cands[0])
    vcolors = _vertex_colour_sets(cov.base, cov.template)
    alphas = [frozenset(vcolors[cov.projection[x]]) for x in m]
    entries = []
    for i in range(n):
        beta_i = frozenset.intersection(*[alphas[j] for j in range(n) if j != (i - 1) % n])
        s_i, g_i = chosen[i]
        entries.append((beta_i, s_i, g_i))
    return tuple(entries)
